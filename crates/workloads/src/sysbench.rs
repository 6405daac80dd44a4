//! The sysbench/MySQL OLTP read-write model (§5.1, §5.2, Figures 1–4).
//!
//! Structure encoded from the paper:
//!
//! * The master thread is forked from `bash`, which mostly sleeps, so it
//!   starts interactive; it then initialises data and spawns workers
//!   *without sleeping*, so its penalty rises while it forks — early
//!   workers inherit an interactive history, late ones a batch history
//!   (§5.2, Figures 3/4).
//! * Worker threads process transactions in a closed loop; each
//!   transaction takes a lock (MySQL lock contention, §6.4), burns a
//!   little CPU and waits for "data stored on disk", so workers sleep more
//!   than they run and classify interactive (§5.1).

use kernel::{from_fn, Action, AppSpec, Behavior, Ctx, Kernel, MutexId, ThreadSpec};
use simcore::{Dur, Time};

use crate::P;

/// Sysbench sizing.
#[derive(Debug, Clone)]
pub struct SysbenchCfg {
    /// Worker threads (80 in §5.1, 128 in §5.2).
    pub threads: usize,
    /// Total transactions shared by all workers (a global pool, as
    /// sysbench's fixed event budget; workers exit when it drains).
    pub total_tx: u64,
    /// Number of database locks.
    pub locks: usize,
    /// CPU inside the critical section.
    pub crit: Dur,
    /// CPU outside the critical section (query processing).
    pub think: Dur,
    /// Disk/network wait per transaction (voluntary sleep).
    pub io: Dur,
    /// Master CPU burned per worker spawned (data initialisation).
    pub init_per_thread: Dur,
}

impl Default for SysbenchCfg {
    fn default() -> Self {
        SysbenchCfg {
            threads: 80,
            total_tx: 40_000,
            locks: 8,
            crit: Dur::micros(30),
            think: Dur::micros(470),
            io: Dur::micros(1500),
            init_per_thread: Dur::millis(32),
        }
    }
}

enum Step {
    /// Wait at the start gate until the master created every thread (as
    /// sysbench does: all threads are created, then the run begins).
    Gate,
    Begin,
    /// Pool-take result pending.
    Claimed,
    Crit,
    Unlock,
    Think,
    Io,
    Account,
    Latency,
}

/// One OLTP worker: a closed transaction loop over the shared budget.
struct Worker {
    cfg: SysbenchCfg,
    locks: Vec<MutexId>,
    gate: kernel::SemId,
    pool: kernel::PoolId,
    step: Step,
    tx_start: Time,
    lock: usize,
}

impl Behavior for Worker {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Action {
        match self.step {
            Step::Gate => {
                self.step = Step::Begin;
                Action::SemWait(self.gate)
            }
            Step::Begin => {
                // Claim one transaction from the shared budget.
                self.step = Step::Claimed;
                Action::PoolTake(self.pool)
            }
            Step::Claimed => {
                if ctx.value != Some(1) {
                    return Action::Exit; // budget drained
                }
                self.tx_start = ctx.now;
                self.step = Step::Think;
                // Row processing happens first, while already on CPU...
                Action::Run(self.cfg.think)
            }
            Step::Think => {
                // ...then the short index latch is taken hot.
                self.lock = ctx.rng.gen_below(self.locks.len() as u64) as usize;
                self.step = Step::Crit;
                Action::MutexLock(self.locks[self.lock])
            }
            Step::Crit => {
                self.step = Step::Unlock;
                Action::Run(self.cfg.crit)
            }
            Step::Unlock => {
                self.step = Step::Io;
                Action::MutexUnlock(self.locks[self.lock])
            }
            Step::Io => {
                self.step = Step::Account;
                // "waiting for data stored on disk": jittered ±25%.
                let base = self.cfg.io.as_nanos();
                let jit = ctx.rng.gen_range(base * 3 / 4, base * 5 / 4);
                Action::Sleep(Dur(jit))
            }
            Step::Account => {
                self.step = Step::Latency;
                Action::CountOps(1)
            }
            Step::Latency => {
                self.step = Step::Begin;
                Action::RecordLatency(ctx.now.saturating_since(self.tx_start))
            }
        }
    }
}

/// Build a sysbench app.
pub fn sysbench(k: &mut Kernel, cfg: SysbenchCfg) -> AppSpec {
    let locks: Vec<MutexId> = (0..cfg.locks).map(|_| k.new_mutex()).collect();
    let gate = k.new_sem(0);
    let pool = k.new_pool(cfg.total_tx);
    let master = from_fn({
        let cfg = cfg.clone();
        let locks = locks.clone();
        let mut spawned = 0usize;
        let mut released = 0usize;
        let mut init_done = false;
        move |_ctx| {
            if spawned == cfg.threads {
                // All created: open the start gate, then exit.
                if released < cfg.threads {
                    released += 1;
                    return Action::SemPost(gate);
                }
                return Action::Exit;
            }
            // Initialise this worker's table shard (pure CPU, no sleep —
            // the master's penalty rises while it forks), then spawn it.
            if !init_done {
                init_done = true;
                return Action::Run(cfg.init_per_thread);
            }
            init_done = false;
            spawned += 1;
            let w = Box::new(Worker {
                cfg: cfg.clone(),
                locks: locks.clone(),
                gate,
                pool,
                step: Step::Gate,
                tx_start: Time::ZERO,
                lock: 0,
            });
            Action::Spawn(Box::new(ThreadSpec::new(format!("sb-worker-{spawned}"), w)))
        }
    });
    AppSpec::new(
        "sysbench",
        vec![
            // "the master thread is created with the interactivity penalty
            // of the bash process from which it was forked. Since bash
            // mostly sleeps, sysbench is created as an interactive process."
            ThreadSpec::new("sb-master", master).with_history(Dur::ZERO, Dur::secs(4)),
        ],
    )
}

/// The suite instance (80 workers, as in §5.1).
pub fn sysbench_default(k: &mut Kernel, p: &P) -> AppSpec {
    sysbench(
        k,
        SysbenchCfg {
            threads: 80,
            total_tx: p.count(40_000),
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::{SimConfig, SimpleRR};
    use simcore::Time;
    use topology::Topology;

    #[test]
    fn sysbench_runs_to_completion_and_counts_tx() {
        let topo = Topology::flat(2);
        let sched = Box::new(SimpleRR::new(&topo));
        let mut k = Kernel::new(topo, SimConfig::frictionless(3), sched);
        let spec = sysbench(
            &mut k,
            SysbenchCfg {
                threads: 4,
                total_tx: 100,
                ..Default::default()
            },
        );
        let app = k.queue_app(Time::ZERO, spec);
        assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(60)));
        let a = k.app(app);
        assert_eq!(a.ops, 100, "the shared budget of 100 tx");
        assert_eq!(a.lat_count, 100);
        assert!(a.avg_latency().unwrap() >= Dur::micros(1500));
        assert_eq!(a.spawned, 5, "master + 4 workers");
    }

    #[test]
    fn workers_sleep_more_than_they_run() {
        // The per-transaction structure (0.5 ms CPU, ~1.5 ms sleep) is what
        // classifies workers interactive under ULE.
        let cfg = SysbenchCfg::default();
        let cpu = cfg.crit + cfg.think;
        assert!(cfg.io.as_nanos() * 2 >= cpu.as_nanos() * 5, "io >> cpu");
    }
}
