//! Implementing your own scheduling class against the Table 1 interface.
//!
//! The simulated kernel is generic over `sched_api::Scheduler`, exactly as
//! Linux's core scheduler is generic over its scheduling classes. This
//! example races a deliberately naive random-placement scheduler against
//! CFS and ULE on a bursty workload.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use std::collections::VecDeque;

use battle_of_schedulers::{Machine, Sched, Simulation};
use kernel::{cpu_hog, AppSpec, ThreadSpec};
use sched_api::{
    DequeueKind, EnqueueKind, Preempt, PreemptCause, Scheduler, SelectError, SelectStats,
    TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, SimRng, Time};
use topology::{CpuId, Topology};

/// A scheduler that places every waking thread on a *random* CPU and runs
/// 20 ms round-robin slices. No balancing, no heuristics.
struct RandomPlacement {
    rqs: Vec<VecDeque<Tid>>,
    curr: Vec<Option<Tid>>,
    slice_start: Vec<Time>,
    rng: SimRng,
}

impl RandomPlacement {
    fn new(topo: &Topology, seed: u64) -> Self {
        RandomPlacement {
            rqs: (0..topo.nr_cpus()).map(|_| VecDeque::new()).collect(),
            curr: vec![None; topo.nr_cpus()],
            slice_start: vec![Time::ZERO; topo.nr_cpus()],
            rng: SimRng::new(seed),
        }
    }
}

impl Scheduler for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        _kind: WakeKind,
        _waking_cpu: CpuId,
        _now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        stats.cpus_scanned += 1;
        let task = tasks.get(tid);
        loop {
            let c = CpuId(self.rng.gen_below(self.rqs.len() as u64) as u32);
            if task.allowed_on(c) {
                return Ok(c);
            }
        }
    }

    fn enqueue_task(
        &mut self,
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: EnqueueKind,
        _now: Time,
    ) -> Preempt {
        self.rqs[cpu.index()].push_back(tid);
        Preempt::No
    }

    fn dequeue_task(
        &mut self,
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        _now: Time,
    ) {
        if self.curr[cpu.index()] == Some(tid) {
            self.curr[cpu.index()] = None;
        } else if let Some(i) = self.rqs[cpu.index()].iter().position(|&t| t == tid) {
            self.rqs[cpu.index()].remove(i);
        }
    }

    fn yield_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, _now: Time) {
        if let Some(t) = self.curr[cpu.index()].take() {
            self.rqs[cpu.index()].push_back(t);
        }
    }

    fn pick_next_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        let t = self.rqs[cpu.index()].pop_front()?;
        self.curr[cpu.index()] = Some(t);
        self.slice_start[cpu.index()] = now;
        Some(t)
    }

    fn put_prev_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, tid: Tid, _now: Time) {
        self.curr[cpu.index()] = None;
        self.rqs[cpu.index()].push_back(tid);
    }

    fn task_tick(&mut self, _tasks: &mut TaskTable, cpu: CpuId, _curr: Tid, now: Time) -> Preempt {
        if !self.rqs[cpu.index()].is_empty()
            && now.saturating_since(self.slice_start[cpu.index()]) >= Dur::millis(20)
        {
            Preempt::Yes(PreemptCause::SliceExpired)
        } else {
            Preempt::No
        }
    }

    fn task_fork(&mut self, _t: &TaskTable, _c: Tid, _p: Option<Tid>, _n: Time) {}
    fn task_dead(&mut self, _t: &TaskTable, _tid: Tid, _n: Time) {}

    fn balance_tick(
        &mut self,
        _t: &mut TaskTable,
        _cpu: CpuId,
        _n: Time,
        _targets: &mut Vec<CpuId>,
    ) {
        // no balancing at all
    }

    fn idle_balance(
        &mut self,
        _t: &mut TaskTable,
        _cpu: CpuId,
        _n: Time,
        _s: &mut SelectStats,
    ) -> bool {
        false
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        self.rqs[cpu.index()].len() + usize::from(self.curr[cpu.index()].is_some())
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        out.extend(self.rqs[cpu.index()].iter().copied());
    }

    fn snapshot(&self, _tasks: &TaskTable, _tid: Tid) -> TaskSnapshot {
        TaskSnapshot::default()
    }
}

fn workload() -> AppSpec {
    AppSpec::new(
        "burst",
        (0..16)
            .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::millis(400), Dur::millis(8))))
            .collect(),
    )
}

fn main() {
    let machine = Machine::Flat(8);
    println!("16 × 400ms of work on 8 cores (perfect schedule: 0.8s)\n");

    for kind in Sched::BOTH {
        let mut sim = Simulation::new(machine.clone(), kind, 42);
        let app = sim.spawn_app(workload());
        sim.run_to_completion(Dur::secs(30));
        println!(
            "{:<8} finished in {:.2}s",
            format!("{kind:?}"),
            sim.app_elapsed(app).unwrap().as_secs_f64()
        );
    }

    let topo = machine.topology();
    let mut sim =
        Simulation::with_scheduler(machine, Box::new(RandomPlacement::new(&topo, 42)), 42);
    let app = sim.spawn_app(workload());
    sim.run_to_completion(Dur::secs(30));
    println!(
        "{:<8} finished in {:.2}s (random placement, no balancing)",
        "Random",
        sim.app_elapsed(app).unwrap().as_secs_f64()
    );
}
