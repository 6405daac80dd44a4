//! Randomized stress test: a chaotic application mixing every synchron-
//! isation primitive, run to completion under CFS, ULE and the reference
//! scheduler. Catches lost wakeups, accounting drift and scheduler-state
//! corruption under interleavings no hand-written test would produce.

use battle_of_schedulers::{Machine, Sched, Simulation};
use kernel::{from_fn, Action, AppSpec, Kernel, ThreadSpec};
use simcore::Dur;

/// A thread that performs `steps` random actions drawn from the full
/// action vocabulary (never holding more than one lock, so no deadlock is
/// possible by construction).
fn chaotic_thread(
    name: String,
    steps: u32,
    mutexes: Vec<kernel::MutexId>,
    sems: Vec<kernel::SemId>,
    queues: Vec<kernel::QueueId>,
    barrier: kernel::BarrierId,
    barrier_waits: u32,
) -> ThreadSpec {
    let mut left = steps;
    let mut barriers_left = barrier_waits;
    let mut held: Option<kernel::MutexId> = None;
    let mut waiting_get = false;
    let mut exit_posts = sems.len();
    ThreadSpec::new(
        name,
        from_fn(move |ctx| {
            // Finish a pending queue-get handshake.
            if waiting_get {
                waiting_get = false;
            }
            if left == 0 {
                // Drain duties before exiting: release any lock, top up the
                // semaphores (so no peer stays blocked), and attend the
                // remaining barrier rounds so peers aren't stranded.
                if let Some(m) = held.take() {
                    return Action::MutexUnlock(m);
                }
                if exit_posts > 0 {
                    exit_posts -= 1;
                    return Action::SemPost(sems[exit_posts]);
                }
                if barriers_left > 0 {
                    barriers_left -= 1;
                    return Action::BarrierWait(barrier);
                }
                return Action::Exit;
            }
            left -= 1;
            // If a lock is held, release it next (keeps critical sections
            // short and avoids deadlock).
            if let Some(m) = held.take() {
                return Action::MutexUnlock(m);
            }
            match ctx.rng.gen_below(10) {
                0 => Action::Run(Dur::micros(ctx.rng.gen_range(10, 2000))),
                1 => Action::Sleep(Dur::micros(ctx.rng.gen_range(10, 3000))),
                2 => {
                    let m = mutexes[ctx.rng.gen_below(mutexes.len() as u64) as usize];
                    held = Some(m);
                    Action::MutexLock(m)
                }
                3 => {
                    let s = sems[ctx.rng.gen_below(sems.len() as u64) as usize];
                    Action::SemPost(s)
                }
                4 => {
                    // Sem wait only on a semaphore we just posted overall —
                    // keep net-positive by posting twice as often; to avoid
                    // stranding, wait with 1/2 the probability of posting.
                    let s = sems[ctx.rng.gen_below(sems.len() as u64) as usize];
                    if ctx.rng.gen_bool(0.5) {
                        Action::SemWait(s)
                    } else {
                        Action::SemPost(s)
                    }
                }
                5 => {
                    let q = queues[ctx.rng.gen_below(queues.len() as u64) as usize];
                    Action::QueuePut(q, ctx.rng.gen_below(1000))
                }
                6 => {
                    // Only get from a queue that is provably non-empty to
                    // avoid stranding; otherwise put.
                    let q = queues[ctx.rng.gen_below(queues.len() as u64) as usize];
                    waiting_get = true;
                    Action::QueuePut(q, 1)
                }
                7 if barriers_left > 0 => {
                    barriers_left -= 1;
                    Action::BarrierWait(barrier)
                }
                8 => Action::Yield,
                _ => Action::CountOps(1),
            }
        }),
    )
}

fn build_chaos(k: &mut Kernel, threads: usize, steps: u32, barrier_waits: u32) -> AppSpec {
    let mutexes: Vec<_> = (0..3).map(|_| k.new_mutex()).collect();
    let sems: Vec<_> = (0..3).map(|_| k.new_sem(100)).collect(); // generous initial counts
    let queues: Vec<_> = (0..3).map(|_| k.new_queue(10_000)).collect();
    let barrier = k.new_barrier(threads);
    AppSpec::new(
        "chaos",
        (0..threads)
            .map(|i| {
                chaotic_thread(
                    format!("chaos{i}"),
                    steps,
                    mutexes.clone(),
                    sems.clone(),
                    queues.clone(),
                    barrier,
                    barrier_waits,
                )
            })
            .collect(),
    )
}

fn run_chaos(kind: Sched, seed: u64) {
    let mut sim = Simulation::new(Machine::Flat(4), kind, seed);
    let spec = build_chaos(sim.kernel_mut(), 12, 150, 4);
    let app = sim.spawn_app(spec);
    let done = sim.run_to_completion(Dur::secs(300));
    assert!(done, "{kind:?} seed {seed}: chaos app hung");
    assert_eq!(
        sim.kernel().app(app).live,
        0,
        "{kind:?} seed {seed}: threads left behind"
    );
    // Work conservation sanity: total runtime ≤ 4 cores × elapsed.
    let total: f64 = sim.app_cpu_time(app).as_secs_f64();
    let cap = 4.0 * sim.kernel().now().as_secs_f64();
    assert!(total <= cap + 1e-9, "{kind:?}: {total} > {cap}");
}

#[test]
fn chaos_under_cfs() {
    for seed in [1, 7, 1234] {
        run_chaos(Sched::Cfs, seed);
    }
}

#[test]
fn chaos_under_ule() {
    for seed in [1, 7, 1234] {
        run_chaos(Sched::Ule, seed);
    }
}

#[test]
fn chaos_is_deterministic_per_scheduler() {
    let digest = |kind, seed| {
        let mut sim = Simulation::new(Machine::Flat(4), kind, seed);
        let spec = build_chaos(sim.kernel_mut(), 8, 80, 2);
        sim.spawn_app(spec);
        sim.run_to_completion(Dur::secs(120));
        sim.kernel().decision_digest()
    };
    for kind in Sched::BOTH {
        assert_eq!(digest(kind, 99), digest(kind, 99));
    }
}
