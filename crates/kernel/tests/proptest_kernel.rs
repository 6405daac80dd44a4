//! Property tests of the simulated kernel: conservation of work and
//! determinism under randomized workloads, every kernel under strict
//! SchedSan.

use kernel::{from_fn, Action, AppSpec, CheckMode, Kernel, SimConfig, SimpleRR, ThreadSpec};
use proptest::prelude::*;
use simcore::{Dur, Time};
use topology::Topology;

fn mk_kernel(topo: Topology, mut cfg: SimConfig) -> Kernel {
    cfg.check = CheckMode::Strict;
    let sched = Box::new(SimpleRR::new(&topo));
    Kernel::new(topo, cfg, sched)
}

/// Build a randomized run/sleep workload from a spec vector.
fn random_app(spec: &[(u16, u16, u16)]) -> AppSpec {
    AppSpec::new(
        "random",
        spec.iter()
            .enumerate()
            .map(|(i, &(run_us, sleep_us, reps))| {
                let mut left = reps as u32 + 1;
                let mut phase = false;
                ThreadSpec::new(
                    format!("r{i}"),
                    from_fn(move |_ctx| {
                        phase = !phase;
                        if phase {
                            Action::Run(Dur::micros(run_us as u64 + 1))
                        } else {
                            if left == 0 {
                                return Action::Exit;
                            }
                            left -= 1;
                            Action::Sleep(Dur::micros(sleep_us as u64 + 1))
                        }
                    }),
                )
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Work conservation: total CPU work performed never exceeds
    /// cores × elapsed time, and equals the work demanded when the app
    /// completes on an un-contended machine.
    #[test]
    fn work_conservation(spec in prop::collection::vec((1u16..2000, 1u16..2000, 1u16..20), 1..12)) {
        let mut k = mk_kernel(Topology::flat(2), SimConfig::frictionless(1));
        let app = k.queue_app(Time::ZERO, random_app(&spec));
        let done = k.run_until_apps_done(Time::ZERO + Dur::secs(60));
        prop_assert!(done, "random app must terminate");
        let total_work: u64 = k
            .app_tasks(app)
            .iter()
            .map(|&t| k.task_runtime(t).as_nanos())
            .sum();
        // Each thread alternates Run/Sleep and exits at the sleep step once
        // its budget drains: it executes `reps + 2` run segments.
        let demanded: u64 = spec
            .iter()
            .map(|&(r, _s, reps)| (r as u64 + 1) * 1000 * (reps as u64 + 2))
            .sum();
        prop_assert_eq!(total_work, demanded, "work performed == work demanded");
        let capacity = 2 * k.now().as_nanos();
        prop_assert!(total_work <= capacity, "can't do more work than 2 cores provide");
    }

    /// Determinism: the same randomized workload with the same seed yields
    /// the same decision digest.
    #[test]
    fn deterministic_digest(spec in prop::collection::vec((1u16..500, 1u16..500, 1u16..10), 1..8),
                            seed: u64) {
        let run = |seed| {
            let mut k = mk_kernel(Topology::flat(2), SimConfig::with_seed(seed));
            k.queue_app(Time::ZERO, random_app(&spec));
            k.run_until(Time::ZERO + Dur::millis(200));
            k.decision_digest()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Queued-task accounting is consistent: the scheduler's per-cpu counts
    /// sum to the number of runnable/running tasks.
    #[test]
    fn queue_accounting(spec in prop::collection::vec((1u16..3000, 1u16..300, 1u16..10), 1..16),
                        sample_ms in 1u64..100) {
        let mut k = mk_kernel(Topology::flat(4), SimConfig::frictionless(1));
        let app = k.queue_app(Time::ZERO, random_app(&spec));
        k.run_until(Time::ZERO + Dur::millis(sample_ms));
        let queued: usize = (0..4).map(|c| k.nr_queued(topology::CpuId(c))).sum();
        let active = k
            .app_tasks(app)
            .iter()
            .filter(|&&t| k.task(t).is_active())
            .count();
        prop_assert_eq!(queued, active, "scheduler accounting must match task states");
    }
}
