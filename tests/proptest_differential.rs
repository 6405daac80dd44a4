//! Differential property fuzzing: the same randomized workload runs under
//! every registered scheduling class (CFS, ULE, EEVDF, the reference
//! round-robin, and both scx example policies) with SchedSan strict
//! checking on. Whatever the scheduler, (a) no invariant is ever violated,
//! (b) the workload terminates, and (c) the total CPU work performed is
//! identical — schedulers decide *when and where* work runs, never *how
//! much* of it there is.

use kernel::{from_fn, Action, AppSpec, CheckMode, FaultPlan, Kernel, SimConfig, ThreadSpec};
use proptest::prelude::*;
use scenario::Sched;
use simcore::{Dur, Time};
use topology::Topology;

/// Alternating run/sleep threads from a spec vector (same shape as the
/// kernel-level property tests).
fn random_app(spec: &[(u16, u16, u8)]) -> AppSpec {
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

/// Total work each thread demands, in nanoseconds (`reps + 2` run
/// segments; see `random_app`).
fn demanded(spec: &[(u16, u16, u8)]) -> u64 {
    spec.iter()
        .map(|&(r, _s, reps)| (r as u64 + 1) * 1000 * (reps as u64 + 2))
        .sum()
}

fn run_under(
    sched: Sched,
    spec: &[(u16, u16, u8)],
    seed: u64,
    faults: bool,
) -> Result<u64, String> {
    let topo = Topology::flat(2);
    let mut cfg = SimConfig::frictionless(seed);
    cfg.check = CheckMode::Strict;
    if faults {
        cfg.faults = FaultPlan {
            spurious_wake_period: Some(Dur::micros(400)),
            tick_jitter: Dur::micros(150),
            missed_tick_pct: 10,
            hotplug_period: Some(Dur::millis(7)),
            hotplug_down: Dur::millis(2),
        };
    }
    let mut k = Kernel::new(topo.clone(), cfg, scenario::make_class(&topo, sched, seed));
    let app = k.queue_app(Time::ZERO, random_app(spec));
    let done = k
        .try_run_until_apps_done(Time::ZERO + Dur::secs(120))
        .map_err(|e| format!("invariant violated: {e}\n{}", k.crash_report(e.kind(), &e)))?;
    if !done {
        return Err(format!("workload hung under {}", k.sched_name()));
    }
    Ok(k.app_tasks(app)
        .iter()
        .map(|&t| k.task_runtime(t).as_nanos())
        .sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean machine: every registered scheduler performs exactly the
    /// demanded work, under strict invariant checking (which routes into
    /// each class's own `audit` — e.g. EEVDF's lag-conservation check).
    #[test]
    fn schedulers_agree_on_total_work(
        spec in prop::collection::vec((1u16..1500, 1u16..1500, 1u8..12), 1..10),
        seed: u64,
    ) {
        let want = demanded(&spec);
        for sched in Sched::ALL {
            let name = sched.flag_name();
            let got = run_under(sched, &spec, seed, false)
                .map_err(|e| format!("[{name}] {e}"))?;
            prop_assert_eq!(got, want, "{} performed wrong amount of work", name);
        }
    }

    /// Faulty machine: spurious wakeups, tick jitter, and hotplug may
    /// reorder and delay work but never create, destroy, or corrupt it.
    #[test]
    fn fault_injection_preserves_work(
        spec in prop::collection::vec((1u16..1000, 1u16..1000, 1u8..8), 1..6),
        seed: u64,
    ) {
        let want = demanded(&spec);
        for sched in Sched::ALL {
            let name = sched.flag_name();
            let got = run_under(sched, &spec, seed, true)
                .map_err(|e| format!("[{name}] {e}"))?;
            prop_assert_eq!(got, want, "{} lost or invented work under faults", name);
        }
    }
}
