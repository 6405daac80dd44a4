//! Hotplug × pinned-task edge cases across every registered scheduler.
//!
//! Two contracts from the fallible-placement rework:
//!
//! * The fault injector never offlines a CPU a live task is pinned to, so
//!   a strict-mode run with pinned tasks under a hotplug storm stays
//!   clean for every scheduler.
//! * When a task *does* end up pinned to an offline CPU (it spawned while
//!   its only allowed CPU was hotplugged out), every scheduler surfaces
//!   the failure as a structured [`SimError::NoPlaceableCpu`] with a
//!   crash bundle — never a panic.
//!
//! Plus the large-machine audit contract: strict checking on a 256-core
//! box, with its incremental passes and periodic full sweeps, observes,
//! it never steers — digests are identical with checks off and on.

use kernel::{cpu_hog, AppSpec, CheckMode, FaultPlan, SimError, ThreadSpec};
use scenario::{make_kernel, EngineOpts, Scenario, Sched};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};

/// Pinned tasks plus a hotplug/spurious-wake storm: the injector must
/// route around the pinned CPUs, and strict mode verifies no scheduler
/// corrupts state while draining the CPUs it may take down.
#[test]
fn hotplug_storm_with_pinned_tasks_is_clean_for_every_scheduler() {
    for sched in Sched::ALL {
        let topo = Topology::flat(8);
        let faults = FaultPlan {
            spurious_wake_period: Some(Dur::micros(400)),
            hotplug_period: Some(Dur::millis(2)),
            hotplug_down: Dur::millis(1),
            ..FaultPlan::default()
        };
        let mut k = make_kernel(&topo, sched, 7, CheckMode::Strict, faults);
        let mut threads: Vec<ThreadSpec> = (0..4)
            .map(|i| {
                ThreadSpec::new(format!("pin{i}"), cpu_hog(Dur::millis(30), Dur::millis(1)))
                    .pinned(vec![CpuId(1), CpuId(2)])
            })
            .collect();
        threads.extend((0..8).map(|i| {
            ThreadSpec::new(format!("free{i}"), cpu_hog(Dur::millis(30), Dur::millis(1)))
        }));
        // Sleepers give the spurious-wake injector targets.
        threads.extend((0..3).map(|i| {
            let mut left = 40u32;
            let mut run = true;
            ThreadSpec::new(
                format!("s{i}"),
                kernel::from_fn(move |_ctx| {
                    run = !run;
                    if run {
                        kernel::Action::Run(Dur::micros(300))
                    } else {
                        if left == 0 {
                            return kernel::Action::Exit;
                        }
                        left -= 1;
                        kernel::Action::Sleep(Dur::micros(700))
                    }
                }),
            )
        }));
        k.queue_app(Time::ZERO, AppSpec::new("mix", threads));
        let done = k
            .try_run_until_apps_done(Time::ZERO + Dur::secs(20))
            .unwrap_or_else(|e| panic!("[{}] hotplug × pinned must stay clean: {e}", sched.name()));
        assert!(done, "[{}] workload finishes despite hotplug", sched.name());
        assert!(
            k.counters().hotplug_events > 0,
            "[{}] hotplug fired",
            sched.name()
        );
    }
}

/// A task spawns pinned to the one CPU the injector already took down:
/// placement must fail as a structured error carrying the affinity mask,
/// and the crash bundle must be renderable — for every scheduler.
#[test]
fn task_pinned_to_offline_cpu_yields_structured_error_and_crash_bundle() {
    for sched in Sched::ALL {
        // flat(2): CPU 0 is never a hotplug victim, so the injector's
        // only candidate is CPU 1 — the offline CPU is deterministic
        // even though the victim draw is random.
        let topo = Topology::flat(2);
        let faults = FaultPlan {
            hotplug_period: Some(Dur::millis(100)),
            hotplug_down: Dur::secs(10),
            ..FaultPlan::default()
        };
        let mut k = make_kernel(&topo, sched, 42, CheckMode::Strict, faults);
        // Keep a task running so the kernel has work while CPU 1 dies.
        k.queue_app(
            Time::ZERO,
            AppSpec::new(
                "bg",
                vec![ThreadSpec::new("bg", cpu_hog(Dur::secs(2), Dur::millis(1)))],
            ),
        );
        // Spawns at t=1s, pinned to CPU 1 — offline since t=100ms.
        k.queue_app(
            Time::ZERO + Dur::secs(1),
            AppSpec::new(
                "doomed",
                vec![
                    ThreadSpec::new("doomed", cpu_hog(Dur::millis(5), Dur::millis(1)))
                        .pinned(vec![CpuId(1)]),
                ],
            ),
        );
        let err = k
            .try_run_until(Time::ZERO + Dur::secs(3))
            .expect_err("placement of the doomed task must fail");
        assert!(
            matches!(err, SimError::NoPlaceableCpu { .. }),
            "[{}] expected NoPlaceableCpu, got: {err}",
            sched.name()
        );
        let msg = err.to_string();
        assert!(
            msg.contains("no online CPU"),
            "[{}] error names the failure: {msg}",
            sched.name()
        );
        let report = k.crash_report(&err);
        assert!(report.contains("SchedSan crash report"));
        assert!(report.contains(&msg), "report repeats the error");
        assert!(
            report.contains("OFFLINE"),
            "[{}] report shows the dead CPU",
            sched.name()
        );
        assert!(
            report.contains("doomed"),
            "[{}] report lists the unplaceable task",
            sched.name()
        );
    }
}

/// Strict auditing on a 256-core machine observes, it never steers: the
/// decision digest is byte-identical with checks off and on, for every
/// scheduler.
#[test]
fn strict_audit_preserves_digest_at_256_cores() {
    let src = r#"
name = "audit-256"
[topology]
preset = "numa-256"
[[phase]]
kind = "cpu-hogs"
count = { base = 300, min = 300 }
work = { base_s = 0.1, scaled = false }
[run]
horizon = { base_s = 30.0, scaled = false }
"#;
    let sc = Scenario::from_toml(src).unwrap();
    for sched in Sched::ALL {
        let off = scenario::run_sched(
            &sc,
            sched,
            &EngineOpts {
                check: CheckMode::Off,
                ..EngineOpts::default()
            },
        )
        .expect("runs clean");
        let strict = scenario::run_sched(
            &sc,
            sched,
            &EngineOpts {
                check: CheckMode::Strict,
                ..EngineOpts::default()
            },
        )
        .expect("strict run stays clean");
        assert_eq!(
            off.run.digest,
            strict.run.digest,
            "[{}] strict audits must not perturb scheduling decisions",
            sched.name()
        );
        assert!(off.run.all_apps_done, "[{}] hogs finish", sched.name());
    }
}
