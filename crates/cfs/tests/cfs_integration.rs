//! CFS integration tests: run the class under the simulated kernel and
//! check the §2.1 properties (fairness, cgroup fairness, no starvation,
//! wakeup preemption, load balancing).

use cfs::{params::CfsParams, Cfs};
use kernel::{cpu_hog, spinner, Action, AppSpec, CheckMode, Kernel, SimConfig, ThreadSpec};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};

/// The frictionless machine under strict SchedSan.
fn strict_cfg() -> SimConfig {
    SimConfig {
        check: CheckMode::Strict,
        ..SimConfig::frictionless(7)
    }
}

fn cfs_kernel(topo: Topology) -> Kernel {
    let sched = Box::new(Cfs::new(&topo));
    Kernel::new(topo, strict_cfg(), sched)
}

#[test]
fn two_equal_hogs_share_fairly() {
    let mut k = cfs_kernel(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "pair",
            vec![
                ThreadSpec::new("a", cpu_hog(Dur::secs(2), Dur::millis(20))),
                ThreadSpec::new("b", cpu_hog(Dur::secs(2), Dur::millis(20))),
            ],
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(1));
    let tids = k.app_tasks(app);
    let ra = k.task_runtime(tids[0]).as_secs_f64();
    let rb = k.task_runtime(tids[1]).as_secs_f64();
    assert!((ra - rb).abs() < 0.10, "unfair split: {ra:.3} vs {rb:.3}");
    assert!((ra + rb - 1.0).abs() < 0.05, "core not saturated");
}

#[test]
fn nice_levels_bias_cpu_shares() {
    let mut k = cfs_kernel(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "prio",
            vec![
                ThreadSpec::new("fav", cpu_hog(Dur::secs(5), Dur::millis(20))).nice(-5),
                ThreadSpec::new("unfav", cpu_hog(Dur::secs(5), Dur::millis(20))).nice(5),
            ],
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(2));
    let tids = k.app_tasks(app);
    let fav = k.task_runtime(tids[0]).as_secs_f64();
    let unfav = k.task_runtime(tids[1]).as_secs_f64();
    // weight(-5)/weight(5) = 3121/335 ≈ 9.3; shares should be heavily skewed.
    assert!(
        fav / unfav > 4.0,
        "nice -5 should dominate nice 5: {fav:.3} vs {unfav:.3}"
    );
}

#[test]
fn cgroups_make_fairness_per_application() {
    // One single-threaded app vs one 4-threaded app on one core: with
    // cgroups each *application* gets ~50% (the paper's fibo/sysbench
    // observation in Figure 1a).
    let mut k = cfs_kernel(Topology::single_core());
    let solo = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "solo",
            vec![ThreadSpec::new(
                "solo",
                cpu_hog(Dur::secs(5), Dur::millis(20)),
            )],
        ),
    );
    let many = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "many",
            (0..4)
                .map(|i| ThreadSpec::new(format!("m{i}"), cpu_hog(Dur::secs(5), Dur::millis(20))))
                .collect(),
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(2));
    let solo_rt: f64 = k
        .app_tasks(solo)
        .iter()
        .map(|&t| k.task_runtime(t).as_secs_f64())
        .sum();
    let many_rt: f64 = k
        .app_tasks(many)
        .iter()
        .map(|&t| k.task_runtime(t).as_secs_f64())
        .sum();
    let share = solo_rt / (solo_rt + many_rt);
    assert!(
        (0.40..=0.60).contains(&share),
        "single-thread app should get ~half the core, got {share:.2}"
    );
}

#[test]
fn without_cgroups_fairness_is_per_thread() {
    let topo = Topology::single_core();
    let p = CfsParams {
        cgroups: false,
        ..Default::default()
    };
    let sched = Box::new(Cfs::with_params(&topo, p));
    let mut k = Kernel::new(topo, strict_cfg(), sched);
    let solo = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "solo",
            vec![ThreadSpec::new(
                "solo",
                cpu_hog(Dur::secs(5), Dur::millis(20)),
            )],
        ),
    );
    let many = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "many",
            (0..4)
                .map(|i| ThreadSpec::new(format!("m{i}"), cpu_hog(Dur::secs(5), Dur::millis(20))))
                .collect(),
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(2));
    let solo_rt: f64 = k
        .app_tasks(solo)
        .iter()
        .map(|&t| k.task_runtime(t).as_secs_f64())
        .sum();
    let many_rt: f64 = k
        .app_tasks(many)
        .iter()
        .map(|&t| k.task_runtime(t).as_secs_f64())
        .sum();
    let share = solo_rt / (solo_rt + many_rt);
    assert!(
        (0.13..=0.27).contains(&share),
        "pre-2.6.38 behaviour: 1 of 5 equal threads ≈ 20%, got {share:.2}"
    );
}

#[test]
fn cfs_never_starves_a_hog_under_sleepers() {
    // 20 mostly-sleeping threads + 1 hog on one core: under CFS the hog
    // keeps making progress (the anti-starvation contrast to ULE in §5.1).
    let mut k = cfs_kernel(Topology::single_core());
    let sleepers = (0..20)
        .map(|i| {
            ThreadSpec::new(
                format!("sleepy{i}"),
                kernel::from_fn(move |_ctx| Action::Run(Dur::micros(300))),
            )
            .with_history(Dur::ZERO, Dur::secs(2))
        }) // keep builder form
        .collect::<Vec<_>>();
    // Make them sleepers: run briefly then sleep.
    let sleepers: Vec<ThreadSpec> = sleepers
        .into_iter()
        .enumerate()
        .map(|(i, _)| {
            ThreadSpec::new(
                format!("sleepy{i}"),
                kernel::from_fn(move |_ctx| {
                    // 0.3ms run, 1ms sleep, forever.
                    if i % 2 == 0 {
                        Action::Run(Dur::micros(300))
                    } else {
                        Action::Sleep(Dur::millis(1))
                    }
                }),
            )
        })
        .collect();
    let _sleep_app = k.queue_app(Time::ZERO, AppSpec::new("sleepers", sleepers));
    let hog_app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hog",
            vec![ThreadSpec::new(
                "hog",
                cpu_hog(Dur::secs(10), Dur::millis(10)),
            )],
        ),
    );
    k.run_until(Time::ZERO + Dur::secs(2));
    let hog_rt = k.task_runtime(k.app_tasks(hog_app)[0]);
    assert!(
        hog_rt > Dur::millis(300),
        "hog starved under CFS: only {hog_rt}"
    );
}

#[test]
fn waking_sleeper_preempts_quickly() {
    // A hog runs; a sleeper wakes after 100ms. With the sleeper-first
    // placement + 1ms wakeup granularity, the sleeper should run almost
    // immediately rather than waiting out the hog's slice.
    let mut k = cfs_kernel(Topology::single_core());
    let _hog = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hog",
            vec![ThreadSpec::new(
                "hog",
                cpu_hog(Dur::secs(5), Dur::millis(40)),
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
            )],
        ),
    );
    k.run_until(Time::ZERO + Dur::millis(400));
    assert!(k.app(napper).finished.is_some(), "napper must finish");
    let latency = k.app(napper).avg_latency().expect("one sample");
    assert!(
        latency <= Dur::millis(2),
        "wakeup-preemption latency too high: {latency}"
    );
}

#[test]
fn forked_threads_spread_across_cores() {
    let mut k = cfs_kernel(Topology::flat(4));
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "par",
            (0..4)
                .map(|i| {
                    ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::millis(100), Dur::millis(10)))
                })
                .collect(),
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(2)));
    let elapsed = k.app(app).elapsed().unwrap();
    assert!(
        elapsed < Dur::millis(140),
        "4 threads on 4 cores should run in parallel, took {elapsed}"
    );
}

#[test]
fn unpinned_spinners_rebalance_quickly() {
    // Mini Figure 6: 64 spinners pinned to core 0 of an 8-core machine,
    // unpinned at 100ms. CFS should spread them within a few hundred ms
    // (bulk migrations of up to 32 tasks).
    let topo = Topology::flat(8);
    let mut k = cfs_kernel(topo);
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "spin",
            (0..64)
                .map(|i| {
                    ThreadSpec::new(format!("s{i}"), spinner(Dur::millis(4))).pinned(vec![CpuId(0)])
                })
                .collect(),
        ),
    );
    k.queue_unpin(Time::ZERO + Dur::millis(100), app);
    k.run_until(Time::ZERO + Dur::millis(600));
    let counts: Vec<usize> = (0..8).map(|c| k.nr_queued(CpuId(c))).collect();
    let total: usize = counts.iter().sum();
    assert_eq!(total, 64, "no spinner lost: {counts:?}");
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(
        max - min <= 4,
        "CFS should roughly even out spinners quickly: {counts:?}"
    );
}

#[test]
fn numa_imbalance_tolerated() {
    // Paper §6.1: "CFS never achieves perfect load balance" across NUMA
    // nodes because imbalances below 25% are tolerated. With 66 spinners on
    // a 32-core 4-node machine (perfect would be 16.5 per node), node
    // counts may differ but within the tolerance band.
    let topo = Topology::opteron_6172();
    let mut k = cfs_kernel(topo);
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "spin",
            (0..66)
                .map(|i| {
                    ThreadSpec::new(format!("s{i}"), spinner(Dur::millis(4))).pinned(vec![CpuId(0)])
                })
                .collect(),
        ),
    );
    k.queue_unpin(Time::ZERO + Dur::millis(50), app);
    k.run_until(Time::ZERO + Dur::secs(2));
    let total: usize = (0..32).map(|c| k.nr_queued(CpuId(c))).sum();
    assert_eq!(total, 66);
    // Every node must have received a decent share of the work.
    for n in 0..4 {
        let node_count: usize = k
            .topology()
            .node(n)
            .iter()
            .map(|c| k.nr_queued(*c))
            .sum::<usize>();
        assert!(
            node_count >= 8,
            "node {n} left nearly idle: {node_count}/66"
        );
    }
}
