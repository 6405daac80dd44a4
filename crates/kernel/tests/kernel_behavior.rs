//! Integration tests of the simulated kernel, using the reference
//! round-robin scheduling class (so they are independent of CFS/ULE), every
//! kernel under strict SchedSan.

use kernel::{
    cpu_hog, from_fn, spinner, Action, AppSpec, CheckMode, Kernel, Script, SimConfig, SimpleRR,
    ThreadSpec,
};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};

fn mk_kernel(topo: Topology, mut cfg: SimConfig) -> Kernel {
    cfg.check = CheckMode::Strict;
    let sched = Box::new(SimpleRR::new(&topo));
    Kernel::new(topo, cfg, sched)
}

fn frictionless(topo: Topology) -> Kernel {
    mk_kernel(topo, SimConfig::frictionless(1))
}

#[test]
fn single_hog_runs_to_completion() {
    let mut k = frictionless(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hog",
            vec![ThreadSpec::new(
                "hog",
                cpu_hog(Dur::millis(50), Dur::millis(5)),
            )],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(10)));
    let stats = k.app(app);
    let elapsed = stats.elapsed().expect("finished");
    assert_eq!(elapsed, Dur::millis(50), "frictionless run is exact");
}

#[test]
fn two_hogs_share_one_core_fairly() {
    let mut k = frictionless(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hogs",
            vec![
                ThreadSpec::new("a", cpu_hog(Dur::millis(100), Dur::millis(50))),
                ThreadSpec::new("b", cpu_hog(Dur::millis(100), Dur::millis(50))),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(10)));
    // Serial work is 200ms; round robin means neither finishes much before
    // the other, so the app takes the full 200ms.
    assert_eq!(k.app(app).elapsed().unwrap(), Dur::millis(200));
    // Round-robin slices of 10ms should have preempted the 50ms chunks.
    assert!(k.counters().preemptions > 0, "expected RR preemptions");
}

#[test]
fn sleep_then_run_takes_wall_time() {
    let mut k = frictionless(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "sleeper",
            vec![ThreadSpec::new(
                "s",
                Box::new(Script::new(vec![
                    Action::Run(Dur::millis(1)),
                    Action::Sleep(Dur::millis(5)),
                    Action::Run(Dur::millis(1)),
                ])),
            )],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    assert_eq!(k.app(app).elapsed().unwrap(), Dur::millis(7));
}

#[test]
fn sleeping_thread_frees_the_core() {
    // One sleeper + one hog on one core: hog runs while sleeper sleeps, so
    // total elapsed ≈ max(hog work, sleeper pattern), not the sum.
    let mut k = frictionless(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "mix",
            vec![
                ThreadSpec::new(
                    "sleeper",
                    Box::new(Script::new(vec![
                        Action::Sleep(Dur::millis(50)),
                        Action::Run(Dur::millis(1)),
                    ])),
                ),
                ThreadSpec::new("hog", cpu_hog(Dur::millis(40), Dur::millis(5))),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    let elapsed = k.app(app).elapsed().unwrap();
    assert!(
        elapsed <= Dur::millis(60),
        "hog should run during the sleep, got {elapsed}"
    );
}

#[test]
fn mutex_serialises_critical_sections() {
    let topo = Topology::flat(2);
    let mut k = frictionless(topo);
    let m = k.new_mutex();
    let worker = |mutex| {
        Box::new(Script::new(vec![
            Action::MutexLock(mutex),
            Action::Run(Dur::millis(10)),
            Action::MutexUnlock(mutex),
        ]))
    };
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "locked",
            vec![
                ThreadSpec::new("w1", worker(m)),
                ThreadSpec::new("w2", worker(m)),
                ThreadSpec::new("w3", worker(m)),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    // Three 10ms critical sections must serialise even on 2 CPUs.
    assert_eq!(k.app(app).elapsed().unwrap(), Dur::millis(30));
}

#[test]
fn queue_producer_consumer() {
    let mut k = frictionless(Topology::flat(2));
    let q = k.new_queue(4);
    let producer = from_fn({
        let mut sent = 0u64;
        move |_ctx| {
            if sent == 20 {
                return Action::Exit;
            }
            sent += 1;
            Action::QueuePut(q, sent)
        }
    });
    let consumer = from_fn({
        let mut got = 0u64;
        let mut asked = false;
        move |ctx| {
            if let Some(v) = ctx.value {
                assert_eq!(v, got + 1, "FIFO order");
                got += 1;
                asked = false;
                if got == 20 {
                    return Action::Exit;
                }
            }
            if asked {
                panic!("QueueGet returned without a value");
            }
            asked = true;
            Action::QueueGet(q)
        }
    });
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "pipe",
            vec![
                ThreadSpec::new("prod", producer),
                ThreadSpec::new("cons", consumer),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    assert!(k.app(app).finished.is_some());
}

#[test]
fn barrier_joins_all_threads() {
    let mut k = frictionless(Topology::flat(4));
    let b = k.new_barrier(4);
    let threads = (0..4)
        .map(|i| {
            ThreadSpec::new(
                format!("t{i}"),
                Box::new(Script::new(vec![
                    Action::Run(Dur::millis(1 + i as u64 * 5)), // staggered arrival
                    Action::BarrierWait(b),
                    Action::Run(Dur::millis(1)),
                ])),
            )
        })
        .collect();
    let app = k.queue_app(Time::ZERO, AppSpec::new("bar", threads));
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    // Slowest arrival is at 16ms; everyone then runs 1ms more.
    assert_eq!(k.app(app).elapsed().unwrap(), Dur::millis(17));
}

#[test]
fn spin_barrier_releases_spinners_without_sleep() {
    let mut k = frictionless(Topology::flat(2));
    let b = k.new_barrier(2);
    let spin_then = Box::new(Script::new(vec![
        Action::BarrierWaitSpin(b, Dur::millis(100)),
        Action::Run(Dur::millis(1)),
    ]));
    let late = Box::new(Script::new(vec![
        Action::Run(Dur::millis(10)),
        Action::BarrierWait(b),
        Action::Run(Dur::millis(1)),
    ]));
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "spin",
            vec![
                ThreadSpec::new("spinner", spin_then),
                ThreadSpec::new("late", late),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    // Spinner burns CPU for 10ms (within its 100ms budget), is released,
    // then both run 1ms: finish at 11ms.
    assert_eq!(k.app(app).elapsed().unwrap(), Dur::millis(11));
    // The spinner's spin time counts as runtime.
    let tids = k.app_tasks(app);
    let spinner_rt = k.task_runtime(tids[0]);
    assert!(
        spinner_rt >= Dur::millis(10),
        "spin burns CPU, got {spinner_rt}"
    );
}

#[test]
fn spin_barrier_times_out_into_sleep() {
    let mut k = frictionless(Topology::flat(2));
    let b = k.new_barrier(2);
    let spin_then = Box::new(Script::new(vec![
        Action::BarrierWaitSpin(b, Dur::millis(5)),
        Action::Run(Dur::millis(1)),
    ]));
    let late = Box::new(Script::new(vec![
        Action::Run(Dur::millis(50)),
        Action::BarrierWait(b),
        Action::Run(Dur::millis(1)),
    ]));
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "spin-timeout",
            vec![
                ThreadSpec::new("spinner", spin_then),
                ThreadSpec::new("late", late),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    assert_eq!(k.app(app).elapsed().unwrap(), Dur::millis(51));
    // The spinner burned only its 5ms budget, then slept.
    let tids = k.app_tasks(app);
    let spinner_rt = k.task_runtime(tids[0]);
    assert_eq!(spinner_rt, Dur::millis(6)); // 5ms spin + 1ms run
}

#[test]
fn idle_stealing_spreads_load() {
    let mut k = frictionless(Topology::flat(4));
    let threads = (0..4)
        .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::millis(100), Dur::millis(10))))
        .collect();
    let app = k.queue_app(Time::ZERO, AppSpec::new("hogs", threads));
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(10)));
    // Least-loaded placement should spread 4 hogs over 4 cores: total time
    // ≈ 100ms, far below the serial 400ms.
    let elapsed = k.app(app).elapsed().unwrap();
    assert!(elapsed <= Dur::millis(150), "not parallel: {elapsed}");
}

#[test]
fn pinned_tasks_stay_until_unpinned() {
    let mut k = frictionless(Topology::flat(2));
    let threads = (0..2)
        .map(|i| ThreadSpec::new(format!("s{i}"), spinner(Dur::millis(5))).pinned(vec![CpuId(0)]))
        .collect();
    let app = k.queue_app(Time::ZERO, AppSpec::new("pinned", threads));
    k.run_until(Time::ZERO + Dur::millis(100));
    assert_eq!(k.nr_queued(CpuId(0)), 2, "both pinned to cpu0");
    assert_eq!(k.nr_queued(CpuId(1)), 0);

    k.queue_unpin(k.now(), app);
    k.run_until(k.now() + Dur::millis(100));
    assert_eq!(k.nr_queued(CpuId(0)), 1, "one stolen away after unpin");
    assert_eq!(k.nr_queued(CpuId(1)), 1);
}

#[test]
fn ops_and_latency_recorded() {
    let mut k = frictionless(Topology::single_core());
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "db",
            vec![ThreadSpec::new(
                "w",
                Box::new(Script::new(vec![
                    Action::Run(Dur::millis(2)),
                    Action::CountOps(3),
                    Action::RecordLatency(Dur::millis(10)),
                    Action::RecordLatency(Dur::millis(20)),
                ])),
            )],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    let a = k.app(app);
    assert_eq!(a.ops, 3);
    assert_eq!(a.avg_latency(), Some(Dur::millis(15)));
    assert_eq!(a.lat_max, Dur::millis(20));
}

#[test]
fn spawned_children_join_the_app() {
    let mut k = frictionless(Topology::flat(2));
    let master = from_fn({
        let mut spawned = 0;
        move |_ctx| {
            if spawned < 3 {
                spawned += 1;
                Action::Spawn(Box::new(ThreadSpec::new(
                    format!("child{spawned}"),
                    cpu_hog(Dur::millis(5), Dur::millis(5)),
                )))
            } else {
                Action::Exit
            }
        }
    });
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new("forky", vec![ThreadSpec::new("master", master)]),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    assert_eq!(k.app(app).spawned, 4);
    assert_eq!(k.app_tasks(app).len(), 4);
}

#[test]
fn deterministic_digest_for_same_seed() {
    let run = |seed| {
        let topo = Topology::flat(4);
        let mut k = mk_kernel(topo, SimConfig::with_seed(seed));
        let threads = (0..8)
            .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::millis(37), Dur::millis(7))))
            .collect();
        k.queue_app(Time::ZERO, AppSpec::new("hogs", threads));
        assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(10)));
        k.decision_digest()
    };
    assert_eq!(run(123), run(123), "same seed, same decisions");
}

#[test]
fn overhead_is_charged_for_context_switches() {
    let topo = Topology::single_core();
    let mut cfg = SimConfig::frictionless(1);
    cfg.ctx_switch_cost = Dur::micros(100);
    let mut k = mk_kernel(topo, cfg);
    let app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "two",
            vec![
                ThreadSpec::new("a", cpu_hog(Dur::millis(50), Dur::millis(50))),
                ThreadSpec::new("b", cpu_hog(Dur::millis(50), Dur::millis(50))),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(10)));
    // Work is 100ms; context switches (every 10ms slice) add measurable time.
    let elapsed = k.app(app).elapsed().unwrap();
    assert!(elapsed > Dur::millis(100), "overhead missing: {elapsed}");
    assert!(k.cpu_stats(CpuId(0)).overhead > Dur::ZERO);
}

#[test]
fn staggered_app_start_times() {
    let mut k = frictionless(Topology::single_core());
    let a = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "first",
            vec![ThreadSpec::new(
                "a",
                cpu_hog(Dur::millis(10), Dur::millis(10)),
            )],
        ),
    );
    let b = k.queue_app(
        Time::ZERO + Dur::secs(1),
        AppSpec::new(
            "second",
            vec![ThreadSpec::new(
                "b",
                cpu_hog(Dur::millis(10), Dur::millis(10)),
            )],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(10)));
    assert_eq!(k.app(a).started, Some(Time::ZERO));
    assert_eq!(k.app(b).started, Some(Time::ZERO + Dur::secs(1)));
    assert!(k.app(b).finished.unwrap() > k.app(a).finished.unwrap());
}
