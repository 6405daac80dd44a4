//! SchedGuard integration tests: budgets, the no-progress watchdog, and
//! cooperative cancellation, exercised against the reference round-robin
//! class so they are independent of CFS/ULE.

use kernel::{
    cpu_hog, from_fn, Action, AppSpec, BudgetKind, CancelToken, Kernel, RunBudget, Script,
    SimConfig, SimError, SimpleRR, ThreadSpec,
};
use simcore::{Dur, Time};
use topology::Topology;

fn mk_kernel(topo: Topology, cfg: SimConfig) -> Kernel {
    let sched = Box::new(SimpleRR::new(&topo));
    Kernel::new(topo, cfg, sched)
}

/// A thread that sleeps for zero time forever: every wakeup immediately
/// re-blocks at the same instant, producing an infinite same-time event
/// chain (TimerWake → Resched → dispatch → Sleep(0) → ...). Simulated
/// time never advances — the classic livelock the stall watchdog exists
/// for.
fn zero_sleep_looper() -> ThreadSpec {
    ThreadSpec::new("zero-sleeper", from_fn(|_| Action::Sleep(Dur::ZERO)))
}

#[test]
fn zero_sleep_loop_trips_stall_watchdog() {
    let mut k = mk_kernel(Topology::flat(2), SimConfig::frictionless(1));
    k.set_watchdog(2_000, 0);
    k.queue_app(
        Time::ZERO,
        AppSpec::new("livelock", vec![zero_sleep_looper()]),
    );
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("watchdog must abort the stalled chain");
    match &err {
        SimError::Livelock { detail, window, .. } => {
            assert!(detail.contains("stalled"), "{detail}");
            assert!(!window.is_empty(), "livelock report must carry the window");
            // The stalled chain is made of timer wakes and reschedules.
            assert!(
                window
                    .iter()
                    .any(|l| l.contains("timer-wake") || l.contains("resched")),
                "{window:?}"
            );
        }
        other => panic!("expected Livelock, got {other}"),
    }
    assert!(err.is_supervision());
    // Salvage: the aborted kernel's state is still readable.
    assert!(k.counters().events >= 2_000);
    assert_eq!(k.now(), Time::ZERO, "time never advanced");
}

#[test]
fn yield_forever_trips_pick_loop_guard() {
    // A behavior that yields forever wedges *inside* the pick loop: no
    // events are processed, so the event-level stall watchdog can never
    // fire — this is the guard on the loop itself.
    let mut k = mk_kernel(Topology::single_core(), SimConfig::frictionless(1));
    k.set_watchdog(5_000, 0);
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "spinner",
            vec![ThreadSpec::new("yielder", from_fn(|_| Action::Yield))],
        ),
    );
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("pick-loop guard must abort");
    match err {
        SimError::Livelock { detail, .. } => {
            assert!(detail.contains("pick loop"), "{detail}")
        }
        other => panic!("expected Livelock, got {other}"),
    }
}

#[test]
fn budget_max_events_aborts_and_salvage_is_deterministic() {
    let run = || {
        let mut cfg = SimConfig::frictionless(7);
        cfg.budget = RunBudget {
            max_events: Some(500),
            ..Default::default()
        };
        let mut k = mk_kernel(Topology::flat(2), cfg);
        k.queue_app(
            Time::ZERO,
            AppSpec::new(
                "hogs",
                vec![
                    ThreadSpec::new("a", cpu_hog(Dur::secs(1), Dur::micros(100))),
                    ThreadSpec::new("b", cpu_hog(Dur::secs(1), Dur::micros(100))),
                ],
            ),
        );
        let err = k
            .try_run_until_apps_done(Time::ZERO + Dur::secs(10))
            .expect_err("budget must trip");
        (err, k.counters().events, k.now(), k.decision_digest())
    };
    let (err1, events1, now1, digest1) = run();
    let (err2, events2, now2, digest2) = run();
    match err1 {
        SimError::BudgetExceeded {
            kind: BudgetKind::Events,
            limit: 500,
            ..
        } => {}
        ref other => panic!("expected BudgetExceeded(events), got {other}"),
    }
    // The abort point and everything salvaged at it replay bit-identically.
    assert_eq!(err1, err2);
    assert_eq!(events1, events2);
    assert_eq!(now1, now2);
    assert_eq!(digest1, digest2);
    assert_eq!(events1, 501, "trips on the first event past the limit");
}

#[test]
fn budget_max_sim_time_aborts() {
    let mut cfg = SimConfig::frictionless(7);
    cfg.budget.max_sim_time = Some(Dur::millis(10));
    let mut k = mk_kernel(Topology::single_core(), cfg);
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hog",
            vec![ThreadSpec::new("h", cpu_hog(Dur::secs(1), Dur::millis(1)))],
        ),
    );
    let err = k
        .try_run_until_apps_done(Time::ZERO + Dur::secs(10))
        .expect_err("time budget must trip");
    assert!(
        matches!(
            err,
            SimError::BudgetExceeded {
                kind: BudgetKind::SimTime,
                ..
            }
        ),
        "{err}"
    );
    assert!(k.now() >= Time::ZERO + Dur::millis(10));
}

#[test]
fn budget_max_live_tasks_stops_a_fork_storm() {
    let mut cfg = SimConfig::frictionless(7);
    cfg.budget.max_live_tasks = Some(8);
    let mut k = mk_kernel(Topology::flat(2), cfg);
    // A forker that spawns a long-lived child at every step.
    let forker = from_fn(|_| {
        Action::Spawn(Box::new(
            ThreadSpec::new("child", cpu_hog(Dur::secs(10), Dur::millis(1))).detached(),
        ))
    });
    k.queue_app(
        Time::ZERO,
        AppSpec::new("storm", vec![ThreadSpec::new("forker", forker)]),
    );
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("live-task budget must trip");
    assert!(
        matches!(
            err,
            SimError::BudgetExceeded {
                kind: BudgetKind::LiveTasks,
                limit: 8,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(k.live_tasks(), 9, "aborted on the task past the cap");
}

#[test]
fn cancel_token_aborts_mid_run() {
    let mut k = mk_kernel(Topology::single_core(), SimConfig::frictionless(1));
    let token = CancelToken::new();
    token.cancel();
    k.set_cancel_token(token);
    // Enough events (>4096) to guarantee the amortized poll runs.
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hog",
            vec![ThreadSpec::new("h", cpu_hog(Dur::secs(1), Dur::micros(50)))],
        ),
    );
    let err = k
        .try_run_until_apps_done(Time::ZERO + Dur::secs(10))
        .expect_err("cancelled token must abort");
    assert!(matches!(err, SimError::Cancelled { .. }), "{err}");
    assert!(err.is_supervision());
}

#[test]
fn generous_supervision_leaves_digest_untouched() {
    let run = |budget: RunBudget| {
        let mut cfg = SimConfig::with_seed(3);
        cfg.budget = budget;
        let mut k = mk_kernel(Topology::flat(4), cfg);
        k.queue_app(
            Time::ZERO,
            AppSpec::new(
                "mix",
                vec![
                    ThreadSpec::new("a", cpu_hog(Dur::millis(80), Dur::millis(3))),
                    ThreadSpec::new("b", cpu_hog(Dur::millis(60), Dur::millis(2))),
                    ThreadSpec::new("c", cpu_hog(Dur::millis(40), Dur::millis(1))),
                ],
            ),
        );
        assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(10)));
        (k.decision_digest(), k.counters().events)
    };
    let (unsupervised, ev1) = run(RunBudget::default());
    let (supervised, ev2) = run(RunBudget {
        max_events: Some(u64::MAX / 2),
        max_sim_time: Some(Dur::secs(3600)),
        max_queue_depth: Some(1 << 30),
        max_live_tasks: Some(1 << 20),
    });
    assert_eq!(
        unsupervised, supervised,
        "an active-but-untripped budget must not perturb decisions"
    );
    assert_eq!(ev1, ev2);
}

/// A thread that alternates 200 µs of work with a 2 ms timed sleep.
fn periodic_sleeper() -> ThreadSpec {
    let mut running = false;
    let behavior = from_fn(move |_| {
        running = !running;
        if running {
            Action::Run(Dur::micros(200))
        } else {
            Action::Sleep(Dur::millis(2))
        }
    });
    ThreadSpec::new("sleeper", behavior).detached()
}

#[test]
fn queue_depth_budget_trips_at_a_pinned_event() {
    // A forker adds one periodic sleeper per millisecond, so the pending
    // timer wakes grow by one per millisecond until the budget trips. The
    // trip point is pinned: a queue change that counts depth differently
    // moves it.
    let mut cfg = SimConfig::frictionless(7);
    cfg.budget.max_queue_depth = Some(8);
    let mut k = mk_kernel(Topology::flat(2), cfg);
    let mut spawned = 0;
    let mut spawn_next = false;
    let forker = from_fn(move |_| {
        spawn_next = !spawn_next;
        if !spawn_next {
            Action::Sleep(Dur::millis(1))
        } else if spawned == 12 {
            Action::Exit
        } else {
            spawned += 1;
            Action::Spawn(Box::new(periodic_sleeper()))
        }
    });
    k.queue_app(
        Time::ZERO,
        AppSpec::new("growing", vec![ThreadSpec::new("forker", forker)]),
    );
    let err = k
        .try_run_until(Time::ZERO + Dur::millis(50))
        .expect_err("depth budget must trip");
    assert_eq!(
        err,
        SimError::BudgetExceeded {
            at: Time::ZERO + Dur::millis(6),
            kind: BudgetKind::QueueDepth,
            limit: 8,
            used: 9,
        }
    );
    assert_eq!(k.counters().events, 56);
}

#[test]
fn armed_completions_count_as_queue_depth() {
    // Four hogs on four CPUs: once the start-up reschedules have drained,
    // the event queue is empty and the only pending work is the four run
    // completions in the run lane (plus the armed ticks, which never count).
    // A depth budget of 3 trips at the first event after it is installed,
    // CPU 0's tick at 1 ms; a budget of 4 holds for the whole run.
    let run = |max_depth: usize| {
        let mut k = mk_kernel(Topology::flat(4), SimConfig::frictionless(7));
        let hogs = (0..4)
            .map(|i| ThreadSpec::new(format!("hog{i}"), cpu_hog(Dur::millis(20), Dur::millis(20))))
            .collect();
        k.queue_app(Time::ZERO, AppSpec::new("hogs", hogs));
        k.try_run_until(Time::ZERO + Dur::micros(500))
            .expect("no budget yet");
        k.set_budget(RunBudget {
            max_queue_depth: Some(max_depth),
            ..RunBudget::default()
        });
        k.try_run_until(Time::ZERO + Dur::millis(30))
    };
    assert_eq!(
        run(3).expect_err("four armed completions exceed a depth of 3"),
        SimError::BudgetExceeded {
            at: Time::ZERO + Dur::millis(1),
            kind: BudgetKind::QueueDepth,
            limit: 3,
            used: 4,
        }
    );
    run(4).expect("four armed completions fit a depth of 4");
}

#[test]
fn queue_depth_budget_ignores_armed_ticks() {
    // 64 CPUs keep 64 ticks armed at all times, but they wait in the tick
    // lane, not the event queue: an idle machine has depth 0.
    let mut cfg = SimConfig::frictionless(1);
    cfg.budget.max_queue_depth = Some(1);
    let mut k = mk_kernel(Topology::flat(64), cfg);
    k.try_run_until(Time::ZERO + Dur::millis(50))
        .expect("armed ticks are not queue depth");
    assert!(k.counters().events > 64 * 48, "every CPU ticked");
}

#[test]
fn cancelled_events_leave_queue_depth_at_once() {
    // Two 1 s hog segments time-share one CPU in 10 ms slices while a
    // napper's 500 ms timer stays pending. Every slice-end preemption
    // disarms the victim's completion, due about a second out, behind the
    // pending timer. Live depth never exceeds the three start-up wakeups,
    // so a depth budget of 3 holds only if a disarmed completion stops
    // counting the moment it is disarmed.
    let mut cfg = SimConfig::frictionless(7);
    cfg.budget.max_queue_depth = Some(3);
    let mut k = mk_kernel(Topology::single_core(), cfg);
    let napper = Script::new(vec![Action::Sleep(Dur::millis(500))]);
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "mix",
            vec![
                ThreadSpec::new("h0", cpu_hog(Dur::secs(1), Dur::secs(1))),
                ThreadSpec::new("h1", cpu_hog(Dur::secs(1), Dur::secs(1))),
                ThreadSpec::new("napper", Box::new(napper)),
            ],
        ),
    );
    k.try_run_until(Time::ZERO + Dur::millis(200))
        .expect("cancelled completions must not count toward depth");
    assert!(k.counters().preemptions >= 19, "every slice end preempted");
}
