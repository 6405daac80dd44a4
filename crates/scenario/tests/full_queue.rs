//! A full bounded queue under fault injection, for every scheduling class.
//!
//! No scenario workload kind blocks a producer on a full queue:
//! `client-server` sizes its request queue so puts never block, and a
//! hackbench pipe holds 400 messages. So neither the corpus nor
//! `battle fuzz` reaches that side of `kernel::sync`. This test does: a
//! capacity-1 producer/consumer pipeline under strict checking, with
//! spurious wakeups aimed at blocked producers and consumers alike, tick
//! jitter and CPU hotplug, on 1, 4 and 8 CPUs.

use kernel::{Action, AppSpec, CheckMode, FaultPlan, Script, ThreadSpec};
use scenario::{make_kernel, Sched};
use simcore::{Dur, Time};
use topology::Topology;

/// Each value is delivered exactly once: the consumers add every value
/// they receive to the app's op count, so a lost or duplicated delivery
/// shifts the total away from `1 + 2 + … + total`.
#[test]
fn capacity_one_pipeline_delivers_each_value_once_for_every_class() {
    let consumers = 4u64;
    let per = 12u64;
    let total = consumers * per;
    for sched in Sched::ALL {
        for cpus in [1, 4, 8] {
            let faults = FaultPlan {
                // Well below the tick period: blocked tasks on both sides
                // of the queue get poked many times per wait.
                spurious_wake_period: Some(Dur::micros(200)),
                tick_jitter: Dur::micros(100),
                missed_tick_pct: 10,
                hotplug_period: Some(Dur::millis(3)),
                hotplug_down: Dur::millis(1),
            };
            let mut k = make_kernel(&Topology::flat(cpus), sched, 13, CheckMode::Strict, faults);
            let q = k.new_queue(1);
            let mut put = Vec::new();
            for v in 1..=total {
                put.push(Action::Run(Dur::micros(150)));
                put.push(Action::QueuePut(q, v));
            }
            let mut threads = vec![ThreadSpec::new("producer", Box::new(Script::new(put)))];
            for i in 0..consumers {
                let mut left = per;
                let mut work = false;
                threads.push(ThreadSpec::new(
                    format!("consumer{i}"),
                    kernel::from_fn(move |ctx| {
                        // A completed QueueGet hands its value over in
                        // ctx.value: count it, then chew on it long enough
                        // for the queue to fill behind the producer.
                        if let Some(v) = ctx.value.take() {
                            work = true;
                            return Action::CountOps(v);
                        }
                        if work {
                            work = false;
                            return Action::Run(Dur::micros(400));
                        }
                        if left == 0 {
                            return Action::Exit;
                        }
                        left -= 1;
                        Action::QueueGet(q)
                    }),
                ));
            }
            let app = k.queue_app(Time::ZERO, AppSpec::new("pipeline", threads));
            let label = format!("[{}] {cpus} cpus", sched.name());
            let done = k
                .try_run_until_apps_done(Time::ZERO + Dur::secs(30))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(done, "{label}: the pipeline must drain");
            assert_eq!(k.app(app).ops, total * (total + 1) / 2, "{label}");
            let c = k.counters();
            assert!(c.spurious_wakes > 0, "{label}: the wake storm did not fire");
            if cpus > 1 {
                assert!(c.hotplug_events > 0, "{label}: no CPU went down");
            }
        }
    }
}
