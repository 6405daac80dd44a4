//! Tests of the flight-recorder trace and the streaming sink (SchedScope).

use std::cell::RefCell;
use std::rc::Rc;

use kernel::{
    cpu_hog, AppSpec, CheckMode, Kernel, Script, SimConfig, SimpleRR, ThreadSpec, TraceEvent,
    TraceSink,
};
use sched_api::{PreemptCause, TaskTable};
use simcore::{Dur, Time};
use topology::Topology;

/// Test double: a [`TraceSink`] that copies every event it observes.
struct Recording(Rc<RefCell<Vec<TraceEvent>>>);

impl TraceSink for Recording {
    fn event(&mut self, ev: &TraceEvent, _tasks: &TaskTable) {
        self.0.borrow_mut().push(*ev);
    }
}

/// A single-core SimpleRR kernel under strict SchedSan.
fn mk_kernel(mut cfg: SimConfig) -> Kernel {
    cfg.check = CheckMode::Strict;
    let topo = Topology::single_core();
    let sched = Box::new(SimpleRR::new(&topo));
    Kernel::new(topo, cfg, sched)
}

fn traced_kernel() -> Kernel {
    let mut cfg = SimConfig::frictionless(1);
    cfg.trace_capacity = 10_000;
    mk_kernel(cfg)
}

#[test]
fn trace_records_switches_wakeups_and_exits() {
    let mut k = traced_kernel();
    let _app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "t",
            vec![
                ThreadSpec::new(
                    "sleeper",
                    Box::new(Script::new(vec![
                        kernel::Action::Run(Dur::millis(1)),
                        kernel::Action::Sleep(Dur::millis(5)),
                        kernel::Action::Run(Dur::millis(1)),
                    ])),
                ),
                ThreadSpec::new("hog", cpu_hog(Dur::millis(10), Dur::millis(10))),
            ],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    let events: Vec<_> = k.trace().iter().cloned().collect();
    assert!(!events.is_empty());

    let switches = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Switch { .. }))
        .count();
    let wakeups = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Wakeup { .. }))
        .count();
    let exits = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Exit { .. }))
        .count();
    let idles = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Idle { .. }))
        .count();
    assert!(switches >= 3, "sleeper/hog alternation: {switches}");
    assert_eq!(wakeups, 1, "one timer wakeup");
    assert_eq!(exits, 2, "both threads exit");
    assert!(idles >= 1, "the core idles at the end");

    // Timestamps are non-decreasing.
    let mut last = Time::ZERO;
    for e in &events {
        assert!(e.at() >= last, "trace must be time-ordered");
        last = e.at();
    }
}

#[test]
fn trace_disabled_by_default() {
    let mut k = mk_kernel(SimConfig::frictionless(1));
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "t",
            vec![ThreadSpec::new(
                "h",
                cpu_hog(Dur::millis(5), Dur::millis(5)),
            )],
        ),
    );
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    assert!(k.trace().is_empty(), "tracing must be opt-in");
    // With tracing off the kernel never even builds the trace records, so
    // nothing is counted as dropped either: the recorder is zero-cost.
    assert_eq!(
        k.trace().dropped(),
        0,
        "disabled tracing must not construct events at all"
    );
}

#[test]
fn streaming_sink_sees_every_buffered_event() {
    let mut k = traced_kernel();
    let seen = Rc::new(RefCell::new(Vec::new()));
    k.set_trace_sink(Box::new(Recording(Rc::clone(&seen))));
    let threads = (0..3)
        .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::millis(20), Dur::millis(5))))
        .collect();
    k.queue_app(Time::ZERO, AppSpec::new("busy", threads));
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(2)));
    assert_eq!(k.trace().dropped(), 0, "capacity covers the whole run");
    let buffered: Vec<TraceEvent> = k.trace().iter().cloned().collect();
    assert!(!buffered.is_empty());
    assert_eq!(
        *seen.borrow(),
        buffered,
        "the sink must observe exactly the flight recorder's stream"
    );
}

#[test]
fn sink_streams_without_any_buffer() {
    // trace_capacity = 0: the flight recorder is off, yet an installed
    // sink still receives the full event stream — the unbounded-run
    // export mode. Removing the sink turns tracing back off.
    let mut k = mk_kernel(SimConfig::frictionless(1));
    let seen = Rc::new(RefCell::new(Vec::new()));
    k.set_trace_sink(Box::new(Recording(Rc::clone(&seen))));
    let threads = (0..2)
        .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::millis(10), Dur::millis(5))))
        .collect();
    k.queue_app(Time::ZERO, AppSpec::new("busy", threads));
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(1)));
    assert!(k.trace().is_empty(), "no buffer was configured");
    let streamed = seen.borrow().len();
    assert!(streamed > 0, "sink must receive events with no buffer");
    assert!(k.take_trace_sink().is_some());
    let mut k2 = k;
    k2.queue_app(
        k2.now(),
        AppSpec::new(
            "more",
            vec![ThreadSpec::new(
                "h",
                cpu_hog(Dur::millis(5), Dur::millis(5)),
            )],
        ),
    );
    assert!(k2.run_until_apps_done(k2.now() + Dur::secs(1)));
    assert_eq!(
        seen.borrow().len(),
        streamed,
        "after take_trace_sink, tracing is off again"
    );
}

#[test]
fn preemptions_are_cause_tagged_and_slices_match_switches() {
    // Two hogs on one core: SimpleRR expires slices, so every preemption
    // is tick-driven and tagged `SliceExpired`, and the per-cause split
    // must add up to the total.
    let mut k = traced_kernel();
    let threads = (0..2)
        .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::millis(30), Dur::millis(5))))
        .collect();
    k.queue_app(Time::ZERO, AppSpec::new("busy", threads));
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(2)));
    let c = k.counters();
    assert!(c.tick_preemptions > 0, "slice expiry must preempt");
    assert_eq!(
        c.preemptions,
        c.tick_preemptions + c.wakeup_preemptions,
        "cause split must cover all preemptions"
    );
    let mut preempts = 0;
    let mut switches = 0;
    for e in k.trace().iter() {
        match e {
            TraceEvent::Preempt { cause, by, .. } => {
                preempts += 1;
                assert_eq!(*cause, PreemptCause::SliceExpired);
                assert!(by.is_none(), "tick preemptions have no preemptor task");
            }
            TraceEvent::Switch { .. } => switches += 1,
            _ => {}
        }
    }
    assert_eq!(preempts, c.preemptions, "every preemption is traced");
    assert_eq!(
        switches, c.ctx_switches,
        "Switch events mirror the ctx-switch counter exactly"
    );
}

#[test]
fn dispatch_latency_histograms_populate() {
    let mut k = traced_kernel();
    let threads = (0..2)
        .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::millis(20), Dur::millis(5))))
        .collect();
    k.queue_app(Time::ZERO, AppSpec::new("busy", threads));
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(2)));
    let rd = k.run_delay().summary();
    let wl = k.wakeup_latency().summary();
    assert!(rd.count > 0, "every dispatch records a run delay");
    assert!(
        wl.count <= rd.count,
        "wakeup latency samples are a subset of run delays"
    );
    assert!(rd.max_ms >= rd.p99_ms && rd.p99_ms >= rd.p50_ms);
}

#[test]
fn trace_is_bounded() {
    let mut cfg = SimConfig::frictionless(1);
    cfg.trace_capacity = 8;
    let mut k = mk_kernel(cfg);
    let threads = (0..4)
        .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::millis(50), Dur::millis(5))))
        .collect();
    k.queue_app(Time::ZERO, AppSpec::new("many", threads));
    assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(2)));
    assert!(k.trace().len() <= 8, "flight recorder stays bounded");
    assert!(k.trace().dropped() > 0, "older events were evicted");
}
