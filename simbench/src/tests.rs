//! The benchmark's own tests, run at small scales:
//! `cargo test --manifest-path simbench/Cargo.toml`.

use std::collections::BTreeSet;

use scenario::{EngineOpts, Scenario, Sched};

use crate::workloads::{Workload, WORKLOADS};
use crate::{report, run, traced, Config, Outcome};

fn small_scale(w: &Workload) -> f64 {
    match w.name {
        "strict-8c" => 0.1,
        _ => 0.05,
    }
}

fn small_run(w: &'static Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload: w,
        seed: 42,
        seconds: 0.0,
        trace,
        scale: small_scale(w),
    };
    let out = run(&cfg).expect("workload sets up");
    assert_eq!(out.failed, 0, "{}: failed runs", w.name);
    out
}

fn names(metrics: &[report::Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> BTreeSet<String> {
    let spec =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.as_str()).expect("metric name");
            name.to_string()
        })
        .collect()
}

#[test]
fn timing_wrapper_leaves_every_decision_digest_unchanged() {
    for w in &WORKLOADS {
        let sc = Scenario::from_toml(w.toml).expect("corpus scenario parses");
        let opts = EngineOpts {
            scale: small_scale(w),
            check: w.check,
            ..EngineOpts::default()
        };
        for sched in Sched::ALL {
            let plain = scenario::run_sched(&sc, sched, &opts).expect("untraced run");
            let timed = traced::run(&sc, sched, &opts).expect("traced run");
            assert!(!plain.run.partial && !timed.partial);
            assert_eq!(
                timed.digest,
                plain.run.digest,
                "{} under {}",
                w.name,
                sched.flag_name()
            );
        }
    }
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let w = &WORKLOADS[0];
    let untraced = small_run(w, false);
    assert_eq!(names(&untraced.metrics), declared("end_to_end"));
    assert!(untraced.metrics.iter().all(|m| m.value > 0.0));
    let traced = small_run(w, true);
    assert_eq!(names(&traced.metrics), declared("per_layer"));
    assert_eq!(traced.metrics.len(), names(&traced.metrics).len());

    let json = serde_json::from_str(&report::to_json(&untraced)).expect("result is JSON");
    assert!(json.get("correct").is_some() && json.get("attempted").is_some());
    let printed = json.get("metrics").expect("metrics object");
    for m in &untraced.metrics {
        let unit = printed.get(&m.name).and_then(|v| v.get("unit"));
        assert_eq!(unit.and_then(|u| u.as_str()), Some(m.unit));
    }
}

#[test]
fn check_metrics_read_zero_with_the_check_off() {
    for w in WORKLOADS
        .iter()
        .filter(|w| w.check == kernel::CheckMode::Off)
    {
        let out = small_run(w, true);
        for m in out.metrics.iter().filter(|m| m.name.starts_with("check.")) {
            assert_eq!(m.value, 0.0, "{}: {}", w.name, m.name);
        }
    }
    let strict = WORKLOADS
        .iter()
        .find(|w| w.check == kernel::CheckMode::Strict)
        .expect("a strict workload");
    let out = small_run(strict, true);
    let audit = out.metrics.iter().find(|m| m.name == "check.cfs.audit_s");
    assert!(audit.is_some_and(|m| m.value > 0.0));
}
