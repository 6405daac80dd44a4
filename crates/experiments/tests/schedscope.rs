//! SchedScope end-to-end: a traced scenario run streams a trace that
//! round-trips through the JSON parser, slice accounting matches the
//! kernel's counters, per-CPU tracks never overlap, the apache
//! preemption-attribution claim holds, and `battle trace` runs any
//! scheduler list from any directory and rejects unknown figures.

use std::path::{Path, PathBuf};

use experiments::scenarios::{self, RunReport, TraceTo};
use experiments::RunCfg;
use scenario::{Scenario, Sched};
use serde_json::Value;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

/// Run the corpus scenario `name` traced into `out`.
fn traced(name: &str, scale: f64, out: &Path) -> RunReport {
    let path = PathBuf::from(format!(
        "{}/../../scenarios/{name}.toml",
        env!("CARGO_MANIFEST_DIR")
    ));
    let src = std::fs::read_to_string(&path).expect("scenario readable");
    let sc = Scenario::from_toml(&src).expect("scenario parses");
    let mut batch = scenarios::run_all(
        &[(path, sc)],
        &RunCfg::at_scale(scale),
        None,
        Some(TraceTo::File(out)),
        None,
    );
    assert_eq!(batch.traced.len(), 1, "one trace file written");
    batch.reports.pop().expect("one report per scenario")
}

/// Parse an exported trace file into its `traceEvents` array.
fn load_events(path: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    let doc = serde_json::from_str(&text).expect("trace must be valid JSON");
    doc.get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("top-level traceEvents array")
        .to_vec()
}

/// Timestamp/duration in integer nanoseconds (the writer emits fixed
/// 3-decimal microseconds, so rounding is exact).
fn ns(v: &Value) -> u64 {
    (v.as_f64().expect("numeric ts/dur") * 1000.0).round() as u64
}

#[test]
fn streamed_trace_round_trips() {
    // A wakeup storm on the 32-core Opteron, small enough for debug builds.
    let out = tmp("schedscope-herd.json");
    let report = traced("thundering-herd", 0.02, &out);
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(report.traces.len(), 2);

    let events = load_events(&out);
    assert!(!events.is_empty(), "trace must contain events");

    for (i, (run, trace)) in report.runs.iter().zip(&report.traces).enumerate() {
        let pid = i as u64 + 1;
        // The sink sees every event, so the group's task slices mirror the
        // kernel's context-switch counter exactly.
        let slices: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(pid)
            })
            .collect();
        assert_eq!(
            slices.len() as u64,
            run.counters.ctx_switches,
            "{}: one slice per context switch",
            run.sched.name()
        );
        assert_eq!(slices.len() as u64, trace.slices);

        // Per-CPU tracks must never overlap: sort each track's slices and
        // require end <= next start (in integer nanoseconds).
        for cpu in 0..32 {
            let mut spans: Vec<(u64, u64)> = slices
                .iter()
                .filter(|e| e.get("tid").and_then(|t| t.as_u64()) == Some(cpu))
                .map(|e| {
                    let start = ns(e.get("ts").unwrap());
                    (start, start + ns(e.get("dur").unwrap()))
                })
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "{} cpu{cpu}: slice [{}, {}] overlaps [{}, {}]",
                    run.sched.name(),
                    w[0].0,
                    w[0].1,
                    w[1].0,
                    w[1].1
                );
            }
        }
    }
    std::fs::remove_file(&out).ok();
}

#[test]
fn apache_preemption_attribution_matches_paper() {
    // §5.3: "every request handled by apache causes ab to be preempted"
    // on CFS (≈1 wakeup preemption per request), while ULE's disabled
    // full preemption keeps the count at zero.
    let out = tmp("schedscope-apache.json");
    let report = traced("apache", 0.02, &out);
    assert!(report.passed(), "{:?}", report.failures);
    let (cfs, ule) = (&report.runs[0], &report.runs[1]);
    assert_eq!((cfs.sched, ule.sched), (Sched::Cfs, Sched::Ule));
    let requests = cfs.apps[0].ops;
    let per_request = cfs.counters.wakeup_preemptions as f64 / requests as f64;
    assert!(
        per_request > 0.5 && per_request < 2.0,
        "CFS should preempt ab about once per request, got {per_request:.2}"
    );
    assert_eq!(
        ule.counters.wakeup_preemptions, 0,
        "ULE keeps full preemption disabled for timeshare tasks"
    );
    // Attribution: the heaviest preemptor pair on CFS is httpd → ab.
    let top = report.traces[0]
        .analysis
        .preempt_pairs
        .first()
        .expect("CFS has preemption pairs");
    assert_eq!((top.by.as_str(), top.victim.as_str()), ("httpd", "ab"));
    std::fs::remove_file(&out).ok();
}

#[test]
fn trace_alias_runs_every_scheduler_from_any_directory() {
    // `battle trace` runs its compiled-in scenario, so it works outside
    // the repository, and `--sched all` replaces the scenario's cfs+ule.
    let (out, json) = (
        tmp("schedscope-cli.json"),
        tmp("schedscope-cli.report.json"),
    );
    let cmd = std::process::Command::new(env!("CARGO_BIN_EXE_battle"))
        .current_dir(std::env::temp_dir())
        .args([
            "trace", "fig5", "--sched", "all", "--scale", "0.02", "--out",
        ])
        .arg(&out)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("battle runs");
    assert!(cmd.status.success(), "{cmd:?}");

    let text = std::fs::read_to_string(&json).expect("report written");
    let doc = serde_json::from_str(&text).expect("report is JSON");
    let runs = doc.as_array().expect("one report per scenario")[0]
        .get("runs")
        .and_then(|r| r.as_array())
        .expect("runs array")
        .to_vec();
    assert_eq!(runs.len(), Sched::ALL.len());
    let events = load_events(&out);
    for (i, run) in runs.iter().enumerate() {
        let slices = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(i as u64 + 1)
            })
            .count() as u64;
        let ctx = run
            .get("counters")
            .and_then(|c| c.get("ctx_switches"))
            .and_then(|c| c.as_u64());
        assert_eq!(Some(slices), ctx, "group {}: one slice per switch", i + 1);
    }
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&json).ok();
}

#[test]
fn trace_of_unknown_figure_exits_2_listing_figures() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_battle"))
        .args(["trace", "fig9"])
        .output()
        .expect("battle runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig1 fig5 fig6 fig7"), "{stderr}");
}
