//! Suite cells are scenarios: every run of Figures 5, 8 and 9 and the
//! desktop check is a `Scenario` built by `suite_case`. A failing cell is
//! written as a file `battle run` replays, so a cell's file must replay
//! the cell exactly, and the figures must finish under strict checking
//! with the same output on any number of workers.

use experiments::{crash, fig8, fig9, run_cell, suite_case, Crash, RunCfg, Sched};
use kernel::CheckMode;
use scenario::Scenario;

fn strict(threads: usize) -> RunCfg {
    RunCfg {
        seed: 42,
        check: CheckMode::Strict,
        threads,
        ..RunCfg::at_scale(0.02)
    }
}

/// The case file a cell's crash carries parses back to the case
/// restricted to the class, and replaying it with `run_sched` makes the
/// same decisions as the cell.
#[test]
fn suite_cases_round_trip_through_their_file() {
    let cases = [
        suite_case(&["Apache"], "single-core", false),
        suite_case(&["MG"], "i7-3770", true),
        suite_case(&["C-Ray", "EP"], "opteron-6172", false),
    ];
    let cfg = strict(1);
    for sc in &cases {
        let json = crash::case_json(sc).expect("a suite case serializes");
        assert_eq!(&Scenario::from_json(&json).expect("parses"), sc);
        for sched in Sched::BOTH {
            let label = crash::case_label(sc, sched);
            assert_eq!(label, format!("{}-{}", sc.name, sched.name()));
            let failed = Crash::from_panic(&label, "planted", "replay").with_case(sc, sched);
            let [(file, src), _] = &failed.files()[..] else {
                panic!("{label}: a case file and a bundle");
            };
            assert_eq!(file, &crash::path(&label, "json"));
            let src = src.as_ref().expect("the case serializes");
            let back = Scenario::from_json(src).expect("case file parses");
            let expected = Scenario {
                scheds: vec![sched],
                ..sc.clone()
            };
            assert_eq!(back, expected, "{label}");
            let replayed = scenario::run_sched(&back, sched, &cfg.engine_opts())
                .expect("replay runs")
                .run
                .digest;
            let cell = run_cell(sc, sched, &cfg).expect("the cell runs");
            assert_eq!(cell.len(), sc.name.split('+').count(), "{label}");
            assert!(cell.iter().all(|r| r.obs.digest == replayed), "{label}");
        }
    }
}

#[test]
fn fig8_finishes_under_strict_checking_on_any_worker_count() {
    let one = fig8::run(&strict(1)).expect("fig8 runs");
    assert_eq!(one.rows.len(), 44);
    for row in &one.rows {
        for r in [&row.cfs, &row.ule] {
            assert!(
                r.perf > 0.0 && r.elapsed_s.is_some(),
                "{} [{}]: perf {}, elapsed {:?}",
                r.name,
                r.sched.name(),
                r.perf,
                r.elapsed_s
            );
        }
    }
    let two = fig8::run(&strict(2)).expect("fig8 runs");
    assert_eq!(
        serde_json::to_string_pretty(&one).expect("serializes"),
        serde_json::to_string_pretty(&two).expect("serializes")
    );
}

#[test]
fn fig9_finishes_under_strict_checking_on_any_worker_count() {
    let one = fig9::runs(&strict(1)).expect("fig9 runs");
    assert_eq!(one.len(), 6 * fig9::PAIRS.len());
    for r in one.iter().flatten() {
        assert!(
            r.perf > 0.0 && r.elapsed_s.is_some(),
            "{} [{}]: perf {}, elapsed {:?}",
            r.name,
            r.sched.name(),
            r.perf,
            r.elapsed_s
        );
    }
    let two = fig9::runs(&strict(2)).expect("fig9 runs");
    assert_eq!(
        serde_json::to_string_pretty(&one).expect("serializes"),
        serde_json::to_string_pretty(&two).expect("serializes")
    );
}
