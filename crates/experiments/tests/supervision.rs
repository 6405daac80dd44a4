//! SchedGuard end-to-end: panic isolation in the worker pool, partial
//! results that stay deterministic whatever the pool size, and the chaos
//! campaign's no-job-loss contract — all from the experiments layer, the
//! way `battle` drives it.

use std::path::PathBuf;

use experiments::{chaos, runner, scenarios, RunCfg};
use scenario::Scenario;

/// A scenario whose `[budget]` table guarantees a mid-run abort.
const BUDGETED: &str = r#"
name = "budgeted"
[topology]
preset = "flat-4"
[[phase]]
kind = "cpu-hogs"
count = { base = 6, min = 6 }
work = { base_s = 0.5, scaled = false }
[budget]
max_events = 3000
[run]
horizon = { base_s = 5.0, scaled = false }
"#;

fn budgeted_corpus() -> Vec<(PathBuf, Scenario)> {
    vec![(
        PathBuf::from("inline-budgeted.toml"),
        Scenario::from_toml(BUDGETED).expect("scenario parses"),
    )]
}

/// The same workload without a `[budget]` table — the chaos campaign
/// imposes its own plans, so its control run must be unsupervised.
const UNBUDGETED: &str = r#"
name = "tiny"
[topology]
preset = "flat-4"
[[phase]]
kind = "cpu-hogs"
count = { base = 6, min = 6 }
work = { base_s = 0.2, scaled = false }
[run]
horizon = { base_s = 5.0, scaled = false }
"#;

fn unbudgeted_corpus() -> Vec<(PathBuf, Scenario)> {
    vec![(
        PathBuf::from("inline-tiny.toml"),
        Scenario::from_toml(UNBUDGETED).expect("scenario parses"),
    )]
}

/// One panicking job must not take down its siblings, the pool, or the
/// process — and must come back labelled as a panic, not vanish.
#[test]
fn runner_survives_panicking_job() {
    let outcomes = runner::par_map_supervised(4, vec![1u64, 2, 3, 4], |i| {
        if i == 3 {
            panic!("injected panic in job {i}");
        }
        i * 10
    });
    assert_eq!(outcomes.len(), 4, "no job slot may be lost");
    let done: Vec<Option<u64>> = outcomes
        .iter()
        .map(|o| match o {
            runner::JobOutcome::Done(v) => Some(*v),
            runner::JobOutcome::Panicked(_) => None,
        })
        .collect();
    assert_eq!(done, vec![Some(10), Some(20), None, Some(40)]);
    assert!(
        outcomes[2]
            .panic_message()
            .is_some_and(|m| m.contains("injected panic in job 3")),
        "the panicking slot must carry its message: {:?}",
        outcomes[2].panic_message()
    );
}

/// Set in the environment of the child process that
/// `caught_panics_print_the_same_report_at_any_pool_size` starts: the
/// pool size it runs its panicking jobs on.
const PANIC_CHILD: &str = "SUPERVISION_PANIC_CHILD_THREADS";

/// A panic the pool catches is reported once on standard error, in input
/// order, with no thread name, id or backtrace, so the report is the same
/// at any pool size; a panic that `par_map` re-raises is printed once. The
/// test runs itself as a child process per pool size, with backtraces on,
/// and compares the children's standard error.
#[test]
fn caught_panics_print_the_same_report_at_any_pool_size() {
    if let Ok(threads) = std::env::var(PANIC_CHILD) {
        let threads: usize = threads.parse().expect("a pool size");
        let outcomes = runner::par_map_supervised(threads, (0..6).collect(), |i: u32| {
            if i % 2 == 1 {
                panic!("job {i} fails");
            }
            i
        });
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| o.panic_message().is_some())
                .count(),
            3
        );
        let reraised = std::panic::catch_unwind(|| {
            runner::par_map(threads, vec![0u32, 1], |i| {
                assert!(i == 0, "re-raised from job {i}");
                i
            })
        });
        assert!(reraised.is_err());
        return;
    }
    let stderr = |threads: usize| -> String {
        let exe = std::env::current_exe().expect("the test binary");
        let out = std::process::Command::new(exe)
            .args([
                "caught_panics_print_the_same_report_at_any_pool_size",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(PANIC_CHILD, threads.to_string())
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("the child runs");
        assert!(out.status.success(), "child at {threads} threads: {out:?}");
        String::from_utf8(out.stderr).expect("utf-8 stderr")
    };
    let one = stderr(1);
    assert_eq!(one, stderr(4), "the report depends on the pool size");
    let file = file!();
    let lines: Vec<&str> = one.lines().collect();
    assert_eq!(lines.len(), 4, "one line per caught panic:\n{one}");
    for (line, (job, of, msg)) in lines.iter().zip([
        (1, 6, "job 1 fails"),
        (3, 6, "job 3 fails"),
        (5, 6, "job 5 fails"),
        (1, 2, "re-raised from job 1"),
    ]) {
        let head = format!("job {job} of {of} panicked at {file}:");
        assert!(
            line.starts_with(&head) && line.ends_with(&format!(": {msg}")),
            "{line}"
        );
    }
}

/// A budget-killed scenario run salvages a partial result whose digest
/// and event count are identical whatever `--threads` says: the abort
/// point is simulated-deterministic, and the pool size only changes which
/// wall-clock order jobs run in, never what any job computes.
#[test]
fn budget_killed_partial_digest_is_thread_count_invariant() {
    let corpus = budgeted_corpus();
    let cfg = |threads: usize| RunCfg {
        threads,
        ..RunCfg::at_scale(1.0)
    };
    let digests_at = |threads: usize| -> Vec<(String, u64, u64, bool)> {
        let reports = scenarios::run_all(&corpus, &cfg(threads), None, None, None).reports;
        assert_eq!(reports.len(), 1);
        reports[0]
            .runs
            .iter()
            .map(|r| {
                (
                    r.sched.name().to_string(),
                    r.digest,
                    r.counters.events,
                    r.partial,
                )
            })
            .collect()
    };
    let serial = digests_at(1);
    let pooled = digests_at(4);
    assert_eq!(serial, pooled, "pool size must not perturb salvage");
    assert!(
        serial.iter().all(|&(_, _, _, partial)| partial),
        "the 3000-event budget must trip every run: {serial:?}"
    );
    // And the partial abort is reported as a failure line, so a budget
    // trip cannot silently pass a scenario, and as a crash whose bundle
    // the line names.
    let batch = scenarios::run_all(&corpus, &cfg(4), None, None, None);
    let failures = &batch.reports[0].failures;
    assert_eq!(batch.crashes.len(), failures.len(), "{failures:?}");
    for (line, c) in failures.iter().zip(&batch.crashes) {
        assert!(line.contains("partial"), "{line}");
        assert!(line.ends_with(&format!("(bundle: {})", c.bundle().display())));
        assert_eq!(c.kind, "budget exceeded");
        assert!(c.replay.starts_with("battle run inline-budgeted.toml "));
    }
}

/// The chaos smoke the CI step mirrors: a full sweep over an in-memory
/// corpus completes in one process with every job classified, at least
/// one case in every outcome class, and zero digest mismatches.
#[test]
fn chaos_campaign_smoke() {
    let (r, crashes) = chaos::run(&unbudgeted_corpus(), &RunCfg::at_scale(0.02), 1);
    let bundles: Vec<Option<String>> = crashes
        .iter()
        .map(|c| Some(c.bundle().display().to_string()))
        .collect();
    let named: Vec<Option<String>> = r
        .cases
        .iter()
        .filter(|c| c.bundle.is_some())
        .map(|c| c.bundle.clone())
        .collect();
    assert_eq!(
        bundles, named,
        "every bundle a case names is a crash to write"
    );
    assert!(chaos::passed(&r), "{}", chaos::report(&r));
    assert!(r.counts.completed >= 1, "{}", chaos::report(&r));
    assert!(r.counts.budget_killed >= 1, "{}", chaos::report(&r));
    assert!(r.counts.livelocked >= 1, "{}", chaos::report(&r));
    assert!(r.counts.cancelled >= 1, "{}", chaos::report(&r));
    assert!(r.counts.panicked >= 1, "{}", chaos::report(&r));
    assert!(r.counts.crashed >= 1, "{}", chaos::report(&r));
    assert_eq!(r.process_failures, 0);
    assert_eq!(r.digest_mismatches, 0);
}
