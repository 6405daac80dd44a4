//! Scaled-down runs of the experiment drivers asserting the paper's
//! qualitative shapes hold (the full-size runs live in the `battle` CLI;
//! these guard the reproduction in CI).
//!
//! Run with `--release` for speed; they stay within seconds each.

use experiments::{fig1, fig2, fig34, fig6, fig7, RunCfg};

fn cfg(scale: f64) -> RunCfg {
    RunCfg::at_scale(scale)
}

/// A driver's figure; a failed run fails the test with its crash.
fn ok<T>(fig: Result<T, experiments::Crash>) -> T {
    fig.unwrap_or_else(|c| panic!("{}\n{}", c.headline(), c.render()))
}

#[test]
fn fig1_shapes_hold_at_small_scale() {
    let fig = ok(fig1::run_both(&cfg(0.1)));
    let problems = fig1::validate(&fig);
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn fig2_shapes_hold_at_small_scale() {
    let ule = ok(fig2::run(&cfg(0.1)));
    let problems = fig2::validate(&ule);
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn fig34_shapes_hold_at_small_scale() {
    let f = ok(fig34::run(&cfg(0.1)));
    let problems = fig34::validate(&f);
    assert!(problems.is_empty(), "{problems:?}");
    // The split is close to the paper's 80/48 (it is scale-independent:
    // the master's spawn work is fixed).
    assert!(
        (70..=100).contains(&f.interactive_count),
        "split {}/{}",
        f.interactive_count,
        f.background_count
    );
}

#[test]
fn fig6_shapes_hold_at_small_scale() {
    let fig = ok(fig6::run_both(&cfg(0.25)));
    let problems = fig6::validate(&fig);
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn fig7_shapes_hold_at_small_scale() {
    let fig = ok(fig7::run_both(&cfg(0.3)));
    let problems = fig7::validate(&fig);
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn experiments_are_deterministic() {
    let a = ok(fig1::run(experiments::Sched::Ule, &cfg(0.05)));
    let b = ok(fig1::run(experiments::Sched::Ule, &cfg(0.05)));
    assert_eq!(a.sysbench_tx_per_s, b.sysbench_tx_per_s);
    assert_eq!(a.fibo_runtime_total_s, b.fibo_runtime_total_s);
    assert_eq!(a.fibo_penalty.points, b.fibo_penalty.points);
}
