//! Figure 2: interactivity penalty of fibo and the sysbench threads over
//! time (ULE run of the Figure 1 experiment).
//!
//! "Both applications start out as interactive (penalty of 0). The penalty
//! of fibo quickly rises to the maximum value (...). Sysbench threads, in
//! contrast, remain interactive during their entire execution (penalty
//! below the 30 limit)."

use metrics::TimeSeries;

use crate::fig1::Fig1Run;
use crate::{fig1, Crash, RunCfg, Sched};

/// Run the underlying experiment on ULE and return it (penalty series
/// filled).
pub fn run(cfg: &RunCfg) -> Result<Fig1Run, Crash> {
    fig1::run(Sched::Ule, cfg)
}

/// Render the penalty chart.
pub fn report(ule: &Fig1Run) -> String {
    let mut s = String::from("Figure 2 — interactivity penalty over time (ULE)\n");
    s.push_str(&TimeSeries::ascii_chart(
        &[&ule.fibo_penalty, &ule.sysbench_penalty],
        72,
        12,
    ));
    s.push_str("(interactivity threshold: 30)\n");
    s
}

/// Qualitative checks: fibo's penalty maxes out; sysbench stays below 30.
pub fn validate(ule: &Fig1Run) -> Vec<String> {
    let mut bad = Vec::new();
    let fibo_late = ule
        .fibo_penalty
        .points
        .iter()
        .rev()
        .take(3)
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max);
    if fibo_late < 90.0 {
        bad.push(format!("fibo penalty should max out, got {fibo_late}"));
    }
    // Sysbench mean penalty stays below the threshold while it runs.
    let done = ule.sysbench_done_s.unwrap_or(f64::MAX);
    for &(t, v) in &ule.sysbench_penalty.points {
        // Skip the ramp-up right after launch and the drain phase.
        if t > 0.3 * done && t < 0.9 * done && v >= 30.0 {
            bad.push(format!("sysbench penalty {v:.0} ≥ 30 at t={t:.0}s"));
            break;
        }
    }
    bad
}
