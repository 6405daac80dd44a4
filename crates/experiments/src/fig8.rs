//! Figure 8: the application suite on the 32-core machine (§6.3), plus the
//! two hackbench configurations.
//!
//! "The average performance difference between CFS and ULE is small: 2.75%
//! in favor of ULE. MG (...) is 73% faster on ULE than on CFS. (...)
//! Sysbench is slower on ULE due to the overhead of the ULE load balancer
//! [pickcpu scanning] (...) 13% of all CPU cycles being spent on scanning
//! cores."

use crate::fig5::{self, SuiteComparison};
use crate::{Crash, RunCfg};

/// Run the multicore suite (with per-core kernel noise, as on a real
/// machine) under both schedulers, including Hackb-800 and Hackb-10.
pub fn run(cfg: &RunCfg) -> Result<SuiteComparison, Crash> {
    let extra: Vec<&str> = workloads::multicore_extra()
        .iter()
        .map(|e| e.name)
        .collect();
    fig5::run_on("opteron-6172", cfg, true, &extra)
}

/// Render the bar chart.
pub fn report(cmp: &SuiteComparison) -> String {
    let mut s = fig5::chart(cmp, "Figure 8 — 32-core suite").render(28);
    s.push_str("(paper: mean +2.75% for ULE; MG ≈ +73%; sysbench slower on ULE)\n");
    s
}

/// Qualitative checks from §6.3.
pub fn validate(cmp: &SuiteComparison) -> Vec<String> {
    let mut bad = Vec::new();
    let mean = fig5::mean_diff(cmp);
    if mean.abs() > 15.0 {
        bad.push(format!("suite mean diff should be small, got {mean:.1}%"));
    }
    // MG benefits from ULE's stable one-thread-per-core placement. The
    // paper reports +73%; the simulated machine repairs CFS's misplacement
    // faster, so the advantage is smaller but must stay clearly positive.
    if let Some(d) = fig5::diff_of(cmp, "MG") {
        if d < 3.0 {
            bad.push(format!("MG should be faster on ULE, got {d:+.1}%"));
        }
    }
    // Sysbench suffers from pickcpu scan overhead on ULE (paper: ~−10%).
    // In the simulation CFS's wakeup-preemption cache penalties offset
    // part of that, so we only require the diff to stay small (see
    // EXPERIMENTS.md for the documented divergence).
    if let Some(d) = fig5::diff_of(cmp, "Sysbench") {
        if d > 4.0 {
            bad.push(format!(
                "sysbench should not be faster on ULE, got {d:+.1}%"
            ));
        }
    }
    bad
}
