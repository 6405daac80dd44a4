//! Figure 5: performance of ULE relative to CFS over the whole application
//! suite on a **single core** (§5.3).
//!
//! "Overall, the scheduler has little influence on most workloads. (...)
//! The average performance difference is 1.5%, in favor of ULE. Still,
//! scimark is 36% slower on ULE than CFS, and apache is 40% faster on ULE
//! than CFS."
//!
//! The apache outlier also exists as `scenarios/apache.toml`
//! ([`APACHE_SCENARIO`]), which `battle trace fig5` traces.

use metrics::BarChart;
use scenario::Scenario;
use workloads::suite;

use crate::{pct_diff, run_cells, suite_case, Crash, PerfResult, RunCfg, Sched};

/// `scenarios/apache.toml`, compiled in: the suite's apache entry alone on
/// one core, the run `battle trace fig5` exports.
pub const APACHE_SCENARIO: &str = include_str!("../../../scenarios/apache.toml");

/// Result of the per-application comparison.
#[derive(Debug, serde::Serialize)]
pub struct SuiteComparison {
    /// Application name per row.
    pub rows: Vec<SuiteRow>,
}

/// One application's result pair.
#[derive(Debug, serde::Serialize)]
pub struct SuiteRow {
    /// Application name.
    pub name: String,
    /// CFS result.
    pub cfs: PerfResult,
    /// ULE result.
    pub ule: PerfResult,
    /// `(ULE − CFS) / CFS × 100`.
    pub diff_pct: f64,
}

/// Run the full single-core suite under both schedulers.
pub fn run(cfg: &RunCfg) -> Result<SuiteComparison, Crash> {
    run_on("single-core", cfg, false, &[])
}

/// Run the suite, one [`suite_case`] per application, on a preset machine
/// (Figure 8 runs `opteron-6172`), optionally with kernel noise and the
/// `extra` catalog entries after the suite's.
pub fn run_on(
    preset: &str,
    cfg: &RunCfg,
    with_noise: bool,
    extra: &[&str],
) -> Result<SuiteComparison, Crash> {
    // One cell per (application, scheduler) pair; the runner returns
    // results in submission order, so the rows of the table are identical
    // whatever the thread count.
    let cells: Vec<(Scenario, Sched)> = suite()
        .iter()
        .map(|e| e.name)
        .chain(extra.iter().copied())
        .map(|name| suite_case(&[name], preset, with_noise))
        .flat_map(|sc| Sched::BOTH.map(|s| (sc.clone(), s)))
        .collect();
    let results: Vec<_> = run_cells(&cells, cfg)?.into_iter().flatten().collect();
    let rows = results
        .chunks_exact(2)
        .map(|pair| {
            let (cfs, ule) = (pair[0].clone(), pair[1].clone());
            let diff = pct_diff(ule.perf, cfs.perf);
            SuiteRow {
                name: cfs.name.clone(),
                cfs,
                ule,
                diff_pct: diff,
            }
        })
        .collect();
    Ok(SuiteComparison { rows })
}

/// The figure's bar chart.
pub fn chart(cmp: &SuiteComparison, title: &str) -> BarChart {
    let mut c = BarChart::new(title, "% perf diff of ULE w.r.t. CFS (+ = ULE faster)");
    for r in &cmp.rows {
        c.push(r.name.clone(), r.diff_pct);
    }
    c
}

/// Render the chart.
pub fn report(cmp: &SuiteComparison) -> String {
    let mut s = chart(cmp, "Figure 5 — single-core suite").render(28);
    s.push_str("(paper: mean +1.5% for ULE; scimark ≈ −36%, apache ≈ +40%)\n");
    s
}

/// Mean % difference across the suite.
pub fn mean_diff(cmp: &SuiteComparison) -> f64 {
    if cmp.rows.is_empty() {
        return 0.0;
    }
    cmp.rows.iter().map(|r| r.diff_pct).sum::<f64>() / cmp.rows.len() as f64
}

/// Fetch one application's diff by name.
pub fn diff_of(cmp: &SuiteComparison, name: &str) -> Option<f64> {
    cmp.rows.iter().find(|r| r.name == name).map(|r| r.diff_pct)
}

/// Qualitative checks from §5.3 (single-core shape).
pub fn validate(cmp: &SuiteComparison) -> Vec<String> {
    let mut bad = Vec::new();
    let mean = mean_diff(cmp);
    if mean.abs() > 12.0 {
        bad.push(format!("suite mean diff should be small, got {mean:.1}%"));
    }
    // scimark markedly slower on ULE (JVM service threads get priority).
    let scimarks: Vec<f64> = cmp
        .rows
        .iter()
        .filter(|r| r.name.starts_with("scimark"))
        .map(|r| r.diff_pct)
        .collect();
    if let Some(worst) = scimarks
        .iter()
        .cloned()
        .fold(None::<f64>, |a, v| Some(a.map_or(v, |x| x.min(v))))
    {
        if worst > -10.0 {
            bad.push(format!(
                "scimark should be much slower on ULE, worst {worst:.1}%"
            ));
        }
    }
    // apache markedly faster on ULE (no wakeup preemption of ab).
    if let Some(d) = diff_of(cmp, "Apache") {
        if d < 10.0 {
            bad.push(format!("apache should be much faster on ULE, got {d:.1}%"));
        }
    }
    bad
}
