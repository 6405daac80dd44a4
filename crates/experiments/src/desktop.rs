//! The §4.1 cross-check: "We also ran experiments on a smaller desktop
//! machine (8-core Intel i7-3770), reaching similar conclusions."
//!
//! This driver repeats the paper's key contrasts on the SMT desktop
//! topology (4 cores × 2 hardware threads, one shared LLC) and verifies
//! the same qualitative outcomes hold there. The fibo window and the
//! rebalance check run `scenarios/drivers/desktop-fibo.toml` and
//! `desktop-unpin.toml`; the Apache and MG comparisons are suite cells.

use crate::{
    fibo_window, figure_scenario, pct_diff, run_cell, suite_case, try_run_case, Crash, RunCfg,
    Sched,
};

/// Desktop cross-check results.
#[derive(Debug, serde::Serialize)]
pub struct Desktop {
    /// fibo's CPU gain (s) during a 6 s window under sysbench, per sched.
    pub fibo_gain_cfs_s: f64,
    /// ... under ULE (starved ⇒ ≈ 0).
    pub fibo_gain_ule_s: f64,
    /// Apache % diff of ULE vs CFS on one SMT thread... the whole machine.
    pub apache_diff_pct: f64,
    /// Rebalance: spread 1 s after unpinning 64 spinners, CFS.
    pub spread_after_1s_cfs: u32,
    /// ... ULE (still piled).
    pub spread_after_1s_ule: u32,
    /// NAS MG % diff (placement stability) on the desktop.
    pub mg_diff_pct: f64,
}

/// `scenarios/drivers/desktop-fibo.toml`, compiled in: fibo against 200
/// sysbench workers, measured over the 4–10 s window.
pub const FIBO: &str = include_str!("../../../scenarios/drivers/desktop-fibo.toml");

/// `scenarios/drivers/desktop-unpin.toml`, compiled in: 64 spinners
/// pinned to CPU 0, unpinned at 0.2 s, with the per-core spread read 1 s
/// later.
pub const UNPIN: &str = include_str!("../../../scenarios/drivers/desktop-unpin.toml");

/// Run the desktop cross-check. The eight underlying simulations are
/// independent, so they go through the runner pool.
pub fn run(cfg: &RunCfg) -> Result<Desktop, Crash> {
    let perf = |entry: &str, sched| {
        let sc = suite_case(&[entry], "i7-3770", true);
        Ok(run_cell(&sc, sched, cfg)?[0].perf)
    };
    let fibo = figure_scenario(FIBO);
    let fibo_gain = |sched| Ok(fibo_window(&fibo, sched, cfg)?.as_secs_f64());
    let unpin = figure_scenario(UNPIN);
    let spread = |sched| {
        Ok(f64::from(
            try_run_case(&unpin, sched, cfg, &mut ())?.run.final_spread,
        ))
    };
    type Job<'a> = Box<dyn FnOnce() -> Result<f64, Crash> + Send + 'a>;
    let jobs: Vec<Job> = vec![
        Box::new(|| fibo_gain(Sched::Cfs)),
        Box::new(|| fibo_gain(Sched::Ule)),
        Box::new(|| perf("Apache", Sched::Ule)),
        Box::new(|| perf("Apache", Sched::Cfs)),
        Box::new(|| spread(Sched::Cfs)),
        Box::new(|| spread(Sched::Ule)),
        Box::new(|| perf("MG", Sched::Ule)),
        Box::new(|| perf("MG", Sched::Cfs)),
    ];
    let r = crate::runner::par_map(cfg.threads, jobs, |job| job())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Desktop {
        fibo_gain_cfs_s: r[0],
        fibo_gain_ule_s: r[1],
        apache_diff_pct: pct_diff(r[2], r[3]),
        spread_after_1s_cfs: r[4] as u32,
        spread_after_1s_ule: r[5] as u32,
        mg_diff_pct: pct_diff(r[6], r[7]),
    })
}

/// Render the comparison.
pub fn report(d: &Desktop) -> String {
    let mut t =
        metrics::Table::new(&["check (i7-3770, 4c/8t)", "CFS", "ULE", "paper's conclusion"]);
    t.push(&[
        "fibo CPU gained under sysbench (6s window)".into(),
        format!("{:.2}s", d.fibo_gain_cfs_s),
        format!("{:.2}s", d.fibo_gain_ule_s),
        "ULE squeezes the batch thread harder".into(),
    ]);
    t.push(&[
        "spread 1s after unpinning 64 spinners".into(),
        format!("{}", d.spread_after_1s_cfs),
        format!("{}", d.spread_after_1s_ule),
        "CFS rebalances fast, ULE slowly".into(),
    ]);
    t.push(&[
        "apache perf diff (ULE vs CFS)".into(),
        "—".into(),
        format!("{:+.1}%", d.apache_diff_pct),
        "faster on ULE (no wakeup preemption)".into(),
    ]);
    t.push(&[
        "MG perf diff (ULE vs CFS)".into(),
        "—".into(),
        format!("{:+.1}%", d.mg_diff_pct),
        "ULE's placement at least as good".into(),
    ]);
    let mut s =
        String::from("Desktop cross-check (§4.1) — same conclusions on the small machine\n");
    s.push_str(&t.render());
    s
}

/// The §4.1 claim: "similar conclusions".
pub fn validate(d: &Desktop) -> Vec<String> {
    let mut bad = Vec::new();
    if !(d.fibo_gain_cfs_s > 0.5) {
        bad.push(format!(
            "CFS should keep fibo running: {:.2}s",
            d.fibo_gain_cfs_s
        ));
    }
    // On a multicore, MySQL's lock sleeps keep capacity free, so fibo is
    // squeezed rather than starved (the paper's own §6.4 observation); ULE
    // must still give it clearly less than CFS does.
    if !(d.fibo_gain_ule_s < d.fibo_gain_cfs_s - 0.3) {
        bad.push(format!(
            "ULE should squeeze fibo harder than CFS: {:.2}s vs {:.2}s",
            d.fibo_gain_ule_s, d.fibo_gain_cfs_s
        ));
    }
    if d.spread_after_1s_ule <= d.spread_after_1s_cfs + 10 {
        bad.push(format!(
            "rebalance contrast should hold: ULE {} vs CFS {}",
            d.spread_after_1s_ule, d.spread_after_1s_cfs
        ));
    }
    if d.apache_diff_pct < 5.0 {
        bad.push(format!(
            "apache should favour ULE: {:+.1}%",
            d.apache_diff_pct
        ));
    }
    if d.mg_diff_pct < -5.0 {
        bad.push(format!(
            "MG should not regress on ULE: {:+.1}%",
            d.mg_diff_pct
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spinners are a daemon app, so the unpin check must run to its
    /// horizon instead of stopping after the first step, and CFS must
    /// spread the pile that ULE leaves on CPU 0.
    #[test]
    fn unpin_check_runs_to_its_horizon() {
        let cfg = RunCfg {
            check: kernel::CheckMode::Strict,
            ..RunCfg::at_scale(0.02)
        };
        let sc = figure_scenario(UNPIN);
        let [cfs, ule] = Sched::BOTH.map(|s| try_run_case(&sc, s, &cfg, &mut ()).unwrap().run);
        for run in [&cfs, &ule] {
            assert_eq!(run.end_s, 1.2, "[{}]", run.sched.name());
        }
        assert!(
            ule.final_spread > cfs.final_spread + 10,
            "ULE {} vs CFS {}",
            ule.final_spread,
            cfs.final_spread
        );
    }
}
