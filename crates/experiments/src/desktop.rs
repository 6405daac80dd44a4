//! The §4.1 cross-check: "We also ran experiments on a smaller desktop
//! machine (8-core Intel i7-3770), reaching similar conclusions."
//!
//! This driver repeats the paper's key contrasts on the SMT desktop
//! topology (4 cores × 2 hardware threads, one shared LLC) and verifies
//! the same qualitative outcomes hold there.

use simcore::{Dur, Time};
use topology::Topology;
use workloads::{synthetic, sysbench::SysbenchCfg};

use crate::{
    figure_scenario, make_kernel, or_bail, pct_diff, run_case, run_cell, suite_case, RunCfg, Sched,
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

fn fibo_gain(sched: Sched, cfg: &RunCfg) -> f64 {
    // The desktop has 8 hardware threads; 200 sysbench workers oversubscribe
    // every one of them (the paper's >80-threads-per-core datacenter point),
    // so fibo — one batch thread — starves under ULE machine-wide.
    let topo = Topology::core_i7_3770();
    let mut k = make_kernel(&topo, sched, cfg);
    let fibo = k.queue_app(Time::ZERO, synthetic::fibo(Dur::secs(120)));
    let spec = workloads::sysbench::sysbench(
        &mut k,
        SysbenchCfg {
            threads: 200,
            total_tx: ((1_500_000.0 * cfg.scale) as u64).max(20_000),
            // Lighter per-thread setup so all 200 workers are live before
            // the 4–10 s measurement window.
            init_per_thread: simcore::Dur::millis(8),
            ..Default::default()
        },
    );
    let _db = k.queue_app(Time::ZERO + Dur::millis(200), spec);
    let label = format!("desktop-fibo-{}", sched.name());
    let res = k.try_run_until(Time::ZERO + Dur::secs(4));
    or_bail(res, &k, &label, "desktop", cfg);
    let tid = k.app_tasks(fibo)[0];
    let before = k.task_runtime(tid);
    let res = k.try_run_until(Time::ZERO + Dur::secs(10));
    or_bail(res, &k, &label, "desktop", cfg);
    (k.task_runtime(tid) - before).as_secs_f64()
}

/// The rebalance check: 64 spinners pinned to CPU 0 of the desktop,
/// unpinned at 0.2 s, with the per-core spread read 1 s later. The
/// spinners are a daemon app, so only the horizon ends the run.
const UNPIN: &str = r#"
name = "desktop-unpin"

[topology]
preset = "i7-3770"

[[phase]]
name = "spinners"
kind = "spinners"
count = 64

[[event]]
kind = "unpin"
phase = "spinners"
at = { base_s = 0.2, scaled = false }

[run]
horizon = { base_s = 1.2, scaled = false }
until_apps_done = false
"#;

/// Run the desktop cross-check. The eight underlying simulations are
/// independent, so they go through the runner pool.
pub fn run(cfg: &RunCfg) -> Desktop {
    let perf = |entry: &str, sched| {
        let sc = suite_case(&[entry], "i7-3770", true);
        run_cell(&sc, sched, cfg)[0].perf
    };
    let unpin = figure_scenario(UNPIN);
    let spread = |sched| f64::from(run_case(&unpin, sched, cfg, &mut ()).run.final_spread);
    let jobs: Vec<Box<dyn FnOnce() -> f64 + Send + '_>> = vec![
        Box::new(|| fibo_gain(Sched::Cfs, cfg)),
        Box::new(|| fibo_gain(Sched::Ule, cfg)),
        Box::new(|| perf("Apache", Sched::Ule)),
        Box::new(|| perf("Apache", Sched::Cfs)),
        Box::new(|| spread(Sched::Cfs)),
        Box::new(|| spread(Sched::Ule)),
        Box::new(|| perf("MG", Sched::Ule)),
        Box::new(|| perf("MG", Sched::Cfs)),
    ];
    let r = crate::runner::par_map(cfg.threads, jobs, |job| job());
    Desktop {
        fibo_gain_cfs_s: r[0],
        fibo_gain_ule_s: r[1],
        apache_diff_pct: pct_diff(r[2], r[3]),
        spread_after_1s_cfs: r[4] as u32,
        spread_after_1s_ule: r[5] as u32,
        mg_diff_pct: pct_diff(r[6], r[7]),
    }
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
        let [cfs, ule] = Sched::BOTH.map(|s| run_case(&sc, s, &cfg, &mut ()).run);
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
