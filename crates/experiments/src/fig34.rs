//! Figures 3 & 4: starvation *within* a single application — sysbench with
//! 128 threads on one core under ULE (§5.2).
//!
//! "The first threads are created with an interactivity penalty below the
//! interactive threshold, while the remaining threads are created with an
//! interactivity penalty above it. (...) The latter threads sysbench may
//! starve forever."

use metrics::TimeSeries;
use simcore::{Dur, Time};
use workloads::sysbench::{sysbench, SysbenchCfg};

use crate::{make_kernel, or_bail, RunCfg, Sched};

/// Result of the single-app starvation experiment.
#[derive(Debug, serde::Serialize)]
pub struct Fig34 {
    /// Normalised cumulative runtime of the master thread.
    pub master_runtime: TimeSeries,
    /// Mean normalised runtime of threads that executed ("interactive").
    pub interactive_runtime: TimeSeries,
    /// Mean normalised runtime of threads that starved ("background").
    pub background_runtime: TimeSeries,
    /// Mean penalty of the interactive group (Figure 4, bottom curves).
    pub interactive_penalty: TimeSeries,
    /// Mean penalty of the background group (Figure 4, top curves).
    pub background_penalty: TimeSeries,
    /// Number of worker threads classified interactive at spawn.
    pub interactive_count: usize,
    /// Number of worker threads that starved.
    pub background_count: usize,
}

/// Run on ULE (the experiment is specific to ULE's classification).
pub fn run(cfg: &RunCfg) -> Fig34 {
    let topo = topology::Topology::single_core();
    let mut k = make_kernel(&topo, Sched::Ule, cfg);
    let sb_cfg = SysbenchCfg {
        threads: 128,
        total_tx: ((250_000.0 * cfg.scale).round() as u64).max(500),
        ..Default::default()
    };
    let spec = sysbench(&mut k, sb_cfg);
    let app = k.queue_app(Time::ZERO, spec);

    // Let the master finish spawning so the 129 tasks exist, then record
    // each worker's classification at spawn time.
    let horizon = Dur::secs_f64((140.0 * cfg.scale).max(20.0));
    let step = Dur::secs_f64((1.0 * cfg.scale).max(0.05));
    // The master needs 128 × 25 ms ≈ 3.2 s of CPU to initialise and fork
    // everything (workers wait at the start gate meanwhile), independent of
    // the transaction-budget scale.
    let spawn_wait = Dur::secs_f64(4.5);
    let res = k.try_run_until(Time::ZERO + spawn_wait);
    or_bail(res, &k, "fig34-ULE", "fig34", cfg);
    let tasks = k.app_tasks(app);
    let master = tasks[0];
    let workers: Vec<_> = tasks[1..].to_vec();
    let mut interactive = Vec::new();
    let mut background = Vec::new();
    for &t in &workers {
        match k.snapshot(t).interactive {
            Some(true) => interactive.push(t),
            _ => background.push(t),
        }
    }

    let mut out = Fig34 {
        master_runtime: TimeSeries::new("master"),
        interactive_runtime: TimeSeries::new("interactive threads"),
        background_runtime: TimeSeries::new("background threads"),
        interactive_penalty: TimeSeries::new("interactive penalty"),
        background_penalty: TimeSeries::new("background penalty"),
        interactive_count: interactive.len(),
        background_count: background.len(),
    };

    let norm = |v: f64, max: f64| if max > 0.0 { v / max } else { 0.0 };
    let limit = Time::ZERO + horizon;
    while k.now() < limit {
        let res = k.try_run_until(k.now() + step);
        or_bail(res, &k, "fig34-ULE", "fig34", cfg);
        let mrt = k.task_runtime(master).as_secs_f64();
        let mean_rt = |set: &[sched_api::Tid]| -> f64 {
            if set.is_empty() {
                return 0.0;
            }
            set.iter()
                .map(|&t| k.task_runtime(t).as_secs_f64())
                .sum::<f64>()
                / set.len() as f64
        };
        let mean_pen = |set: &[sched_api::Tid]| -> Option<f64> {
            let vals: Vec<f64> = set
                .iter()
                .filter_map(|&t| k.snapshot(t).ule_penalty.map(|p| p as f64))
                .collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        };
        let irt = mean_rt(&interactive);
        let brt = mean_rt(&background);
        let max = mrt.max(irt).max(brt).max(1e-12);
        out.master_runtime.push(k.now(), norm(mrt, max));
        out.interactive_runtime.push(k.now(), norm(irt, max));
        out.background_runtime.push(k.now(), norm(brt, max));
        if let Some(p) = mean_pen(&interactive) {
            out.interactive_penalty.push(k.now(), p);
        }
        if let Some(p) = mean_pen(&background) {
            out.background_penalty.push(k.now(), p);
        }
        if k.all_apps_done() {
            break;
        }
    }
    out
}

/// Render both figures.
pub fn report(f: &Fig34) -> String {
    let mut s = String::from("Figure 3 — normalised cumulative runtime (ULE, 128 threads)\n");
    s.push_str(&TimeSeries::ascii_chart(
        &[
            &f.master_runtime,
            &f.interactive_runtime,
            &f.background_runtime,
        ],
        72,
        12,
    ));
    s.push_str(&format!(
        "\n{} threads classified interactive, {} background (paper: 80 / 48)\n",
        f.interactive_count, f.background_count
    ));
    s.push_str("\nFigure 4 — interactivity penalty of the two groups\n");
    s.push_str(&TimeSeries::ascii_chart(
        &[&f.interactive_penalty, &f.background_penalty],
        72,
        10,
    ));
    s
}

/// Qualitative checks from §5.2.
pub fn validate(f: &Fig34) -> Vec<String> {
    let mut bad = Vec::new();
    // A substantial split into interactive and background groups.
    if f.interactive_count < 40 || f.background_count < 10 {
        bad.push(format!(
            "expected a split like 80/48, got {}/{}",
            f.interactive_count, f.background_count
        ));
    }
    // Background threads starve: essentially no runtime mid-experiment.
    let mid = f.background_runtime.points.len() / 2;
    if let Some(&(_, brt)) = f.background_runtime.points.get(mid) {
        let irt = f.interactive_runtime.points[mid].1;
        if !(brt < 0.2 * irt.max(1e-9)) {
            bad.push(format!(
                "background threads not starved: {brt:.3} vs interactive {irt:.3}"
            ));
        }
    }
    // Penalty separation: interactive drops low, background stays high.
    if let (Some(i), Some(b)) = (
        f.interactive_penalty.points.get(mid).map(|&(_, v)| v),
        f.background_penalty.points.get(mid).map(|&(_, v)| v),
    ) {
        if !(i < 30.0 && b >= 30.0) {
            bad.push(format!("penalty groups not separated: {i:.0} vs {b:.0}"));
        }
    }
    bad
}
