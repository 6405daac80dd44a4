//! Figures 3 & 4: starvation *within* a single application — sysbench with
//! 128 threads on one core under ULE (§5.2).
//!
//! "The first threads are created with an interactivity penalty below the
//! interactive threshold, while the remaining threads are created with an
//! interactivity penalty above it. (...) The latter threads sysbench may
//! starve forever." The workload, horizon and step are
//! `scenarios/drivers/fig34.toml`; this driver classifies the workers and
//! samples the series.

use kernel::{AppId, Kernel};
use metrics::TimeSeries;
use scenario::Observer;
use sched_api::Tid;
use simcore::{Dur, Time};

use crate::{figure_scenario, try_run_case, Crash, RunCfg, Sched};

/// `scenarios/drivers/fig34.toml`, compiled in: the workload this figure
/// runs.
pub const SCENARIO: &str = include_str!("../../../scenarios/drivers/fig34.toml");

/// When the workers are classified. The master needs 128 × 25 ms ≈ 3.2 s
/// of CPU to initialise and fork everything (workers wait at the start
/// gate meanwhile), independent of the transaction-budget scale.
const CLASSIFY_AT: Dur = Dur::millis(4500);

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

/// The master and the workers split by their classification at
/// [`CLASSIFY_AT`].
struct Groups {
    master: Tid,
    interactive: Vec<Tid>,
    background: Vec<Tid>,
}

impl Groups {
    /// The master and the workers of the sysbench app `app`, the workers
    /// split by their classification now.
    fn classify(k: &Kernel, app: AppId) -> Groups {
        let tasks = k.app_tasks(app);
        let (interactive, background) = tasks[1..]
            .iter()
            .partition(|&&t| k.snapshot(t).interactive == Some(true));
        Groups {
            master: tasks[0],
            interactive,
            background,
        }
    }

    /// Push one point of every series of `fig`.
    fn sample(&self, k: &Kernel, fig: &mut Fig34) {
        let norm = |v: f64, max: f64| if max > 0.0 { v / max } else { 0.0 };
        let mrt = k.task_runtime(self.master).as_secs_f64();
        let mean_rt = |set: &[Tid]| -> f64 {
            if set.is_empty() {
                return 0.0;
            }
            set.iter()
                .map(|&t| k.task_runtime(t).as_secs_f64())
                .sum::<f64>()
                / set.len() as f64
        };
        let mean_pen = |set: &[Tid]| -> Option<f64> {
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
        let irt = mean_rt(&self.interactive);
        let brt = mean_rt(&self.background);
        let max = mrt.max(irt).max(brt).max(1e-12);
        fig.master_runtime.push(k.now(), norm(mrt, max));
        fig.interactive_runtime.push(k.now(), norm(irt, max));
        fig.background_runtime.push(k.now(), norm(brt, max));
        if let Some(p) = mean_pen(&self.interactive) {
            fig.interactive_penalty.push(k.now(), p);
        }
        if let Some(p) = mean_pen(&self.background) {
            fig.background_penalty.push(k.now(), p);
        }
    }
}

/// Classifies the workers at [`CLASSIFY_AT`], then samples every step.
struct Sampler {
    groups: Option<Groups>,
    fig: Fig34,
}

impl Observer for Sampler {
    fn step(&mut self, k: &Kernel, apps: &[(String, AppId)]) {
        match &self.groups {
            Some(g) => g.sample(k, &mut self.fig),
            None if k.now() == Time::ZERO + CLASSIFY_AT => {
                let g = Groups::classify(k, apps[0].1);
                self.fig.interactive_count = g.interactive.len();
                self.fig.background_count = g.background.len();
                self.groups = Some(g);
            }
            None => {}
        }
    }

    fn stop_at(&self) -> Option<Time> {
        self.groups.is_none().then_some(Time::ZERO + CLASSIFY_AT)
    }
}

/// Run on ULE (the experiment is specific to ULE's classification).
pub fn run(cfg: &RunCfg) -> Result<Fig34, Crash> {
    let mut sampler = Sampler {
        groups: None,
        fig: Fig34 {
            master_runtime: TimeSeries::new("master"),
            interactive_runtime: TimeSeries::new("interactive threads"),
            background_runtime: TimeSeries::new("background threads"),
            interactive_penalty: TimeSeries::new("interactive penalty"),
            background_penalty: TimeSeries::new("background penalty"),
            interactive_count: 0,
            background_count: 0,
        },
    };
    try_run_case(&figure_scenario(SCENARIO), Sched::Ule, cfg, &mut sampler)?;
    Ok(sampler.fig)
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
