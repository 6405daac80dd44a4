//! Figure 7: thread placement in c-ray (§6.2).
//!
//! "Load is always balanced in ULE, but surprisingly it takes more than 11
//! seconds for ULE to have all threads runnable, while it only takes 2
//! seconds for CFS. This delay is explained by starvation (...) threads
//! that were initially categorized as batch cannot wake up other threads."
//!
//! The workload, horizon and step are `scenarios/fig7.toml`; this driver
//! watches for the end of the wakeup cascade.

use kernel::{AppId, Kernel};
use metrics::PerCoreSeries;
use scenario::spec::WorkloadSpec;

use crate::{figure_scenario, obs_of, run_case, RunCfg, Sched};

/// `scenarios/fig7.toml`, compiled in: the workload this figure runs.
pub const SCENARIO: &str = include_str!("../../../scenarios/fig7.toml");

/// One scheduler's run.
#[derive(Debug, serde::Serialize)]
pub struct Fig7Run {
    /// Scheduler used.
    pub sched: Sched,
    /// Runnable threads per core over time.
    pub matrix: PerCoreSeries,
    /// Seconds from app start until every renderer thread had been woken
    /// by the cascade (i.e. all threads runnable at least once).
    pub all_runnable_s: Option<f64>,
    /// Completion time of the app (seconds).
    pub completion_s: Option<f64>,
    /// End-of-run observability snapshot (SchedScope).
    pub obs: crate::SchedObs,
}

/// Run under one scheduler.
pub fn run(sched: Sched, cfg: &RunCfg) -> Fig7Run {
    let sc = figure_scenario(SCENARIO);
    let WorkloadSpec::Cray { threads, .. } = &sc.phases[0].workload else {
        panic!("fig7.toml's phase is not a c-ray render");
    };
    let threads = threads.eval(cfg.scale, sc.topology.build().nr_cpus()) as usize;
    let mut all_runnable_s = None;
    let mut sample = |k: &Kernel, apps: &[(String, AppId)]| {
        if all_runnable_s.is_some() {
            return;
        }
        // A renderer has been woken by the cascade iff it is runnable,
        // running, or already exited. (Sleeping threads have only run
        // their startup code and still wait at the cascade barrier.)
        let app = apps[0].1;
        let woken = k
            .app_tasks(app)
            .iter()
            .skip(1) // master
            .filter(|&&t| {
                let task = k.task(t);
                task.is_active() || task.state == sched_api::TaskState::Dead
            })
            .count();
        if k.app(app).spawned >= threads && woken >= threads {
            all_runnable_s = Some(k.now().as_secs_f64());
        }
    };
    let out = run_case(&sc, sched, cfg, &mut sample);
    Fig7Run {
        sched,
        all_runnable_s,
        completion_s: out
            .kernel
            .app(out.apps[0].1)
            .elapsed()
            .map(|d| d.as_secs_f64()),
        obs: obs_of(&out.kernel),
        matrix: out.matrix,
    }
}

/// The full figure.
#[derive(Debug, serde::Serialize)]
pub struct Fig7 {
    /// ULE panel (a).
    pub ule: Fig7Run,
    /// CFS panel (b).
    pub cfs: Fig7Run,
}

/// Run both schedulers (in parallel when the runner pool allows).
pub fn run_both(cfg: &RunCfg) -> Fig7 {
    let (ule, cfs) = crate::runner::join(
        cfg.threads,
        || run(Sched::Ule, cfg),
        || run(Sched::Cfs, cfg),
    );
    Fig7 { ule, cfs }
}

/// Render both heatmaps and the headline numbers.
pub fn report(fig: &Fig7) -> String {
    let mut s = String::from("Figure 7(a) — c-ray threads per core (ULE)\n");
    s.push_str(&fig.ule.matrix.heatmap());
    s.push_str("\nFigure 7(b) — c-ray threads per core (CFS)\n");
    s.push_str(&fig.cfs.matrix.heatmap());
    s.push_str(&format!(
        "\ntime until all threads woken: ULE {:?}s vs CFS {:?}s (paper: ~11s vs ~2s)\n",
        fig.ule.all_runnable_s, fig.cfs.all_runnable_s
    ));
    s.push_str(&format!(
        "completion: ULE {:?}s vs CFS {:?}s (paper: same)\n",
        fig.ule.completion_s, fig.cfs.completion_s
    ));
    s
}

/// Qualitative checks from §6.2.
pub fn validate(fig: &Fig7) -> Vec<String> {
    let mut bad = Vec::new();
    match (fig.ule.all_runnable_s, fig.cfs.all_runnable_s) {
        (Some(u), Some(c)) => {
            // Paper: ~11s vs ~2s. The simulated separation is smaller but
            // must clearly show ULE's starvation delay.
            if !(u > 1.4 * c) {
                bad.push(format!(
                    "ULE's cascade should be much slower (starvation): ULE {u:.1}s vs CFS {c:.1}s"
                ));
            }
        }
        _ => bad.push(format!(
            "cascade never completed: ULE {:?} CFS {:?}",
            fig.ule.all_runnable_s, fig.cfs.all_runnable_s
        )),
    }
    // Despite the difference, completion times are similar (both keep all
    // cores busy; there are more threads than cores).
    if let (Some(u), Some(c)) = (fig.ule.completion_s, fig.cfs.completion_s) {
        let ratio = u / c;
        if !(0.7..=1.4).contains(&ratio) {
            bad.push(format!(
                "completion should be similar: ULE {u:.1}s vs CFS {c:.1}s"
            ));
        }
    }
    bad
}
