//! Figure 1 (and the data behind Figure 2 / Table 2): fibo + sysbench on a
//! single core.
//!
//! "Fibo runs alone for 7 seconds, and then sysbench is launched. Both
//! applications then run to completion." On CFS both share the core
//! (cgroup fairness gives each application ~50%); on ULE the 80 sysbench
//! workers are classified interactive and fibo starves until sysbench
//! completes (§5.1). The workload, horizon and step are
//! `scenarios/fig1.toml`; this driver samples the series.

use kernel::{AppId, Kernel};
use metrics::TimeSeries;

use crate::{figure_scenario, obs_of, try_run_case, Crash, RunCfg, Sched};

/// `scenarios/fig1.toml`, compiled in: the workload this figure runs.
pub const SCENARIO: &str = include_str!("../../../scenarios/fig1.toml");

/// One scheduler's run of the experiment.
#[derive(Debug, serde::Serialize)]
pub struct Fig1Run {
    /// Scheduler used.
    pub sched: Sched,
    /// Cumulative CPU runtime of fibo (seconds), sampled once per second.
    pub fibo_runtime: TimeSeries,
    /// Cumulative CPU runtime summed over sysbench's threads.
    pub sysbench_runtime: TimeSeries,
    /// ULE interactivity penalty of fibo over time (empty under CFS).
    pub fibo_penalty: TimeSeries,
    /// Mean ULE penalty of sysbench workers over time (empty under CFS).
    pub sysbench_penalty: TimeSeries,
    /// When sysbench completed (seconds), if it did.
    pub sysbench_done_s: Option<f64>,
    /// When fibo completed (seconds), if it did.
    pub fibo_done_s: Option<f64>,
    /// Sysbench transactions per second (Table 2).
    pub sysbench_tx_per_s: f64,
    /// Sysbench mean transaction latency in ms (Table 2).
    pub sysbench_avg_latency_ms: f64,
    /// Total CPU time consumed by fibo (Table 2's "Runtime").
    pub fibo_runtime_total_s: f64,
    /// End-of-run observability snapshot (SchedScope).
    pub obs: crate::SchedObs,
}

/// The fibo and sysbench apps: phases 0 and 1 of the scenario.
fn fibo_sysbench_apps(apps: &[(String, AppId)]) -> (AppId, AppId) {
    (apps[0].1, apps[1].1)
}

/// Run the experiment under one scheduler.
pub fn run(sched: Sched, cfg: &RunCfg) -> Result<Fig1Run, Crash> {
    let mut fibo_runtime = TimeSeries::new("fibo");
    let mut sysbench_runtime = TimeSeries::new("sysbench");
    let mut fibo_penalty = TimeSeries::new("fibo penalty");
    let mut sysbench_penalty = TimeSeries::new("sysbench penalty");
    let mut sample = |k: &Kernel, apps: &[(String, AppId)]| {
        let (fibo, sysbench) = fibo_sysbench_apps(apps);
        let fibo_tid = k.app_tasks(fibo)[0];
        fibo_runtime.push(k.now(), k.task_runtime(fibo_tid).as_secs_f64());
        let sb_tasks = k.app_tasks(sysbench);
        let sb_rt: f64 = sb_tasks
            .iter()
            .map(|&t| k.task_runtime(t).as_secs_f64())
            .sum();
        sysbench_runtime.push(k.now(), sb_rt);
        if sched == Sched::Ule {
            if let Some(p) = k.snapshot(fibo_tid).ule_penalty {
                fibo_penalty.push(k.now(), p as f64);
            }
            // Mean penalty over the (live) worker threads.
            let (mut sum, mut n) = (0.0, 0u32);
            for &t in sb_tasks.iter().skip(1) {
                if let Some(p) = k.snapshot(t).ule_penalty {
                    sum += p as f64;
                    n += 1;
                }
            }
            if n > 0 {
                sysbench_penalty.push(k.now(), sum / n as f64);
            }
        }
    };
    let sc = figure_scenario(SCENARIO);
    let out = try_run_case(&sc, sched, cfg, &mut sample)?;

    let k = &out.kernel;
    let (fibo, sysbench) = fibo_sysbench_apps(&out.apps);
    let fibo_tid = k.app_tasks(fibo)[0];
    Ok(Fig1Run {
        sched,
        fibo_runtime,
        sysbench_runtime,
        fibo_penalty,
        sysbench_penalty,
        sysbench_done_s: k.app(sysbench).elapsed().map(|d| d.as_secs_f64()),
        fibo_done_s: k.app(fibo).finished.map(|t| t.as_secs_f64()),
        sysbench_tx_per_s: k.app(sysbench).ops_per_sec(k.now()),
        sysbench_avg_latency_ms: k
            .app(sysbench)
            .avg_latency()
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0),
        fibo_runtime_total_s: k.task_runtime(fibo_tid).as_secs_f64(),
        obs: obs_of(k),
    })
}

/// The full figure: both schedulers.
#[derive(Debug, serde::Serialize)]
pub struct Fig1 {
    /// CFS run (Figure 1a).
    pub cfs: Fig1Run,
    /// ULE run (Figure 1b).
    pub ule: Fig1Run,
}

/// Run both schedulers (in parallel when the runner pool allows); a
/// failure is CFS's if both fail.
pub fn run_both(cfg: &RunCfg) -> Result<Fig1, Crash> {
    let (cfs, ule) = crate::runner::join(
        cfg.threads,
        || run(Sched::Cfs, cfg),
        || run(Sched::Ule, cfg),
    );
    Ok(Fig1 {
        cfs: cfs?,
        ule: ule?,
    })
}

/// Render the two panels as ASCII charts.
pub fn report(fig: &Fig1) -> String {
    let mut s = String::new();
    s.push_str("Figure 1(a) — cumulative runtime on CFS\n");
    s.push_str(&TimeSeries::ascii_chart(
        &[&fig.cfs.fibo_runtime, &fig.cfs.sysbench_runtime],
        72,
        14,
    ));
    s.push_str("\nFigure 1(b) — cumulative runtime on ULE\n");
    s.push_str(&TimeSeries::ascii_chart(
        &[&fig.ule.fibo_runtime, &fig.ule.sysbench_runtime],
        72,
        14,
    ));
    s.push_str(&format!(
        "\nsysbench completion: CFS {:?}s vs ULE {:?}s (paper: 235s vs 143s)\n",
        fig.cfs.sysbench_done_s.map(|v| v.round()),
        fig.ule.sysbench_done_s.map(|v| v.round()),
    ));
    s
}

/// Check the paper's qualitative claims; returns human-readable failures.
pub fn validate(fig: &Fig1) -> Vec<String> {
    let mut bad = Vec::new();
    // (1) Under ULE, fibo is starved while sysbench runs: its runtime
    // barely progresses between sysbench's start and completion.
    if let Some(done) = fig.ule.sysbench_done_s {
        let before = fig
            .ule
            .fibo_runtime
            .points
            .iter()
            .find(|&&(t, _)| t >= 0.05 * done)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        let at_done = fig
            .ule
            .fibo_runtime
            .points
            .iter()
            .take_while(|&&(t, _)| t <= done)
            .last()
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        let span = 0.9 * done;
        if (at_done - before) > 0.15 * span {
            bad.push(format!(
                "ULE: fibo not starved (gained {:.1}s over {:.1}s)",
                at_done - before,
                span
            ));
        }
    } else {
        bad.push("ULE: sysbench never completed".into());
    }
    // (2) Under CFS, fibo keeps progressing while sysbench runs.
    if let Some(done) = fig.cfs.sysbench_done_s {
        let at_done = fig
            .cfs
            .fibo_runtime
            .points
            .iter()
            .take_while(|&&(t, _)| t <= done)
            .last()
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        if at_done < 0.25 * done {
            bad.push(format!(
                "CFS: fibo starved ({at_done:.1}s runtime in {done:.1}s)"
            ));
        }
    } else {
        bad.push("CFS: sysbench never completed".into());
    }
    // (3) Sysbench is roughly twice as fast on ULE.
    let (c, u) = (fig.cfs.sysbench_tx_per_s, fig.ule.sysbench_tx_per_s);
    if !(u > 1.3 * c) {
        bad.push(format!("sysbench tx/s: ULE {u:.0} not >> CFS {c:.0}"));
    }
    // (4) Latency is much lower on ULE.
    if !(fig.ule.sysbench_avg_latency_ms < 0.7 * fig.cfs.sysbench_avg_latency_ms) {
        bad.push(format!(
            "latency: ULE {:.0}ms not << CFS {:.0}ms",
            fig.ule.sysbench_avg_latency_ms, fig.cfs.sysbench_avg_latency_ms
        ));
    }
    // (5) Dispatch latency: starving fibo gives ULE the worse worst-case
    // run delay...
    let (c, u) = (&fig.cfs.obs, &fig.ule.obs);
    if !(u.run_delay.max_ms > c.run_delay.max_ms) {
        bad.push(format!(
            "max run delay: ULE {:.1}ms not > CFS {:.1}ms",
            u.run_delay.max_ms, c.run_delay.max_ms
        ));
    }
    // ...while its interactive sysbench workers wake faster than under
    // CFS's fair-share queueing.
    if !(u.wakeup_latency.p99_ms < c.wakeup_latency.p99_ms) {
        bad.push(format!(
            "wakeup p99: ULE {:.3}ms not < CFS {:.3}ms",
            u.wakeup_latency.p99_ms, c.wakeup_latency.p99_ms
        ));
    }
    bad
}
