//! Experiment drivers: one module per table/figure of the paper.
//!
//! | Module     | Reproduces |
//! |------------|------------|
//! | [`table1`] | Table 1 — the scheduling-class API mapping |
//! | [`fig1`]   | Figure 1 — fibo + sysbench cumulative runtime, CFS vs ULE |
//! | [`fig2`]   | Figure 2 — interactivity penalties over time |
//! | [`table2`] | Table 2 — fibo runtime, sysbench tx/s and latency |
//! | [`fig34`]  | Figures 3 & 4 — single-app starvation inside sysbench |
//! | [`fig5`]   | Figure 5 — 37-application suite on a single core |
//! | [`fig6`]   | Figure 6 — rebalancing 512 unpinned spinners |
//! | [`fig7`]   | Figure 7 — c-ray thread placement and wakeup cascade |
//! | [`fig8`]   | Figure 8 — the suite on the 32-core machine |
//! | [`fig9`]   | Figure 9 — multi-application workloads |
//! | [`ablations`] | design-choice ablations (cgroups, balancer bug, NUMA tolerance, wakeup preemption) |
//!
//! All drivers are deterministic given a seed and accept a `scale`
//! parameter that shrinks work volumes (tests and benches use small
//! scales; the `battle` CLI defaults to the paper-sized runs). Figures 1,
//! 6 and 7 run their `scenarios/figN.toml` files (compiled in) through the
//! scenario engine, so each workload is defined once, in its file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > y)` in shape checks is deliberate: it reads as "the claim failed"
// and handles NaN conservatively (a NaN measurement must flag the check).
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Param structs are built by tweaking a Default; that is their API.
#![allow(clippy::field_reassign_with_default)]

pub mod ablations;
pub mod chaos;
pub mod crash;
pub mod desktop;
pub mod fig1;
pub mod fig2;
pub mod fig34;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fuzz;
pub mod golden;
pub mod runner;
pub mod scenarios;
pub mod scope;
pub mod table1;
pub mod table2;
pub mod tournament;
pub mod tune;

use kernel::{AppId, CheckMode, FaultPlan, Kernel};
use scenario::{EngineError, EngineOpts, Observer, RunOutput, Scenario};
use simcore::{Dur, Time};
use topology::Topology;
use workloads::{Entry, Metric, P};

pub use scenario::Sched;

/// Common run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Work-volume scale (1.0 = paper-sized).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// SchedSan mode of every kernel the run builds (`battle --check`).
    pub check: CheckMode,
    /// Worker threads the run's independent simulations fan out over
    /// (`battle --threads`). Output never depends on it.
    pub threads: usize,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            scale: 1.0,
            seed: 42,
            check: CheckMode::Off,
            threads: runner::default_threads(),
        }
    }
}

impl RunCfg {
    /// Config with the default seed at the given scale.
    pub fn at_scale(scale: f64) -> RunCfg {
        RunCfg {
            scale,
            ..Default::default()
        }
    }

    /// Scenario-engine options for this run (no budget, no cancellation,
    /// stock scheduler parameters).
    pub fn engine_opts(&self) -> EngineOpts {
        EngineOpts {
            scale: self.scale,
            seed: self.seed,
            check: self.check,
            ..EngineOpts::default()
        }
    }
}

/// Build a kernel for `topo` driven by `sched`, with `cfg`'s seed and
/// check mode. Delegates to [`scenario::make_kernel`] (the one kernel
/// factory the drivers and the scenario engine share).
pub fn make_kernel(topo: &Topology, sched: Sched, cfg: &RunCfg) -> Kernel {
    scenario::make_kernel(topo, sched, cfg.seed, cfg.check, FaultPlan::default())
}

/// Parse a figure's compiled-in scenario file.
fn figure_scenario(toml: &str) -> Scenario {
    Scenario::from_toml(toml).unwrap_or_else(|e| panic!("compiled-in figure scenario: {e}"))
}

/// Run a figure's scenario under `sched` with `obs` sampling every step.
/// A simulator error (a strict-mode violation) writes a crash bundle and
/// exits, like [`run_entry`].
fn run_figure(sc: &Scenario, sched: Sched, cfg: &RunCfg, obs: &mut impl Observer) -> RunOutput {
    match scenario::run_observed(sc, sched, &cfg.engine_opts(), obs) {
        Ok(out) => out,
        Err(EngineError::Crash(c)) => crash::Crash {
            label: format!("{}-{}", sc.name, sched.name()),
            error: c.error,
            report: c.report,
            replay: format!(
                "battle {} --seed {} --scale {} --check strict",
                sc.name, cfg.seed, cfg.scale
            ),
        }
        .bail(),
        Err(EngineError::Spec(e)) => panic!("figure scenario {}: {e}", sc.name),
    }
}

/// Structured observability snapshot of one finished kernel run
/// (SchedScope): the counters plus the dispatch-latency distributions the
/// kernel's hot path records. Attached to every figure's JSON dump so
/// regressions in scheduling latency are visible without re-running.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SchedObs {
    /// Kernel activity counters at the end of the run.
    pub counters: kernel::Counters,
    /// Runnable→running dispatch delay over *all* dispatches.
    pub run_delay: metrics::LatencySummary,
    /// Wakeup→dispatch latency (waits that started at a wakeup, the
    /// paper's scheduling-latency notion).
    pub wakeup_latency: metrics::LatencySummary,
    /// Decision digest at the end of the run (what the golden-digest
    /// regression gate pins).
    pub digest: u64,
    /// `true` if the run was aborted by supervision (budget, watchdog or
    /// cancellation) and these numbers are a salvaged partial snapshot.
    pub partial: bool,
}

/// Capture a [`SchedObs`] from a kernel at the end of a run.
pub fn obs_of(k: &Kernel) -> SchedObs {
    SchedObs {
        counters: k.counters().clone(),
        run_delay: k.run_delay().summary(),
        wakeup_latency: k.wakeup_latency().summary(),
        digest: k.decision_digest(),
        partial: false,
    }
}

/// Result of running one suite entry under one scheduler.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PerfResult {
    /// Application name.
    pub name: String,
    /// Scheduler used.
    pub sched: Sched,
    /// Wall-clock completion time (seconds); `None` if the limit was hit.
    pub elapsed_s: Option<f64>,
    /// Operations completed.
    pub ops: u64,
    /// The §5.3 performance number: ops/s for database & NAS workloads,
    /// 1/time for everything else.
    pub perf: f64,
    /// End-of-run observability snapshot (SchedScope).
    pub obs: SchedObs,
}

/// Run one suite entry to completion under `sched` and measure it.
///
/// `with_noise` adds the per-core kernel-noise daemon (used by the
/// multicore experiments; see `workloads::noise`).
pub fn run_entry(
    entry: &Entry,
    sched: Sched,
    topo: &Topology,
    cfg: &RunCfg,
    with_noise: bool,
) -> PerfResult {
    match try_run_entry(entry, sched, topo, cfg, with_noise) {
        Ok(r) => r,
        Err(c) => c.bail(),
    }
}

/// Like [`run_entry`], but an invariant violation (strict mode) comes back
/// as a [`crash::Crash`] instead of aborting the process.
pub fn try_run_entry(
    entry: &Entry,
    sched: Sched,
    topo: &Topology,
    cfg: &RunCfg,
    with_noise: bool,
) -> Result<PerfResult, crash::Crash> {
    let mut k = make_kernel(topo, sched, cfg);
    let p = P::scaled(topo.nr_cpus(), cfg.scale);
    let mut start = Time::ZERO;
    if with_noise {
        let noise = workloads::noise::kernel_noise(&mut k, &p);
        k.queue_app(Time::ZERO, noise);
        // Let the background kthreads run before the workload starts, as
        // on a live machine: their load residue is what perturbs CFS's
        // placement (§6.3).
        start = Time::ZERO + Dur::secs(1);
    }
    let spec = (entry.build)(&mut k, &p);
    let app = k.queue_app(start, spec);
    // A generous limit: suite apps are sized for tens of simulated seconds
    // at scale 1.
    let limit = Time::ZERO + Dur::secs_f64(600.0 * cfg.scale.max(0.05) + 120.0);
    let done = k.try_run_until_apps_done(limit).map_err(|e| {
        let label = format!("{}-{}", entry.name, sched.name());
        let replay = format!(
            "battle <experiment> --seed {} --scale {} --check strict",
            cfg.seed, cfg.scale
        );
        crash::Crash::capture(&k, &e, &label, &replay)
    })?;
    Ok(perf_of(entry, sched, &k, app, done))
}

/// Compute the §5.3 performance number for a finished (or timed-out) app
/// that ran under `sched`.
pub fn perf_of(entry: &Entry, sched: Sched, k: &Kernel, app: AppId, done: bool) -> PerfResult {
    let a = k.app(app);
    let elapsed = a.elapsed().map(|d| d.as_secs_f64());
    let perf = match entry.metric {
        Metric::Ops => a.ops_per_sec(k.now()),
        Metric::InvTime => match elapsed {
            Some(e) if e > 0.0 => 1.0 / e,
            _ => 0.0,
        },
    };
    PerfResult {
        name: entry.name.to_string(),
        sched,
        elapsed_s: if done { elapsed } else { None },
        ops: a.ops,
        perf,
        obs: obs_of(k),
    }
}

/// Percentage difference of ULE relative to CFS, the y-axis of Figures 5
/// and 8: "> 0 means the application runs faster with ULE than CFS".
pub fn pct_diff(ule: f64, cfs: f64) -> f64 {
    if cfs == 0.0 {
        0.0
    } else {
        (ule - cfs) / cfs * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_signs() {
        assert!((pct_diff(2.0, 1.0) - 100.0).abs() < 1e-12);
        assert!((pct_diff(0.5, 1.0) + 50.0).abs() < 1e-12);
        assert_eq!(pct_diff(1.0, 0.0), 0.0);
    }

    #[test]
    fn make_kernel_both_scheds() {
        let topo = Topology::single_core();
        let cfg = RunCfg::default();
        assert_eq!(make_kernel(&topo, Sched::Cfs, &cfg).sched_name(), "cfs");
        assert_eq!(make_kernel(&topo, Sched::Ule, &cfg).sched_name(), "ule");
    }
}
