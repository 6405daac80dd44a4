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
//! parameter that shrinks work volumes (tests use small scales; the
//! `battle` CLI defaults to the paper-sized runs). Every driver run is a
//! scenario the scenario engine runs: Figures 1, 6 and 7 run their
//! `scenarios/figN.toml` files, Figures 3–4, the ablations and the
//! desktop check theirs under `scenarios/drivers/` (all compiled in), and
//! every cell of Figures 5, 8 and 9 and of the desktop check is a
//! [`suite_case`]. An ablation is its stock scenario plus a
//! `[params.<class>]` table. Only chaos's probes build kernels by hand:
//! they test the supervisor with behaviours that are broken on purpose.
//!
//! Failures are values. A driver returns `Result<_, Crash>`: a failed run
//! comes back as a [`Crash`] carrying the case file `battle run` replays,
//! and a pooled driver reports its first failure in input order, after
//! every cell has run, so the report is the same at any `--threads`.
//! Nothing in this crate prints, writes a file or exits, apart from the
//! worker pool's one-line panic report and the Chrome trace `--trace`
//! streams: `battle`'s `main` does all of that.

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

use kernel::{AppId, CheckMode, Kernel};
use scenario::expr::TimeExpr;
use scenario::spec::{PhaseSpec, TopoSpec, WorkloadSpec};
use scenario::{EngineOpts, Observer, RunOutput, Scenario};
use simcore::{Dur, Time};
use workloads::Metric;

pub use crash::Crash;
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

    /// Scenario-engine options for this run (no budget, no cancellation).
    pub fn engine_opts(&self) -> EngineOpts {
        EngineOpts {
            scale: self.scale,
            seed: self.seed,
            check: self.check,
            ..EngineOpts::default()
        }
    }
}

/// Parse a driver's compiled-in scenario.
fn figure_scenario(toml: &str) -> Scenario {
    Scenario::from_toml(toml).unwrap_or_else(|e| panic!("compiled-in figure scenario: {e}"))
}

/// Run scenario `sc` (a figure's file or a generated case) under `sched`
/// with `obs` watching every step. A failed run (see [`Crash::of_run`])
/// comes back as its crash, carrying `sc` restricted to `sched` as the
/// case file that `battle run` replays.
fn try_run_case(
    sc: &Scenario,
    sched: Sched,
    cfg: &RunCfg,
    obs: &mut impl Observer,
) -> Result<RunOutput, Crash> {
    let label = crash::case_label(sc, sched);
    let replay = crash::replay(&crash::path(&label, "json"), cfg);
    let result = scenario::run_observed(sc, sched, &cfg.engine_opts(), obs);
    Crash::of_run(label, result, replay).map_err(|c| c.with_case(sc, sched))
}

/// fibo's CPU time over the window from 4 s, when sysbench is in full
/// swing, to the end of scenario `sc`'s run under `sched` (see
/// [`try_run_case`]). fibo is phase 0, and 4 s lies on the step grid.
fn fibo_window(sc: &Scenario, sched: Sched, cfg: &RunCfg) -> Result<Dur, Crash> {
    let start = Time::ZERO + Dur::secs(4);
    let fibo_runtime =
        |k: &Kernel, apps: &[(String, AppId)]| k.task_runtime(k.app_tasks(apps[0].1)[0]);
    let mut before = None;
    let mut at_start = |k: &Kernel, apps: &[(String, AppId)]| {
        if k.now() == start {
            before = Some(fibo_runtime(k, apps));
        }
    };
    let out = try_run_case(sc, sched, cfg, &mut at_start)?;
    let before = before.expect("the run reaches the window start");
    Ok(fibo_runtime(&out.kernel, &out.apps) - before)
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
}

/// Capture a [`SchedObs`] from a kernel at the end of a run.
pub fn obs_of(k: &Kernel) -> SchedObs {
    SchedObs {
        counters: k.counters().clone(),
        run_delay: k.run_delay().summary(),
        wakeup_latency: k.wakeup_latency().summary(),
        digest: k.decision_digest(),
    }
}

/// Result of one suite entry in a suite cell under one scheduler.
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

/// Catalog name of the per-core kernel-noise daemon.
const NOISE: &str = "kworkers";

/// A suite cell as a scenario: the catalog `entries` (see
/// [`workloads::entry`]) launched together on the `preset` machine, each
/// phase named after its entry. With `noise` the per-core `kworkers`
/// daemon starts at 0 s and the entries at 1 s, so the kthreads' load
/// residue is there to perturb CFS's placement, as on a live machine
/// (§6.3); without it the entries start at 0 s. The run is sampled every
/// 100 ms and stops once every entry is done, or at the horizon
/// `base × max(scale, 0.05) + 120 s`, `base` being 600 s for one app and
/// 900 s for co-scheduled apps (suite apps are sized for tens of
/// simulated seconds at scale 1).
pub fn suite_case(entries: &[&str], preset: &str, noise: bool) -> Scenario {
    let phase = |entry: &str, at: f64| PhaseSpec {
        name: entry.to_string(),
        tenant: None,
        at: TimeExpr::fixed(at),
        workload: WorkloadSpec::Suite {
            entry: entry.to_string(),
        },
    };
    let start = if noise { 1.0 } else { 0.0 };
    let phases = noise
        .then(|| phase(NOISE, 0.0))
        .into_iter()
        .chain(entries.iter().map(|e| phase(e, start)))
        .collect();
    let horizon = TimeExpr {
        base_s: if entries.len() == 1 { 600.0 } else { 900.0 },
        scale_min: 0.05,
        plus_s: 120.0,
        ..TimeExpr::default()
    };
    Scenario::new(
        entries.join("+"),
        TopoSpec::Preset(preset.to_string()),
        phases,
        horizon,
    )
}

/// Run suite cell `sc` (see [`suite_case`]) under `sched` and measure
/// each entry, in phase order, by the entry's [`Metric`].
pub fn run_cell(sc: &Scenario, sched: Sched, cfg: &RunCfg) -> Result<Vec<PerfResult>, Crash> {
    let out = try_run_case(sc, sched, cfg, &mut ())?;
    let obs = obs_of(&out.kernel);
    let results = out
        .run
        .apps
        .iter()
        .filter_map(|app| {
            let entry = workloads::entry(&app.phase).filter(|e| e.name != NOISE)?;
            let perf = match entry.metric {
                Metric::Ops => app.ops_per_sec,
                Metric::InvTime => app.elapsed_s.filter(|&e| e > 0.0).map_or(0.0, |e| 1.0 / e),
            };
            Some(PerfResult {
                name: entry.name.to_string(),
                sched,
                elapsed_s: app.elapsed_s,
                ops: app.ops,
                perf,
                obs: obs.clone(),
            })
        })
        .collect();
    Ok(results)
}

/// Run every suite cell of `cells` on the worker pool, each as
/// [`run_cell`] does, results in input order. Every cell runs; a failure
/// comes back as the first failed cell's crash in input order, whatever
/// the pool size.
pub fn run_cells(cells: &[(Scenario, Sched)], cfg: &RunCfg) -> Result<Vec<Vec<PerfResult>>, Crash> {
    let cells: Vec<&(Scenario, Sched)> = cells.iter().collect();
    runner::par_map(cfg.threads, cells, |(sc, sched)| run_cell(sc, *sched, cfg))
        .into_iter()
        .collect()
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

    /// Two failing cells through the pooled path: every cell runs, and the
    /// crash that comes back is the first cell's, the same at one worker
    /// and at four, with nothing written to disk.
    #[test]
    fn pooled_cells_report_the_first_failure_at_any_pool_size() {
        let mut sc = suite_case(&["Apache"], "single-core", false);
        // Two events at one instant already count as a stall.
        sc.budget.stall_events = Some(2);
        let cells = [(sc.clone(), Sched::Ule), (sc, Sched::Cfs)];
        let labels = ["Apache-ULE", "Apache-CFS"];
        let files = || labels.map(|l| [crash::path(l, "txt"), crash::path(l, "json")]);
        for file in files().iter().flatten() {
            std::fs::remove_file(file).ok();
        }
        let crash_at = |threads| {
            let cfg = RunCfg {
                threads,
                ..RunCfg::at_scale(0.02)
            };
            run_cells(&cells, &cfg).expect_err("both cells stall")
        };
        let one = crash_at(1);
        assert_eq!(one.label, labels[0]);
        assert_eq!(one.kind, "livelock");
        assert_eq!(
            one.case.as_ref().map(|c| &c.scheds[..]),
            Some(&[Sched::Ule][..])
        );
        assert_eq!(crash_at(4), one);
        for file in files().iter().flatten() {
            assert!(!file.exists(), "{} was written", file.display());
        }
    }

    #[test]
    fn watchdog_abort_fails_the_cell() {
        let cfg = RunCfg::at_scale(0.02);
        let mut sc = suite_case(&["Apache"], "single-core", false);
        assert!(try_run_case(&sc, Sched::Cfs, &cfg, &mut ()).is_ok());
        // Every task of the app spawns at 0 s: two events at one instant
        // already count as a stall.
        sc.budget.stall_events = Some(2);
        let Err(c) = try_run_case(&sc, Sched::Cfs, &cfg, &mut ()) else {
            panic!("a tripped watchdog must fail the cell");
        };
        assert_eq!(c.label, "Apache-CFS");
        assert!(c.error.contains("stalled"), "{}", c.error);
        assert!(c.report.contains(&c.error), "{}", c.report);
        // A livelock is named as one, not as an invariant violation.
        assert_eq!(c.kind, "livelock");
        assert!(c.report.starts_with("crash report: livelock\n"));
        assert!(!c.report.contains("invariant"), "{}", c.report);
        let file = crash::path("Apache-CFS", "json");
        assert_eq!(
            c.replay,
            format!(
                "battle run {} --seed 42 --scale 0.02 --check strict",
                file.display()
            )
        );
        // What `battle run` replays is the same partial run, which it fails.
        let replayed = scenario::run_sched(&sc, Sched::Cfs, &cfg.engine_opts()).unwrap();
        assert_eq!(replayed.run.abort.as_ref(), Some(&c.error));
    }
}
