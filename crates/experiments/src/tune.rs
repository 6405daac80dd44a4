//! `battle tune` — deterministic parameter search over the scenario corpus.
//!
//! Searches a scheduler's declared parameter space ([`scenario::param_dims`])
//! for a vector that beats the stock defaults on the tournament composite
//! (throughput, p99 run-delay, max starvation wait, Jain fairness),
//! aggregated over a scenario corpus with per-workload-class weights. The
//! search itself lives in the `tune` crate (seeded cross-entropy global
//! phase plus coordinate descent); this module supplies the objective:
//!
//! 1. Run the corpus once with stock parameters — the baseline. Its
//!    per-scenario event counts also size a [`RunBudget`] for every
//!    candidate run (16× stock events), so a livelocked or diverging
//!    candidate is killed by SchedGuard and scores 0 instead of hanging
//!    the search.
//! 2. Each candidate's per-scenario composite is measured *relative to
//!    stock* (ratios capped at 2× so one scenario cannot dominate), then
//!    averaged with the class weights. Stock scores exactly
//!    `(3 + jain) / 4` under this scheme, so tuned-vs-stock composites
//!    are directly comparable.
//!
//! Candidate × scenario runs fan out through
//! [`runner::par_map_supervised`], which returns results in submission
//! order whatever the pool size — the whole report (ASCII, JSON, and the
//! emitted `results/tuned/<sched>.toml`) is byte-identical across
//! `--threads` values.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

use ::tune::{search, SearchCfg, TrajPoint};
use kernel::RunBudget;
use metrics::table::Table;
use scenario::{EngineError, EngineOpts, Scenario, Sched};
use sched_api::params::{Dim, DimScale, ParamVector};

use crate::{runner, scenarios, tournament, RunCfg};

/// Ratio cap for per-metric tuned/stock comparisons: a candidate can earn
/// at most "twice as good as stock" on any one metric, so a single
/// degenerate scenario cannot buy back losses everywhere else.
const REL_CAP: f64 = 2.0;

/// `battle tune` configuration.
#[derive(Debug, Clone)]
pub struct TuneCfg {
    /// Candidate evaluations per scheduler (including the stock default).
    pub budget: usize,
    /// Scale, seed and check mode of the corpus runs (the seed also seeds
    /// the search).
    pub run: RunCfg,
    /// Schedulers to tune (default: every scheduler with tunables).
    pub scheds: Vec<Sched>,
    /// Write `results/tuned/<sched>.toml` + `table.md` artifacts.
    pub write: bool,
    /// Artifact directory for `--write`.
    pub out_dir: String,
}

impl Default for TuneCfg {
    fn default() -> Self {
        TuneCfg {
            budget: 64,
            run: RunCfg::default(),
            scheds: Sched::TUNABLE.to_vec(),
            write: false,
            out_dir: "results/tuned".into(),
        }
    }
}

/// Workload class of a scenario, for the tuned-vs-stock breakdown. New
/// scenarios fall into `misc` until given a class here.
pub fn class_of(name: &str) -> &'static str {
    match name {
        "fig1" => "batch-interactive",
        "fig6" => "spinner-herd",
        "fig7" => "fork-join",
        "bursty-server" => "server",
        "thundering-herd" => "wakeup-storm",
        "numa-imbalance" => "numa",
        "priority-inversion" => "priority",
        "mixed-nice" => "nice-mix",
        _ => "misc",
    }
}

/// Objective weight of a workload class. The paper's headline results are
/// interactivity under batch load and rebalancing herds, so those classes
/// count a little more.
pub fn weight_of(class: &str) -> f64 {
    match class {
        "batch-interactive" => 1.5,
        "spinner-herd" | "wakeup-storm" => 1.25,
        _ => 1.0,
    }
}

/// One (scenario, candidate) measurement, reduced to the scoring metrics.
#[derive(Debug, Clone, Copy)]
struct Meas {
    throughput: f64,
    p99_ms: f64,
    wait_ms: f64,
    jain: f64,
    events: u64,
}

/// Tuned/stock ratio for a "higher is better" metric, capped at
/// [`REL_CAP`].
fn rel_hi(cand: f64, stock: f64) -> f64 {
    if stock <= 0.0 {
        if cand > 0.0 {
            REL_CAP
        } else {
            1.0
        }
    } else {
        (cand / stock).clamp(0.0, REL_CAP)
    }
}

/// Stock/tuned ratio for a "lower is better" metric, capped at
/// [`REL_CAP`]. Zero on both sides is a tie; eliminating a delay stock
/// had earns the cap; introducing one stock lacked scores 0.
fn rel_lo(cand: f64, stock: f64) -> f64 {
    if cand <= 0.0 && stock <= 0.0 {
        1.0
    } else if cand <= 0.0 {
        REL_CAP
    } else if stock <= 0.0 {
        0.0
    } else {
        (stock / cand).clamp(0.0, REL_CAP)
    }
}

/// Per-scenario composite of a candidate measurement relative to stock.
/// `composite_rel(stock, stock)` is exactly `(3 + jain) / 4`.
fn composite_rel(cand: &Meas, stock: &Meas) -> f64 {
    (rel_hi(cand.throughput, stock.throughput)
        + rel_lo(cand.p99_ms, stock.p99_ms)
        + rel_lo(cand.wait_ms, stock.wait_ms)
        + cand.jain.clamp(0.0, 1.0))
        / 4.0
}

/// Run one scenario under one candidate vector. `None` params = stock.
/// Partial (supervision-aborted) and crashed runs come back as `Err`.
fn run_meas(
    sc: &Scenario,
    sched: Sched,
    cfg: &TuneCfg,
    budget: RunBudget,
    params: Option<&ParamVector>,
) -> Result<Meas, String> {
    let opts = EngineOpts {
        budget,
        params: params.cloned(),
        ..cfg.run.engine_opts()
    };
    let out = scenario::run_sched(sc, sched, &opts).map_err(|e| match e {
        EngineError::Spec(s) => format!("[{} × {}] {s}", sc.name, sched.name()),
        EngineError::Crash(c) => format!("[{} × {}] crash: {}", sc.name, sched.name(), c.error),
    })?;
    let cell = tournament::cell_of(&out);
    if cell.partial {
        return Err(format!(
            "[{} × {}] aborted by supervision ({})",
            sc.name,
            sched.name(),
            out.run.abort.as_deref().unwrap_or("budget")
        ));
    }
    Ok(Meas {
        throughput: cell.throughput,
        p99_ms: cell.p99_run_delay_ms,
        wait_ms: cell.max_wait_ms,
        jain: cell.jain,
        events: out.run.counters.events,
    })
}

/// One tunable dimension in the report: declared bounds plus the stock and
/// tuned raw values.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DimReport {
    /// Dimension name (the key in the emitted TOML's `[params]`).
    pub name: String,
    /// Scale kind ("linear", "log", "integer", "duration").
    pub scale: String,
    /// Lower bound (raw units; nanoseconds for durations).
    pub lo: f64,
    /// Upper bound (raw units).
    pub hi: f64,
    /// Stock default (raw units).
    pub stock: f64,
    /// Tuned incumbent value (raw units).
    pub tuned: f64,
}

/// Tuned-vs-stock standing of one workload class.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ClassRow {
    /// Workload class (see [`class_of`]).
    pub class: String,
    /// Objective weight of the class (see [`weight_of`]).
    pub weight: f64,
    /// Scenarios in the class.
    pub scenarios: usize,
    /// Stock weighted composite over the class.
    pub stock: f64,
    /// Tuned weighted composite over the class.
    pub tuned: f64,
}

/// The full `battle tune` result for one scheduler.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TuneReport {
    /// Scheduler that was tuned.
    pub sched: Sched,
    /// Work-volume scale of the corpus runs.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Requested evaluation budget.
    pub budget: usize,
    /// Evaluations actually spent (dedup never re-scores a vector).
    pub evals: usize,
    /// Scenario names, in corpus order.
    pub scenarios: Vec<String>,
    /// Stock weighted composite over the corpus (evaluation #1).
    pub stock_composite: f64,
    /// Incumbent weighted composite (never below stock).
    pub tuned_composite: f64,
    /// `(tuned - stock) / stock`, percent.
    pub improvement_pct: f64,
    /// Per-dimension bounds and stock/tuned values.
    pub dims: Vec<DimReport>,
    /// The incumbent vector (raw values, dimension order).
    pub incumbent: ParamVector,
    /// Tuned-vs-stock breakdown per workload class.
    pub classes: Vec<ClassRow>,
    /// Best-so-far trajectory, one point per evaluation.
    pub trajectory: Vec<TrajPoint>,
    /// Stock-baseline failures (a failing scenario is dropped from the
    /// objective); empty means the whole corpus scored.
    pub failures: Vec<String>,
}

/// Tune one scheduler over a pre-loaded corpus.
pub fn run(corpus: &[(PathBuf, Scenario)], sched: Sched, cfg: &TuneCfg) -> TuneReport {
    let dims = scenario::param_dims(sched);
    let mut failures: Vec<String> = Vec::new();

    // Stage 1: stock baseline, unbudgeted, fanned out over the corpus.
    let idxs: Vec<usize> = (0..corpus.len()).collect();
    let base_outcomes = runner::par_map_supervised(cfg.run.threads, idxs, |i| {
        run_meas(&corpus[i].1, sched, cfg, RunBudget::default(), None)
    });
    // Scenarios that score, each with its stock measurement: stock
    // completed, so ratios are well defined.
    let mut scored: Vec<(usize, Meas)> = Vec::with_capacity(corpus.len());
    for (i, o) in base_outcomes.into_iter().enumerate() {
        match o {
            runner::JobOutcome::Done(Ok(m)) => scored.push((i, m)),
            runner::JobOutcome::Done(Err(msg)) => failures.push(format!("stock baseline: {msg}")),
            runner::JobOutcome::Panicked(msg) => failures.push(format!(
                "stock baseline: [{} × {}] panic: {msg}",
                corpus[i].1.name,
                sched.name()
            )),
        }
    }
    let weights: Vec<f64> = scored
        .iter()
        .map(|&(i, _)| weight_of(class_of(&corpus[i].1.name)))
        .collect();
    let wsum: f64 = weights.iter().sum();

    // Candidate runs get 16× the stock event count before SchedGuard kills
    // them: generous for any sane config, tight enough that a tick-storm
    // or livelock candidate dies quickly and scores 0.
    let cand_budget = |stock: &Meas| RunBudget {
        max_events: Some(stock.events.saturating_mul(16).saturating_add(65_536)),
        ..RunBudget::default()
    };

    // Per-candidate measurements, keyed by the vector's bit pattern, so
    // the class breakdown below reuses the search's own runs.
    let meas_cache: RefCell<HashMap<Vec<u64>, Vec<Option<Meas>>>> = RefCell::new(HashMap::new());

    let objective = |batch: &[ParamVector]| -> Vec<f64> {
        // Fan out candidate × scenario; submission order fixes result
        // order, so scoring is thread-count independent.
        let jobs: Vec<(usize, usize)> = (0..batch.len())
            .flat_map(|b| (0..scored.len()).map(move |k| (b, k)))
            .collect();
        let outcomes = runner::par_map_supervised(cfg.run.threads, jobs.clone(), |(b, k)| {
            let (i, stock) = scored[k];
            run_meas(
                &corpus[i].1,
                sched,
                cfg,
                cand_budget(&stock),
                Some(&batch[b]),
            )
        });
        let mut per_cand: Vec<Vec<Option<Meas>>> = vec![Vec::new(); batch.len()];
        for (&(b, _), o) in jobs.iter().zip(outcomes) {
            per_cand[b].push(match o {
                runner::JobOutcome::Done(Ok(m)) => Some(m),
                _ => None, // diverged, crashed or panicked: scores 0 below
            });
        }
        batch
            .iter()
            .zip(per_cand)
            .map(|(v, meas)| {
                let score = if wsum > 0.0 {
                    scored
                        .iter()
                        .zip(&meas)
                        .zip(&weights)
                        .map(|(((_, stock), m), w)| match m {
                            Some(m) => w * composite_rel(m, stock),
                            None => 0.0,
                        })
                        .sum::<f64>()
                        / wsum
                } else {
                    0.0
                };
                meas_cache.borrow_mut().insert(v.bits_key(), meas);
                score
            })
            .collect()
    };

    let scfg = SearchCfg {
        budget: cfg.budget,
        seed: cfg.run.seed,
        ..SearchCfg::default()
    };
    let result = search(&dims, &scfg, objective);

    // Class breakdown from the cached incumbent + stock measurements.
    let cache = meas_cache.borrow();
    let stock_meas = cache
        .get(&ParamVector::defaults(&dims).bits_key())
        .cloned()
        .unwrap_or_default();
    let tuned_meas = cache
        .get(&result.incumbent.bits_key())
        .cloned()
        .unwrap_or_default();
    let mut classes: Vec<ClassRow> = Vec::new();
    for (k, &(i, stock)) in scored.iter().enumerate() {
        let class = class_of(&corpus[i].1.name);
        let stock_c = stock_meas
            .get(k)
            .and_then(|m| m.as_ref())
            .map(|m| composite_rel(m, &stock))
            .unwrap_or(0.0);
        let tuned_c = tuned_meas
            .get(k)
            .and_then(|m| m.as_ref())
            .map(|m| composite_rel(m, &stock))
            .unwrap_or(0.0);
        match classes.iter_mut().find(|r| r.class == class) {
            Some(row) => {
                let n = row.scenarios as f64;
                row.stock = (row.stock * n + stock_c) / (n + 1.0);
                row.tuned = (row.tuned * n + tuned_c) / (n + 1.0);
                row.scenarios += 1;
            }
            None => classes.push(ClassRow {
                class: class.to_string(),
                weight: weight_of(class),
                scenarios: 1,
                stock: stock_c,
                tuned: tuned_c,
            }),
        }
    }

    let stock_vec = ParamVector::defaults(&dims);
    let dim_reports: Vec<DimReport> = dims
        .iter()
        .enumerate()
        .map(|(i, d)| DimReport {
            name: d.name.to_string(),
            scale: d.scale.label().to_string(),
            lo: d.lo,
            hi: d.hi,
            stock: stock_vec.value(i, &dims),
            tuned: result.incumbent.value(i, &dims),
        })
        .collect();

    let improvement_pct = if result.stock_score > 0.0 {
        (result.incumbent_score - result.stock_score) / result.stock_score * 100.0
    } else {
        0.0
    };
    TuneReport {
        sched,
        scale: cfg.run.scale,
        seed: cfg.run.seed,
        budget: cfg.budget,
        evals: result.evals,
        scenarios: corpus.iter().map(|(_, sc)| sc.name.clone()).collect(),
        stock_composite: result.stock_score,
        tuned_composite: result.incumbent_score,
        improvement_pct,
        dims: dim_reports,
        incumbent: result.incumbent,
        classes,
        trajectory: result.trajectory,
        failures,
    }
}

/// Human-readable raw value: durations as ns/µs/ms/s, integers bare,
/// floats with shortest round-trip formatting.
fn fmt_val(d: &Dim, raw: f64) -> String {
    match d.scale {
        DimScale::Duration => {
            let ns = raw;
            if ns >= 1e9 {
                format!("{:.3}s", ns / 1e9)
            } else if ns >= 1e6 {
                format!("{:.3}ms", ns / 1e6)
            } else if ns >= 1e3 {
                format!("{:.3}µs", ns / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        DimScale::Integer => format!("{}", raw as i64),
        DimScale::Linear | DimScale::Log => format!("{raw:?}"),
    }
}

/// Render the ASCII report: summary, per-class tuned-vs-stock table, and
/// the parameter table.
pub fn render(r: &TuneReport) -> String {
    let mut s = format!(
        "tune: {} over {} scenario(s), budget {} (scale {}, seed {})\n",
        r.sched.name(),
        r.scenarios.len(),
        r.budget,
        r.scale,
        r.seed
    );
    s.push_str(&format!(
        "evals {}: stock composite {:.4} -> tuned {:.4} ({:+.2} %)\n\n",
        r.evals, r.stock_composite, r.tuned_composite, r.improvement_pct
    ));

    let mut classes = Table::new(&["class", "weight", "scenarios", "stock", "tuned", "delta"]);
    for c in &r.classes {
        let delta = if c.stock > 0.0 {
            format!("{:+.2} %", (c.tuned - c.stock) / c.stock * 100.0)
        } else {
            "n/a".to_string()
        };
        classes.push(&[
            c.class.clone(),
            format!("{:.2}", c.weight),
            c.scenarios.to_string(),
            format!("{:.4}", c.stock),
            format!("{:.4}", c.tuned),
            delta,
        ]);
    }
    s.push_str(&classes.render());
    s.push('\n');

    let dims = scenario::param_dims(r.sched);
    let mut params = Table::new(&["param", "scale", "range", "stock", "tuned"]);
    for (d, dr) in dims.iter().zip(&r.dims) {
        params.push(&[
            dr.name.clone(),
            dr.scale.clone(),
            format!("{} .. {}", fmt_val(d, dr.lo), fmt_val(d, dr.hi)),
            fmt_val(d, dr.stock),
            fmt_val(d, dr.tuned),
        ]);
    }
    s.push_str(&params.render());
    if !r.failures.is_empty() {
        s.push('\n');
        for f in &r.failures {
            s.push_str(&format!("FAIL {f}\n"));
        }
    }
    s
}

/// The committed tuned-parameters artifact: a TOML file readable by both
/// humans and `scenario::toml::parse` (the validation test re-parses it
/// and checks every value against the declared bounds).
pub fn tuned_toml(r: &TuneReport) -> String {
    let dims = scenario::param_dims(r.sched);
    let mut s = format!(
        "# `battle tune` incumbent for {}.\n\
         # Reproduce: battle tune scenarios --sched {} --budget {} --seed {} --scale {}\n\
         sched = \"{}\"\nseed = {}\nbudget = {}\nscale = {:?}\n\
         stock_composite = {:?}\ntuned_composite = {:?}\n\n[params]\n",
        r.sched.name(),
        r.sched.flag_name(),
        r.budget,
        r.seed,
        r.scale,
        r.sched.flag_name(),
        r.seed,
        r.budget,
        r.scale,
        r.stock_composite,
        r.tuned_composite,
    );
    for (d, dr) in dims.iter().zip(&r.dims) {
        if d.scale.discrete() {
            s.push_str(&format!("{} = {}\n", dr.name, dr.tuned as i64));
        } else {
            s.push_str(&format!("{} = {:?}\n", dr.name, dr.tuned));
        }
    }
    s
}

/// JSON envelope for `battle tune --json`: one report per scheduler.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TuneBatch {
    /// Reports, in requested scheduler order.
    pub reports: Vec<TuneReport>,
}

/// CLI entry: load the corpus, tune each scheduler, print reports,
/// optionally write JSON and the committed TOML/table artifacts. Returns
/// `false` on baseline failures, a tuned composite below stock, or I/O
/// errors.
pub fn cli(paths: &[String], cfg: &TuneCfg, json: &Option<String>) -> bool {
    let corpus = match scenarios::load(paths) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut reports = Vec::new();
    for &sched in &cfg.scheds {
        if scenario::param_dims(sched).is_empty() {
            eprintln!("{} has no tunables, skipping", sched.name());
            continue;
        }
        let r = run(&corpus, sched, cfg);
        print!("{}", render(&r));
        println!();
        ok &= r.failures.is_empty();
        // The searcher's contract: the incumbent never loses to stock.
        ok &= r.tuned_composite >= r.stock_composite;
        reports.push(r);
    }
    if cfg.write {
        let dir = Path::new(&cfg.out_dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return false;
        }
        let mut table_md = String::from("# `battle tune` — tuned vs stock\n");
        for r in &reports {
            let p = dir.join(format!("{}.toml", r.sched.flag_name()));
            if let Err(e) = std::fs::write(&p, tuned_toml(r)) {
                eprintln!("cannot write {}: {e}", p.display());
                ok = false;
            }
            table_md.push_str(&format!("\n```\n{}```\n", render(r)));
        }
        let tp = dir.join("table.md");
        if let Err(e) = std::fs::write(&tp, table_md) {
            eprintln!("cannot write {}: {e}", tp.display());
            ok = false;
        }
    }
    if let Some(p) = json {
        let batch = TuneBatch { reports };
        match serde_json::to_string_pretty(&batch) {
            Ok(s) => {
                if let Err(e) = std::fs::write(p, s) {
                    eprintln!("cannot write {p}: {e}");
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("cannot serialize report for {p}: {e}");
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_scores_are_capped_and_anchored() {
        let stock = Meas {
            throughput: 100.0,
            p99_ms: 2.0,
            wait_ms: 10.0,
            jain: 0.9,
            events: 1000,
        };
        // Stock vs itself: (1 + 1 + 1 + jain) / 4.
        assert!((composite_rel(&stock, &stock) - (3.0 + 0.9) / 4.0).abs() < 1e-12);
        // A 10× better candidate is capped at 2× per metric.
        let fast = Meas {
            throughput: 1000.0,
            p99_ms: 0.2,
            wait_ms: 1.0,
            jain: 1.0,
            events: 1000,
        };
        assert!((composite_rel(&fast, &stock) - (2.0 + 2.0 + 2.0 + 1.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn rel_edges() {
        assert_eq!(rel_hi(5.0, 0.0), REL_CAP);
        assert_eq!(rel_hi(0.0, 0.0), 1.0);
        assert_eq!(rel_lo(0.0, 0.0), 1.0);
        assert_eq!(rel_lo(0.0, 3.0), REL_CAP);
        assert_eq!(rel_lo(3.0, 0.0), 0.0);
    }

    #[test]
    fn every_scenario_has_a_class_and_weight() {
        for name in ["fig1", "fig6", "fig7", "bursty-server", "whatever"] {
            let c = class_of(name);
            assert!(weight_of(c) > 0.0);
        }
    }
}
