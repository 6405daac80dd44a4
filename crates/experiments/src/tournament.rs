//! `battle tournament` — rank every registered scheduler over a corpus.
//!
//! Runs each scenario file under each scheduler in [`Sched::ALL`] on the
//! supervised worker pool and distils the outcomes into a scorecard. Four
//! metrics feed the ranking:
//!
//! * **throughput** — application operations per simulated second,
//! * **p99 run-delay** — the 99th percentile of runnable→running dispatch
//!   delay (lower is better),
//! * **max starvation wait** — the longest any task sat runnable without
//!   running (lower is better),
//! * **Jain fairness** — `(Σx)² / (n·Σx²)` over per-task CPU service,
//!   1.0 when every task got identical service.
//!
//! Because the metrics live on incomparable scales, each is normalised
//! *within a scenario* against the best scheduler on that scenario
//! (best = 1.0), the four normalised values average into the cell's
//! composite score, and a scheduler's tournament score is its mean
//! composite across the corpus. A run that crashed, violated an invariant
//! or was aborted by supervision scores 0 on that scenario.
//!
//! Determinism: jobs run through [`runner::par_map_supervised`], which
//! returns results in submission order whatever the pool size, and the
//! scoring arithmetic consumes them in that order — the scorecard (ASCII
//! and JSON) is byte-identical across `--threads` values.

use std::path::PathBuf;

use metrics::table::Table;
use scenario::{EngineError, RunOutput, Scenario, Sched};

use crate::{runner, RunCfg};

/// One (scenario, scheduler) outcome, reduced to the scorecard metrics.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Cell {
    /// Scenario name.
    pub scenario: String,
    /// Scheduler that produced this cell.
    pub sched: Sched,
    /// Application operations per simulated second, summed over apps.
    pub throughput: f64,
    /// 99th-percentile runnable→running delay, milliseconds.
    pub p99_run_delay_ms: f64,
    /// Longest runnable-without-running wait, milliseconds.
    pub max_wait_ms: f64,
    /// Jain fairness index over per-task CPU service, in `(0, 1]`.
    pub jain: f64,
    /// Decision digest of the run (16 hex digits).
    pub digest_hex: String,
    /// `true` if supervision aborted the run (salvaged metrics).
    pub partial: bool,
}

/// A scheduler's aggregate standing over the corpus.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Standing {
    /// 1-based rank (1 = winner).
    pub rank: usize,
    /// The scheduler.
    pub sched: Sched,
    /// Mean composite score over all scenarios, in `[0, 1]`.
    pub score: f64,
    /// Scenarios where this scheduler had the best composite.
    pub wins: usize,
    /// Mean throughput over completed runs (ops/simulated-second).
    pub mean_throughput: f64,
    /// Mean p99 run-delay over completed runs, milliseconds.
    pub mean_p99_run_delay_ms: f64,
    /// Worst max-starvation-wait over completed runs, milliseconds.
    pub worst_max_wait_ms: f64,
    /// Mean Jain fairness over completed runs.
    pub mean_jain: f64,
    /// Completed (non-failed, non-partial) runs out of the corpus size.
    pub completed: usize,
}

/// The full tournament result: ranked standings plus every cell.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TournamentReport {
    /// Work-volume scale the corpus ran at.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Scenario names, in corpus order.
    pub scenarios: Vec<String>,
    /// Standings, best first.
    pub standings: Vec<Standing>,
    /// Every (scenario, scheduler) cell that produced a run.
    pub cells: Vec<Cell>,
    /// Runs aborted by supervision (their cells carry `partial: true`).
    pub partial_runs: usize,
    /// Crashes, spec errors and panics; empty means a clean tournament.
    pub failures: Vec<String>,
}

/// Reduce a finished run (plus its kernel) to scorecard metrics. The
/// kernel is consulted for per-task service: dead tasks stay in the task
/// table with their final `sum_exec`, so the Jain index covers every
/// application task that ever ran, not just survivors.
pub(crate) fn cell_of(out: &RunOutput) -> Cell {
    let r = &out.run;
    let total_ops: u64 = r.apps.iter().map(|a| a.ops).sum();
    let throughput = if r.end_s > 0.0 {
        total_ops as f64 / r.end_s
    } else {
        0.0
    };
    let service: Vec<f64> = out
        .kernel
        .tasks()
        .iter()
        .filter(|t| !t.kernel_thread && !t.sum_exec.is_zero())
        .map(|t| t.sum_exec.as_nanos() as f64)
        .collect();
    let jain = if service.is_empty() {
        1.0
    } else {
        let sum: f64 = service.iter().sum();
        let sq: f64 = service.iter().map(|x| x * x).sum();
        (sum * sum) / (service.len() as f64 * sq)
    };
    Cell {
        scenario: r.scenario.clone(),
        sched: r.sched,
        throughput,
        p99_run_delay_ms: r.run_delay.p99_ms,
        max_wait_ms: r.counters.max_runnable_wait.as_nanos() as f64 / 1e6,
        jain,
        digest_hex: r.digest_hex.clone(),
        partial: r.partial,
    }
}

/// Normalised "higher is better" score of `v` against the best value.
fn norm_hi(v: f64, best: f64) -> f64 {
    if best <= 0.0 {
        1.0 // nobody did any work: no signal, everyone ties
    } else {
        (v / best).clamp(0.0, 1.0)
    }
}

/// Normalised "lower is better" score of `v` against the best (smallest)
/// value.
fn norm_lo(v: f64, best: f64) -> f64 {
    if v <= 0.0 {
        1.0 // zero delay is unbeatable
    } else {
        (best / v).clamp(0.0, 1.0)
    }
}

/// Composite score of one cell given the per-scenario bests.
fn composite(c: &Cell, best_thr: f64, best_delay: f64, best_wait: f64) -> f64 {
    (norm_hi(c.throughput, best_thr)
        + norm_lo(c.p99_run_delay_ms, best_delay)
        + norm_lo(c.max_wait_ms, best_wait)
        + c.jain.clamp(0.0, 1.0))
        / 4.0
}

/// Run the tournament over pre-loaded scenarios.
pub fn run(scenarios_list: &[(PathBuf, Scenario)], cfg: &RunCfg) -> TournamentReport {
    let scheds = Sched::ALL;
    let jobs: Vec<(usize, Sched)> = (0..scenarios_list.len())
        .flat_map(|i| scheds.into_iter().map(move |s| (i, s)))
        .collect();
    let outcomes = runner::par_map_supervised(cfg.threads, jobs.clone(), |(i, sched)| {
        let (_, sc) = &scenarios_list[i];
        scenario::run_sched(sc, sched, &cfg.engine_opts())
            .map(|out| cell_of(&out))
            .map_err(|e| match e {
                EngineError::Spec(s) => format!("[{} × {}] {s}", sc.name, sched.name()),
                EngineError::Crash(c) => {
                    format!("[{} × {}] crash: {}", sc.name, sched.name(), c.error)
                }
            })
    });

    let mut cells: Vec<Cell> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    // (scenario index, sched) → cell index, for the scoring pass.
    let mut by_job: Vec<Option<usize>> = vec![None; jobs.len()];
    for (j, (&(i, sched), outcome)) in jobs.iter().zip(outcomes).enumerate() {
        match outcome {
            runner::JobOutcome::Done(Ok(cell)) => {
                by_job[j] = Some(cells.len());
                cells.push(cell);
            }
            runner::JobOutcome::Done(Err(msg)) => failures.push(msg),
            runner::JobOutcome::Panicked(msg) => failures.push(format!(
                "[{} × {}] panic: {msg}",
                scenarios_list[i].1.name,
                sched.name()
            )),
        }
    }

    // Score scenario by scenario: normalise against the best completed
    // run, then average composites per scheduler. Failed or partial runs
    // contribute a 0 composite for that scenario.
    let nscen = scenarios_list.len();
    let mut score_sum = vec![0.0f64; scheds.len()];
    let mut wins = vec![0usize; scheds.len()];
    for i in 0..nscen {
        let row: Vec<Option<&Cell>> = (0..scheds.len())
            .map(|s| {
                by_job[i * scheds.len() + s]
                    .map(|ci| &cells[ci])
                    .filter(|c| !c.partial)
            })
            .collect();
        let complete = || row.iter().flatten();
        let best_thr = complete().map(|c| c.throughput).fold(0.0, f64::max);
        let best_delay = complete()
            .map(|c| c.p99_run_delay_ms)
            .fold(f64::INFINITY, f64::min);
        let best_wait = complete()
            .map(|c| c.max_wait_ms)
            .fold(f64::INFINITY, f64::min);
        let mut best_score = -1.0;
        let mut best_sched = None;
        for (s, cell) in row.iter().enumerate() {
            let sc = match cell {
                Some(c) => composite(c, best_thr, best_delay, best_wait),
                None => 0.0,
            };
            score_sum[s] += sc;
            if sc > best_score {
                best_score = sc;
                best_sched = Some(s);
            }
        }
        if let Some(w) = best_sched {
            if best_score > 0.0 {
                wins[w] += 1;
            }
        }
    }

    let mut standings: Vec<Standing> = scheds
        .iter()
        .enumerate()
        .map(|(s, &sched)| {
            let mine: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.sched == sched && !c.partial)
                .collect();
            let n = mine.len().max(1) as f64;
            Standing {
                rank: 0,
                sched,
                score: if nscen > 0 {
                    score_sum[s] / nscen as f64
                } else {
                    0.0
                },
                wins: wins[s],
                mean_throughput: mine.iter().map(|c| c.throughput).sum::<f64>() / n,
                mean_p99_run_delay_ms: mine.iter().map(|c| c.p99_run_delay_ms).sum::<f64>() / n,
                worst_max_wait_ms: mine.iter().map(|c| c.max_wait_ms).fold(0.0, f64::max),
                mean_jain: mine.iter().map(|c| c.jain).sum::<f64>() / n,
                completed: mine.len(),
            }
        })
        .collect();
    // Deterministic total order: score desc, then registry order.
    standings.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (i, st) in standings.iter_mut().enumerate() {
        st.rank = i + 1;
    }

    TournamentReport {
        scale: cfg.scale,
        seed: cfg.seed,
        scenarios: scenarios_list
            .iter()
            .map(|(_, sc)| sc.name.clone())
            .collect(),
        standings,
        partial_runs: cells.iter().filter(|c| c.partial).count(),
        cells,
        failures,
    }
}

/// Render the ASCII scorecard: ranked standings plus the per-scenario
/// composite grid.
pub fn render(r: &TournamentReport) -> String {
    let mut s = format!(
        "tournament: {} scenario(s) × {} schedulers  (scale {}, seed {})\n\n",
        r.scenarios.len(),
        Sched::ALL.len(),
        r.scale,
        r.seed
    );
    let mut t = Table::new(&[
        "rank",
        "scheduler",
        "score",
        "wins",
        "thr (ops/s)",
        "p99 delay (ms)",
        "worst wait (ms)",
        "jain",
        "runs",
    ]);
    for st in &r.standings {
        t.push(&[
            st.rank.to_string(),
            st.sched.name().to_string(),
            format!("{:.4}", st.score),
            st.wins.to_string(),
            format!("{:.1}", st.mean_throughput),
            format!("{:.3}", st.mean_p99_run_delay_ms),
            format!("{:.3}", st.worst_max_wait_ms),
            format!("{:.4}", st.mean_jain),
            format!("{}/{}", st.completed, r.scenarios.len()),
        ]);
    }
    s.push_str(&t.render());

    let mut header: Vec<&str> = vec!["scenario"];
    let names: Vec<&str> = Sched::ALL.iter().map(|x| x.name()).collect();
    header.extend(&names);
    let mut grid = Table::new(&header);
    for scen in &r.scenarios {
        let mut row = vec![scen.clone()];
        for &sched in &Sched::ALL {
            let cell = r
                .cells
                .iter()
                .find(|c| &c.scenario == scen && c.sched == sched);
            row.push(match cell {
                Some(c) if c.partial => "PARTIAL".to_string(),
                Some(c) => format!(
                    "{:.0}/s p99 {:.2}ms J{:.3}",
                    c.throughput, c.p99_run_delay_ms, c.jain
                ),
                None => "FAIL".to_string(),
            });
        }
        grid.push(&row);
    }
    s.push('\n');
    s.push_str(&grid.render());
    if !r.failures.is_empty() {
        s.push('\n');
        for f in &r.failures {
            s.push_str(&format!("FAIL {f}\n"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, sched: Sched, thr: f64, p99: f64, wait: f64, jain: f64) -> Cell {
        Cell {
            scenario: scenario.into(),
            sched,
            throughput: thr,
            p99_run_delay_ms: p99,
            max_wait_ms: wait,
            jain,
            digest_hex: "0".repeat(16),
            partial: false,
        }
    }

    #[test]
    fn composite_prefers_dominant_cell() {
        let a = cell("s", Sched::Cfs, 100.0, 1.0, 5.0, 0.99);
        let b = cell("s", Sched::Ule, 50.0, 2.0, 10.0, 0.80);
        let ca = composite(&a, 100.0, 1.0, 5.0);
        let cb = composite(&b, 100.0, 1.0, 5.0);
        assert!(ca > cb);
        assert!((ca - (1.0 + 1.0 + 1.0 + 0.99) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_delay_is_best_not_division_by_zero() {
        let c = cell("s", Sched::Cfs, 10.0, 0.0, 0.0, 1.0);
        assert_eq!(composite(&c, 10.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn norms_are_bounded() {
        assert_eq!(norm_hi(5.0, 0.0), 1.0);
        assert!(norm_hi(200.0, 100.0) <= 1.0);
        assert_eq!(norm_lo(0.0, 1.0), 1.0);
        assert!(norm_lo(0.5, 1.0) <= 1.0);
    }
}
