//! `battle run` — execute declarative scenario files.
//!
//! Takes any mix of `.toml`/`.json` files and directories (a directory
//! expands to its sorted `*.toml` files), runs each scenario under its
//! requested schedulers through [`runner::par_map_supervised`], evaluates the
//! scenario's assertions, and reports one line per run plus any
//! violations. With `--trace`, runs go sequentially and each scenario
//! streams a combined Chrome-trace file (one group per scheduler, see
//! [`scope::run_group`]) and reports the trace analyses; `battle trace
//! <fig>` is this path for one figure's scenario file.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use kernel::CancelToken;
use scenario::{EngineError, EngineOpts, RunOutput, Scenario, ScenarioRun, Sched};

use crate::scope::{self, ChromeTrace, TraceReport};
use crate::{crash, runner, Crash, RunCfg};

/// Outcome of one scenario file: its runs and any assertion failures.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunReport {
    /// Scenario name (from the file).
    pub scenario: String,
    /// Path the scenario was loaded from.
    pub path: String,
    /// One entry per scheduler run, in requested order. A scheduler whose
    /// run crashed is missing here and reported in `failures`.
    pub runs: Vec<ScenarioRun>,
    /// With `--trace`: what each run's trace group recorded, in `runs`
    /// order; empty otherwise.
    pub traces: Vec<TraceReport>,
    /// Violated assertions and crash notices; empty means pass.
    pub failures: Vec<String>,
}

impl RunReport {
    fn new(path: &Path, sc: &Scenario) -> RunReport {
        RunReport {
            scenario: sc.name.clone(),
            path: path.display().to_string(),
            runs: Vec::new(),
            traces: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Did every run finish and every assertion hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Where `--trace` writes its Chrome-trace files.
#[derive(Debug, Clone, Copy)]
pub enum TraceTo<'a> {
    /// `<dir>/<scenario file stem>.trace.json`, one file per scenario
    /// (`battle run --trace`).
    Dir(&'a Path),
    /// This file (`battle trace <fig> --out F`, which runs one scenario).
    File(&'a Path),
}

impl TraceTo<'_> {
    fn path_for(self, scenario_path: &Path, sc: &Scenario) -> PathBuf {
        match self {
            TraceTo::Dir(dir) => {
                let stem = scenario_path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| sc.name.clone());
                dir.join(format!("{stem}.trace.json"))
            }
            TraceTo::File(file) => file.to_path_buf(),
        }
    }
}

/// Expand CLI arguments into (path, parsed scenario) pairs. Directories
/// expand to their sorted `*.toml` files; `.json` files parse as the JSON
/// form of the same schema.
pub fn load(paths: &[String]) -> Result<Vec<(PathBuf, Scenario)>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("{p}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("{p}: no .toml scenario files in directory"));
            }
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let is_json = path.extension().is_some_and(|x| x == "json");
        let sc = if is_json {
            Scenario::from_json(&src)
        } else {
            Scenario::from_toml(&src)
        }
        .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, sc));
    }
    Ok(out)
}

fn opts_for(cfg: &RunCfg, cancel: Option<&CancelToken>) -> EngineOpts {
    EngineOpts {
        cancel: cancel.cloned(),
        ..cfg.engine_opts()
    }
}

/// The schedulers to run `sc` under: `scheds` when the caller chose them
/// (`--sched`), else the scenario's own list.
fn scheds_for<'a>(sc: &'a Scenario, scheds: Option<&'a [Sched]>) -> &'a [Sched] {
    scheds.unwrap_or(&sc.scheds)
}

/// What [`run_all`] hands back.
#[derive(Debug)]
pub struct Batch {
    /// One report per scenario, in load order: what `--json` writes.
    pub reports: Vec<RunReport>,
    /// The crash of every failed run, in job order. Each names the
    /// scenario's own file as its replay, and `battle` writes its bundle.
    pub crashes: Vec<Crash>,
    /// With `--trace`: the line naming each trace file written, in
    /// scenario order.
    pub traced: Vec<String>,
}

impl Batch {
    /// File scenario `i`'s run under `sched`: the run, complete or
    /// salvaged, and its crash as a failure line naming the bundle.
    fn file(&mut self, i: usize, sched: Sched, run: Option<ScenarioRun>, crash: Option<Crash>) {
        let report = &mut self.reports[i];
        if let Some(c) = crash {
            report.failures.push(format!(
                "[{}] {}: {} (bundle: {})",
                sched.name(),
                if run.is_some() { "partial" } else { "crash" },
                c.error,
                c.bundle().display()
            ));
            self.crashes.push(c);
        }
        report.runs.extend(run);
    }
}

/// `result`, the run of `sc` (loaded from `path`) under `sched`: the run,
/// complete or salvaged, and its crash if it failed (see
/// [`Crash::of_run`]), replayed from `path`.
fn ran(
    path: &Path,
    sc: &Scenario,
    sched: Sched,
    cfg: &RunCfg,
    result: Result<RunOutput, EngineError>,
) -> (Option<ScenarioRun>, Option<Crash>) {
    let salvaged = result.as_ref().ok().filter(|o| o.run.partial);
    let salvaged = salvaged.map(|o| o.run.clone());
    match Crash::of_run(
        crash::case_label(sc, sched),
        result,
        crash::replay(path, cfg),
    ) {
        Ok(out) => (Some(out.run), None),
        Err(c) => (salvaged, Some(c)),
    }
}

/// Run every loaded scenario under `scheds` (`None`: each scenario's own
/// list). Parallel across (scenario, scheduler) jobs unless `trace` is
/// set, in which case runs go sequentially and each scenario streams its
/// Chrome-trace file where `trace` says.
///
/// `timeout_s` arms one shared wall-clock deadline for the whole batch:
/// when it expires every in-flight kernel aborts at its next cancellation
/// poll, salvages a partial result, and the report fails. A panicking job
/// (impossible in a healthy build, but chaos tests inject them) is
/// isolated: siblings finish, the panic becomes a failure line plus a
/// crash.
pub fn run_all(
    scenarios: &[(PathBuf, Scenario)],
    cfg: &RunCfg,
    scheds: Option<&[Sched]>,
    trace: Option<TraceTo>,
    timeout_s: Option<f64>,
) -> Batch {
    let cancel =
        timeout_s.map(|s| CancelToken::with_deadline(std::time::Duration::from_secs_f64(s)));
    let mut batch = Batch {
        reports: scenarios
            .iter()
            .map(|(path, sc)| RunReport::new(path, sc))
            .collect(),
        crashes: Vec::new(),
        traced: Vec::new(),
    };
    if let Some(to) = trace {
        for (i, loaded @ (path, sc)) in scenarios.iter().enumerate() {
            let out = to.path_for(path, sc);
            let scheds = scheds_for(sc, scheds);
            run_traced(&mut batch, i, loaded, cfg, scheds, &out, cancel.as_ref());
        }
    } else {
        let jobs: Vec<(usize, Sched)> = scenarios
            .iter()
            .enumerate()
            .flat_map(|(i, (_, sc))| scheds_for(sc, scheds).iter().map(move |&s| (i, s)))
            .collect();
        let cancel_ref = cancel.as_ref();
        let outcomes = runner::par_map_supervised(cfg.threads, jobs.clone(), |(i, sched)| {
            let (path, sc) = &scenarios[i];
            let result = scenario::run_sched(sc, sched, &opts_for(cfg, cancel_ref));
            ran(path, sc, sched, cfg, result)
        });
        for (&(i, sched), outcome) in jobs.iter().zip(outcomes) {
            let (run, crash) = match outcome {
                runner::JobOutcome::Done(ran) => ran,
                runner::JobOutcome::Panicked(msg) => {
                    let (path, sc) = &scenarios[i];
                    let label = crash::case_label(sc, sched);
                    let c = Crash::from_panic(&label, &msg, &crash::replay(path, cfg));
                    (None, Some(c))
                }
            };
            batch.file(i, sched, run, crash);
        }
    }
    for (report, (_, sc)) in batch.reports.iter_mut().zip(scenarios) {
        report.failures.extend(scenario::failures(sc, &report.runs));
    }
    batch
}

/// Run scenario `i` of the batch, `sc` loaded from `path`, under each of
/// `scheds` in turn, streaming every run into one Chrome-trace file at
/// `out`.
fn run_traced(
    batch: &mut Batch,
    i: usize,
    (path, sc): &(PathBuf, Scenario),
    cfg: &RunCfg,
    scheds: &[Sched],
    out: &Path,
    cancel: Option<&CancelToken>,
) {
    let created = match out.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
    .and_then(|()| std::fs::File::create(out));
    let file = match created {
        Ok(f) => f,
        Err(e) => {
            let failure = format!("cannot create trace {}: {e}", out.display());
            batch.reports[i].failures.push(failure);
            return;
        }
    };
    let trace = Rc::new(RefCell::new(ChromeTrace::new(std::io::BufWriter::new(
        file,
    ))));
    for (g, &sched) in scheds.iter().enumerate() {
        let opts = opts_for(cfg, cancel);
        let (result, group) = match scope::run_group(&trace, g as u32 + 1, sc, sched, &opts) {
            Ok((out, group)) => (Ok(out), Some(group)),
            Err(e) => (Err(e), None),
        };
        let (run, crash) = ran(path, sc, sched, cfg, result);
        batch.reports[i].traces.extend(group);
        batch.file(i, sched, run, crash);
    }
    // Every run has handed its sink back (or dropped its kernel), so the
    // writer is ours alone again.
    let failures = &mut batch.reports[i].failures;
    match Rc::try_unwrap(trace).map(|w| w.into_inner().finish()) {
        Ok(Ok(events)) => batch.traced.push(format!(
            "  trace: {} ({events} events) — open in https://ui.perfetto.dev",
            out.display()
        )),
        Ok(Err(e)) => failures.push(format!("trace export failed: {e}")),
        Err(_) => failures.push("trace writer still shared".to_string()),
    }
}

/// Render one report for the terminal.
pub fn render(report: &RunReport) -> String {
    let mut s = format!("{} ({})\n", report.scenario, report.path);
    for r in &report.runs {
        let apps_done: usize = r.apps.iter().filter(|a| a.done).count();
        s.push_str(&format!(
            "  [{}]{} digest {}  end {:.3}s  apps {}/{} done  ctx {}  migr {}  run-delay p99 {:.3}ms\n",
            r.sched.name(),
            if r.partial { " PARTIAL" } else { "" },
            r.digest_hex,
            r.end_s,
            apps_done,
            r.apps.len(),
            r.counters.ctx_switches,
            r.counters.migrations,
            r.run_delay.p99_ms,
        ));
    }
    for (t, r) in report.traces.iter().zip(&report.runs) {
        s.push_str(&scope::render(t, r));
    }
    if report.failures.is_empty() {
        s.push_str("  PASS\n");
    } else {
        for f in &report.failures {
            s.push_str(&format!("  FAIL {f}\n"));
        }
    }
    s
}
