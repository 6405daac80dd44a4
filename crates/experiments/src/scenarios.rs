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

use kernel::{CancelToken, CheckMode};
use scenario::{EngineError, EngineOpts, Scenario, ScenarioRun, Sched};

use crate::scope::{self, ChromeTrace, TraceReport};
use crate::{crash, runner, RunCfg};

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

/// Failure lines for supervised aborts: a run that was budget-killed,
/// livelocked or cancelled still salvaged a partial result (it appears in
/// `runs` with `partial: true`), but the scenario as a whole did not
/// complete, so the report must fail.
fn partial_failures(runs: &[ScenarioRun]) -> Vec<String> {
    runs.iter()
        .filter(|r| r.partial)
        .map(|r| {
            format!(
                "[{}] partial: {}",
                r.sched.name(),
                r.abort.as_deref().unwrap_or("aborted by supervision")
            )
        })
        .collect()
}

fn crash_failure(path: &Path, sc: &Scenario, cfg: &RunCfg, c: &scenario::EngineCrash) -> String {
    let bundle = crash::Crash {
        label: crash::case_label(sc, c.sched),
        error: c.error.clone(),
        report: c.report.clone(),
        replay: crash::replay(path, cfg),
    };
    let written = match bundle.write_bundle() {
        Ok(p) => format!(" (bundle: {})", p.display()),
        Err(e) => format!(" (bundle write failed: {e})"),
    };
    format!("[{}] crash: {}{}", c.sched.name(), c.error, written)
}

/// The schedulers to run `sc` under: `scheds` when the caller chose them
/// (`--sched`), else the scenario's own list.
fn scheds_for<'a>(sc: &'a Scenario, scheds: Option<&'a [Sched]>) -> &'a [Sched] {
    scheds.unwrap_or(&sc.scheds)
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
/// crash bundle.
pub fn run_all(
    scenarios: &[(PathBuf, Scenario)],
    cfg: &RunCfg,
    scheds: Option<&[Sched]>,
    trace: Option<TraceTo>,
    timeout_s: Option<f64>,
) -> Vec<RunReport> {
    let cancel =
        timeout_s.map(|s| CancelToken::with_deadline(std::time::Duration::from_secs_f64(s)));
    if let Some(to) = trace {
        return scenarios
            .iter()
            .map(|(path, sc)| {
                let out = to.path_for(path, sc);
                run_traced(path, sc, cfg, scheds_for(sc, scheds), &out, cancel.as_ref())
            })
            .collect();
    }
    let jobs: Vec<(usize, Sched)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(i, (_, sc))| scheds_for(sc, scheds).iter().map(move |&s| (i, s)))
        .collect();
    let cancel_ref = cancel.as_ref();
    let outcomes = runner::par_map_supervised(cfg.threads, jobs.clone(), |(i, sched)| {
        let (path, sc) = &scenarios[i];
        scenario::run_sched(sc, sched, &opts_for(cfg, cancel_ref))
            .map(|o| o.run)
            .map_err(|e| match e {
                EngineError::Spec(s) => format!("[{}] {s}", sched.name()),
                EngineError::Crash(c) => crash_failure(path, sc, cfg, &c),
            })
    });
    let mut reports: Vec<RunReport> = scenarios
        .iter()
        .map(|(path, sc)| RunReport::new(path, sc))
        .collect();
    for (&(i, sched), outcome) in jobs.iter().zip(outcomes) {
        match outcome {
            runner::JobOutcome::Done(Ok(run)) => reports[i].runs.push(run),
            runner::JobOutcome::Done(Err(msg)) => reports[i].failures.push(msg),
            runner::JobOutcome::Panicked(msg) => {
                let (path, sc) = &scenarios[i];
                let bundle = crash::Crash::from_panic(
                    &crash::case_label(sc, sched),
                    &msg,
                    &crash::replay(path, cfg),
                );
                let written = match bundle.write_bundle() {
                    Ok(p) => format!(" (bundle: {})", p.display()),
                    Err(e) => format!(" (bundle write failed: {e})"),
                };
                reports[i]
                    .failures
                    .push(format!("[{}] panic: {msg}{written}", sched.name()));
            }
        }
    }
    for (report, (_, sc)) in reports.iter_mut().zip(scenarios) {
        let partial = partial_failures(&report.runs);
        report.failures.extend(partial);
        report.failures.extend(scenario::failures(sc, &report.runs));
    }
    reports
}

/// Run `sc` under each of `scheds` in turn, streaming every run into one
/// Chrome-trace file at `out`.
fn run_traced(
    path: &Path,
    sc: &Scenario,
    cfg: &RunCfg,
    scheds: &[Sched],
    out: &Path,
    cancel: Option<&CancelToken>,
) -> RunReport {
    let mut report = RunReport::new(path, sc);
    let created = match out.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
    .and_then(|()| std::fs::File::create(out));
    let file = match created {
        Ok(f) => f,
        Err(e) => {
            report
                .failures
                .push(format!("cannot create trace {}: {e}", out.display()));
            return report;
        }
    };
    let trace = Rc::new(RefCell::new(ChromeTrace::new(std::io::BufWriter::new(
        file,
    ))));
    for (i, &sched) in scheds.iter().enumerate() {
        let opts = opts_for(cfg, cancel);
        match scope::run_group(&trace, i as u32 + 1, sc, sched, &opts) {
            Ok((run, group)) => {
                report.runs.push(run);
                report.traces.push(group);
            }
            Err(EngineError::Spec(e)) => {
                report.failures.push(format!("[{}] {e}", sched.name()));
            }
            Err(EngineError::Crash(c)) => {
                report.failures.push(crash_failure(path, sc, cfg, &c));
            }
        }
    }
    // Every run has handed its sink back (or dropped its kernel), so the
    // writer is ours alone again.
    match Rc::try_unwrap(trace).map(|w| w.into_inner().finish()) {
        Ok(Ok(events)) => println!(
            "  trace: {} ({events} events) — open in https://ui.perfetto.dev",
            out.display()
        ),
        Ok(Err(e)) => report.failures.push(format!("trace export failed: {e}")),
        Err(_) => report
            .failures
            .push("trace writer still shared".to_string()),
    }
    let partial = partial_failures(&report.runs);
    report.failures.extend(partial);
    report.failures.extend(scenario::failures(sc, &report.runs));
    report
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

/// CLI entry: run the loaded scenarios (see [`run_all`]), print and
/// JSON-dump. Returns `false` if any scenario failed (crash or assertion).
pub fn cli(
    scenarios: &[(PathBuf, Scenario)],
    cfg: &RunCfg,
    scheds: Option<&[Sched]>,
    trace: Option<TraceTo>,
    json: &Option<String>,
    timeout_s: Option<f64>,
) -> bool {
    println!(
        "running {} scenario(s) at scale {} seed {}{}\n",
        scenarios.len(),
        cfg.scale,
        cfg.seed,
        if cfg.check == CheckMode::Strict {
            " [strict]"
        } else {
            ""
        }
    );
    let reports = run_all(scenarios, cfg, scheds, trace, timeout_s);
    for report in &reports {
        print!("{}", render(report));
    }
    let failed: usize = reports.iter().filter(|r| !r.passed()).count();
    println!(
        "\n{}/{} scenarios passed",
        reports.len() - failed,
        reports.len()
    );
    let mut ok = failed == 0;
    if let Some(p) = json {
        match serde_json::to_string_pretty(&reports) {
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
