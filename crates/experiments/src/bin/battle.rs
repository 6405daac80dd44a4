//! `battle` — regenerate any table or figure of the paper.
//!
//! ```text
//! battle <experiment> [--scale S] [--seed N] [--json PATH] [--threads N]
//!                     [--check strict|off]
//!
//! experiments: table1 fig1 fig2 table2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!              ablations desktop fuzz all
//! ```
//!
//! `--scale` shrinks work volumes (default 1.0 = paper-sized runs; use
//! e.g. 0.1 for a quick pass). `--threads` sets the simulation worker-pool
//! size (default: all available cores); output is byte-identical whatever
//! the value. `--check strict` turns on SchedSan, the runtime invariant
//! checker: every kernel event is followed by a consistency audit of what
//! it touched (and periodically by a full sweep), and a violation writes a
//! crash bundle under `results/crash/` and exits nonzero. Results print as
//! ASCII tables/charts and can additionally be dumped as JSON. The
//! simulator's own speed is measured by the separate `simbench` package
//! (see `BENCHMARK.json`).
//!
//! `fuzz` generates random scenarios (machine, fault plan, workload
//! phases) and runs each under the selected schedulers with strict
//! checking; a failure is shrunk and written as a scenario file that
//! `battle run` replays (see `experiments::fuzz`):
//!
//! ```text
//! battle fuzz [--cases N] [--seed N] [--sched NAME|both|all]
//!             [--faults on|off] [--case-timeout SECS]
//! ```
//!
//! `tournament` runs every registered scheduler over a scenario corpus and
//! prints a ranked scorecard (see `experiments::tournament`):
//!
//! ```text
//! battle tournament <scenario.toml|dir>... [--scale S] [--seed N]
//!                   [--threads N] [--json PATH]
//! ```
//!
//! `trace` is `battle run <the figure's scenario file> --trace`, writing
//! the Chrome-trace/Perfetto JSON to `--out` (see `experiments::scope`):
//!
//! ```text
//! battle trace <fig1|fig5|fig6|fig7> [--out PATH] [--sched NAME|both|all]
//!              [--scale S] [--seed N] [--json PATH]
//! ```
//!
//! Only this file prints, writes files and exits. Every subcommand returns
//! its report, failures included (a failed run is an
//! `experiments::Crash`); `main` writes every file the run produced (JSON
//! dumps, crash bundles and case files, golden and tuned files) before it
//! prints anything, then prints through one standard-output writer and
//! exits in one place:
//!
//! | Exit | Meaning |
//! |------|---------|
//! | 0    | the run passed (shape checks are informational: their `FAILED` lines still exit 0) |
//! | 1    | the run failed: a crash, a failed scenario or assertion, a golden mismatch, a file that could not be written |
//! | 2    | bad arguments |
//! | 141  | standard output was closed before the report was written (128 + SIGPIPE, what a shell reports when a pipe's reader quits early); every file was still written, and a run that failed still exits 1 |

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use experiments::scenarios::TraceTo;
use experiments::{
    ablations, chaos, desktop, fig1, fig2, fig34, fig5, fig6, fig7, fig8, fig9, fuzz, golden,
    scenarios, table1, table2, Crash, RunCfg, Sched,
};
use kernel::CheckMode;
use scenario::Scenario;

/// The figures `battle trace` exports, each with its compiled-in scenario
/// (fig5's apache outlier is the `apache` scenario).
const TRACE_FIGS: [(&str, &str); 4] = [
    ("fig1", fig1::SCENARIO),
    ("fig5", fig5::APACHE_SCENARIO),
    ("fig6", fig6::SCENARIO),
    ("fig7", fig7::SCENARIO),
];

struct Args {
    experiment: String,
    cfg: RunCfg,
    json: Option<String>,
    fuzz: fuzz::FuzzCfg,
    /// `battle trace <fig>`: the figure to trace.
    trace_fig: Option<String>,
    /// `battle trace`: output path of the Chrome-trace JSON.
    out: String,
    /// `battle run`: scenario files/directories (positional).
    paths: Vec<String>,
    /// `battle run --trace`: export a Chrome-trace per scenario.
    trace: bool,
    /// `battle golden --write`: record digests instead of checking.
    write: bool,
    /// `battle run --timeout SECS`: wall-clock deadline for the batch;
    /// expired runs salvage a partial result and the command fails.
    timeout: Option<f64>,
    /// `battle chaos --plans N`: extra randomized budget plans per pair.
    plans: u32,
    /// `battle tune --budget N`: candidate evaluations per scheduler.
    budget: usize,
    /// `true` once `--sched` was given explicitly (so `run` and `trace`
    /// can keep each scenario's own list, and `tune` can default to the
    /// tunable set instead of fuzz's cfs+ule default).
    sched_given: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    let mut cfg = RunCfg::default();
    let mut json = None;
    let mut fz = fuzz::FuzzCfg::default();
    let mut trace_fig = None;
    let mut out = String::from("trace.json");
    let mut paths = Vec::new();
    let mut trace = false;
    let mut write = false;
    let mut timeout = None;
    let mut plans = 1u32;
    let mut budget = 64usize;
    let mut sched_given = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--timeout" => {
                let v = args.next().ok_or("missing value for --timeout")?;
                timeout = Some(parse_timeout("--timeout", &v)?);
            }
            "--case-timeout" => {
                let v = args.next().ok_or("missing value for --case-timeout")?;
                fz.case_timeout_s = parse_timeout("--case-timeout", &v)?;
            }
            "--plans" => {
                let v = args.next().ok_or("missing value for --plans")?;
                plans = v.parse().map_err(|e| format!("bad --plans: {e}"))?;
            }
            "--out" => out = args.next().ok_or("missing value for --out")?,
            "--trace" => trace = true,
            "--write" => write = true,
            "--check" => {
                let v = args.next().ok_or("missing value for --check")?;
                cfg.check = match v.as_str() {
                    "strict" => CheckMode::Strict,
                    "off" => CheckMode::Off,
                    other => return Err(format!("bad --check: {other} (strict|off)")),
                };
            }
            "--cases" => {
                let v = args.next().ok_or("missing value for --cases")?;
                fz.cases = v.parse().map_err(|e| format!("bad --cases: {e}"))?;
            }
            "--budget" => {
                let v = args.next().ok_or("missing value for --budget")?;
                budget = v.parse().map_err(|e| format!("bad --budget: {e}"))?;
                if budget == 0 {
                    return Err("--budget must be at least 1".to_string());
                }
            }
            "--sched" => {
                let v = args.next().ok_or("missing value for --sched")?;
                sched_given = true;
                fz.scheds = match v.as_str() {
                    "both" => Sched::BOTH.to_vec(),
                    "all" => Sched::ALL.to_vec(),
                    one => match Sched::parse_flag(one) {
                        Some(s) => vec![s],
                        None => {
                            let known: Vec<&str> =
                                Sched::ALL.iter().map(|s| s.flag_name()).collect();
                            return Err(format!(
                                "bad --sched: {one} ({}|both|all)",
                                known.join("|")
                            ));
                        }
                    },
                };
            }
            "--faults" => {
                let v = args.next().ok_or("missing value for --faults")?;
                fz.faults = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad --faults: {other} (on|off)")),
                };
            }
            "--scale" => {
                let v = args.next().ok_or("missing value for --scale")?;
                let s: f64 = v.parse().map_err(|e| format!("bad --scale: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!(
                        "bad --scale: {v} (must be a finite number above 0)"
                    ));
                }
                cfg.scale = s;
            }
            "--seed" => {
                let v = args.next().ok_or("missing value for --seed")?;
                cfg.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("missing value for --threads")?;
                let n: usize = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                cfg.threads = n;
            }
            "--json" => json = Some(args.next().ok_or("missing value for --json")?),
            other if experiment == "trace" && !other.starts_with('-') && trace_fig.is_none() => {
                trace_fig = Some(other.to_string());
            }
            other
                if (experiment == "run"
                    || experiment == "chaos"
                    || experiment == "tournament"
                    || experiment == "tune")
                    && !other.starts_with('-') =>
            {
                paths.push(other.to_string());
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    fz.seed = cfg.seed;
    Ok(Args {
        experiment,
        cfg,
        json,
        fuzz: fz,
        trace_fig,
        out,
        paths,
        trace,
        write,
        timeout,
        plans,
        budget,
        sched_given,
    })
}

/// A wall-clock timeout in seconds for `flag`: above 0, and small enough
/// that the deadline it sets (now plus the timeout) is a valid `Instant`,
/// which rules out NaN, infinity and values past `Duration`'s range.
fn parse_timeout(flag: &str, v: &str) -> Result<f64, String> {
    let s: f64 = v.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    let deadline = Duration::try_from_secs_f64(s)
        .ok()
        .and_then(|d| Instant::now().checked_add(d));
    if s > 0.0 && deadline.is_some() {
        Ok(s)
    } else {
        Err(format!(
            "bad {flag}: {v} (must be a finite number of seconds above 0 that a deadline can hold)"
        ))
    }
}

fn usage() -> String {
    "usage: battle <table1|fig1|fig2|table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablations|desktop|fuzz|trace|run|chaos|tournament|tune|golden|all> \
     [--scale S] [--seed N] [--json PATH] [--threads N] [--check strict|off]\n\
     schedulers:  cfs ule eevdf simple-rr scx-fifo scx-vtime (plus `both` = cfs+ule, `all`)\n\
     fuzz flags: [--cases N] [--sched NAME|both|all] [--faults on|off] [--case-timeout SECS]\n\
                 a failure is shrunk and written to results/crash/ as a scenario file that\n\
                 `battle run FILE --seed N --check strict` replays\n\
     trace usage: battle trace <fig1|fig5|fig6|fig7> [--out PATH] [--sched NAME|both|all]\n\
                  `battle run <the figure's scenario> --trace`, writing the Chrome-trace/Perfetto JSON\n\
                  to --out (default: trace.json)\n\
     run usage:   battle run <scenario.toml|dir>... [--sched NAME|both|all] [--trace] [--json PATH] [--timeout SECS]\n\
                  executes declarative scenario files (see scenarios/ and EXPERIMENTS.md);\n\
                  --timeout cancels overrunning kernels cooperatively and salvages partial results\n\
     tournament:  battle tournament <scenario.toml|dir>... [--scale S] [--seed N] [--json PATH]\n\
                  runs every registered scheduler over the corpus and prints a ranked scorecard\n\
                  (throughput, p99 run-delay, max starvation wait, Jain fairness); deterministic across --threads\n\
     tune usage:  battle tune [scenario.toml|dir]... [--sched NAME|all] [--budget N] [--scale S]\n\
                  [--seed N] [--json PATH] [--write]\n\
                  deterministic parameter search (CEM + coordinate descent) over each scheduler's\n\
                  tunable space; objective = tournament composite vs stock over the corpus (default:\n\
                  scenarios/); --write emits results/tuned/<sched>.toml and table.md; byte-identical\n\
                  output across --threads\n\
     chaos usage: battle chaos <scenario.toml|dir>... [--plans N] [--scale S] [--seed N] [--json PATH]\n\
                  SchedGuard supervision campaign: control vs guarded vs budget-killed runs plus\n\
                  injected panic/livelock/runaway/cancel probes; every case classified, no job loss\n\
     golden:      battle golden [--write] [--check strict|off] — check (or record) the pinned decision digests\n\
     exit codes:  0 passed (shape checks only inform), 1 failed run, 2 bad arguments,\n\
                  141 standard output closed (every file still written; a failed run still exits 1)"
        .to_string()
}

/// Exit status of a run that failed.
const FAILED: i32 = 1;
/// Exit status for bad arguments.
const BAD_ARGS: i32 = 2;
/// Exit status when standard output was closed before the report was
/// written: 128 + SIGPIPE, what a shell reports when a pipe's reader quits
/// early.
const CLOSED_STDOUT: i32 = 141;

/// What a run leaves for [`Out::finish`] to print, and its exit status so
/// far. Files are written as they are added, so every file is on disk
/// before the first byte is printed.
#[derive(Default)]
struct Out {
    stdout: String,
    stderr: String,
    code: i32,
}

impl Out {
    fn print(&mut self, text: &str) {
        self.stdout.push_str(text);
    }

    /// A line on standard error that fails the run.
    fn fail(&mut self, line: impl std::fmt::Display) {
        self.stderr.push_str(&format!("{line}\n"));
        self.failed();
    }

    fn failed(&mut self) {
        self.code = self.code.max(FAILED);
    }

    /// Bad arguments: `message` and the usage text, exit 2.
    fn usage_error(&mut self, message: &str) {
        self.stderr.push_str(&format!("{message}\n{}\n", usage()));
        self.code = BAD_ARGS;
    }

    /// Write `text` to `path`, creating its directory. A file that cannot
    /// be written fails the run; returns whether it was written.
    fn write(&mut self, path: &Path, text: std::io::Result<String>) -> bool {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let written = text.and_then(|text| {
            if let Some(dir) = dir {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, text)
        });
        if let Err(e) = &written {
            self.fail(format_args!("cannot write {}: {e}", path.display()));
        }
        written.is_ok()
    }

    /// `--json PATH`: `value` as pretty JSON.
    fn json(&mut self, path: Option<&str>, value: &impl serde::Serialize) {
        if let Some(p) = path {
            let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other);
            self.write(Path::new(p), text);
        }
    }

    /// Write crash `c`'s files (see `Crash::files`); returns whether they
    /// were all written.
    fn leave(&mut self, c: &Crash) -> bool {
        let mut written = true;
        for (path, text) in c.files() {
            written &= self.write(&path, text);
        }
        written
    }

    /// A crash that ends the run: its files, then its headline, where the
    /// bundle went and the replay line on standard error.
    fn crash(&mut self, c: &Crash) {
        let written = self.leave(c);
        self.fail(c.headline());
        if written {
            self.fail(format_args!(
                "crash bundle written to {}",
                c.bundle().display()
            ));
        } else {
            self.fail(format_args!("crash bundle:\n{}", c.render()));
        }
        self.fail(format_args!("replay: {}", c.replay));
    }

    /// A figure's report, its shape checks (informational: a `FAILED` line
    /// does not fail the run) and its `--json` dump.
    fn figure(
        &mut self,
        report: String,
        (name, problems): (&str, Vec<String>),
        json: Option<&str>,
        value: &impl serde::Serialize,
    ) {
        self.print(&report);
        if problems.is_empty() {
            self.print(&format!("[{name}] shape checks: OK\n"));
        }
        for p in &problems {
            self.print(&format!("[{name}] shape check FAILED: {p}\n"));
        }
        self.json(json, value);
    }

    /// Print standard output through one writer, then standard error, and
    /// return the exit status. A closed standard output stops the printing
    /// quietly; nothing is lost but the report, since every file is
    /// already written.
    fn finish(mut self) -> i32 {
        let mut stdout = std::io::stdout().lock();
        let printed = stdout
            .write_all(self.stdout.as_bytes())
            .and_then(|()| stdout.flush());
        let closed = match printed {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => true,
            Err(e) => {
                self.fail(format_args!("cannot write standard output: {e}"));
                false
            }
            Ok(()) => false,
        };
        std::io::stderr().write_all(self.stderr.as_bytes()).ok();
        match self.code {
            0 if closed => CLOSED_STDOUT,
            code => code,
        }
    }
}

/// Run experiment `name` into `out`, dumping its JSON to `json`. A failed
/// run comes back as its crash.
fn experiment(out: &mut Out, name: &str, args: &Args, json: Option<&str>) -> Result<(), Crash> {
    let cfg = &args.cfg;
    // A figure: run it, then its report, its shape checks under `label`
    // and its JSON.
    macro_rules! figure {
        ($m:ident :: $run:ident, $label:literal) => {{
            let f = $m::$run(cfg)?;
            out.figure($m::report(&f), ($label, $m::validate(&f)), json, &f);
        }};
    }
    match name {
        "table1" => out.print(&table1::report()),
        "fig1" => figure!(fig1::run_both, "fig1"),
        "fig2" => figure!(fig2::run, "fig2"),
        "table2" => {
            let f = table2::run(cfg)?;
            out.print(&table2::report(&f));
            out.json(json, &f);
        }
        "fig3" | "fig4" | "fig34" => figure!(fig34::run, "fig3/4"),
        "fig5" => figure!(fig5::run, "fig5"),
        "fig6" => figure!(fig6::run_both, "fig6"),
        "fig7" => figure!(fig7::run_both, "fig7"),
        "fig8" => figure!(fig8::run, "fig8"),
        "fig9" => figure!(fig9::run, "fig9"),
        "ablations" => figure!(ablations::run, "ablations"),
        "desktop" => figure!(desktop::run, "desktop"),
        "fuzz" => {
            let c = fuzz::run(&args.fuzz, cfg.threads);
            for crash in &c.crashes {
                out.leave(crash);
            }
            for line in &c.cancellations {
                out.stderr.push_str(&format!("{line}\n"));
            }
            out.print(&fuzz::report(&c.report));
            out.json(json, &c.report);
            if !c.report.failures.is_empty() {
                out.failed();
            }
        }
        other => out.usage_error(&format!("unknown experiment {other}")),
    }
    Ok(())
}

/// `--sched` for `battle run`/`trace`: the given schedulers replace each
/// scenario's own list; absent keeps the list.
fn sched_override(args: &Args) -> Option<&[Sched]> {
    args.sched_given.then_some(args.fuzz.scheds.as_slice())
}

/// The scenarios under `paths`, or `None` once the load error is in `out`.
fn load(out: &mut Out, paths: &[String]) -> Option<Vec<(PathBuf, Scenario)>> {
    match scenarios::load(paths) {
        Ok(loaded) => Some(loaded),
        Err(e) => {
            out.fail(format_args!("error: {e}"));
            None
        }
    }
}

/// `battle run` on `loaded`, streaming Chrome traces where `trace` says.
fn run_scenarios(
    out: &mut Out,
    args: &Args,
    loaded: &[(PathBuf, Scenario)],
    trace: Option<TraceTo>,
) {
    let cfg = &args.cfg;
    let strict = if cfg.check == CheckMode::Strict {
        " [strict]"
    } else {
        ""
    };
    out.print(&format!(
        "running {} scenario(s) at scale {} seed {}{strict}\n\n",
        loaded.len(),
        cfg.scale,
        cfg.seed,
    ));
    let batch = scenarios::run_all(loaded, cfg, sched_override(args), trace, args.timeout);
    for c in &batch.crashes {
        out.leave(c);
    }
    for line in &batch.traced {
        out.print(&format!("{line}\n"));
    }
    for report in &batch.reports {
        out.print(&scenarios::render(report));
    }
    let failed = batch.reports.iter().filter(|r| !r.passed()).count();
    let total = batch.reports.len();
    out.print(&format!("\n{}/{total} scenarios passed\n", total - failed));
    out.json(args.json.as_deref(), &batch.reports);
    if failed > 0 {
        out.failed();
    }
}

/// `battle tune`: tune each of `scheds` over `corpus`, and with `--write`
/// record the tuned files under `results/tuned/`.
fn tune(out: &mut Out, args: &Args, corpus: &[(PathBuf, Scenario)], scheds: &[Sched]) {
    let tc = experiments::tune::TuneCfg {
        budget: args.budget,
        run: args.cfg,
    };
    let mut reports = Vec::new();
    for &sched in scheds {
        let r = experiments::tune::run(corpus, sched, &tc);
        out.print(&format!("{}\n", experiments::tune::render(&r)));
        // The searcher's contract: the incumbent never loses to stock.
        if !r.failures.is_empty() || r.tuned_composite < r.stock_composite {
            out.failed();
        }
        reports.push(r);
    }
    if args.write {
        let dir = Path::new("results/tuned");
        let mut table_md = String::from("# `battle tune` — tuned vs stock\n");
        for r in &reports {
            let file = dir.join(format!("{}.toml", r.sched.flag_name()));
            out.write(&file, Ok(experiments::tune::tuned_toml(r)));
            table_md.push_str(&format!("\n```\n{}```\n", experiments::tune::render(r)));
        }
        out.write(&dir.join("table.md"), Ok(table_md));
    }
    let batch = experiments::tune::TuneBatch { reports };
    out.json(args.json.as_deref(), &batch);
}

/// `battle golden`: check the manifest's digests against the committed
/// files, or with `--write` record them under `results/golden/`.
fn golden(out: &mut Out, args: &Args) {
    let digests = golden::compute_all(args.cfg.check, args.cfg.threads);
    for c in digests.iter().filter_map(|d| d.crash.as_ref()) {
        out.leave(c);
    }
    if !args.write {
        let (report, ok) = golden::check(&digests);
        out.print(&report);
        if !ok {
            out.failed();
        }
        return;
    }
    for (entry, d) in golden::manifest().iter().zip(&digests) {
        match golden::record(entry, d) {
            Ok((path, text, wrote)) => {
                if out.write(&path, Ok(text)) {
                    out.print(&format!("{wrote}\n"));
                }
            }
            Err(refused) => out.fail(refused),
        }
    }
}

/// Run the subcommand `args` name.
fn run(args: &Args) -> Out {
    let mut out = Out::default();
    let json = args.json.as_deref();
    let needs_paths = ["run", "tournament", "chaos"].contains(&args.experiment.as_str());
    if needs_paths && args.paths.is_empty() {
        let what = &args.experiment;
        out.usage_error(&format!(
            "{what} needs at least one scenario file or directory"
        ));
        return out;
    }
    match args.experiment.as_str() {
        "run" => {
            if let Some(loaded) = load(&mut out, &args.paths) {
                let trace = args.trace.then_some(TraceTo::Dir(Path::new("traces")));
                run_scenarios(&mut out, args, &loaded, trace);
            }
        }
        "trace" => {
            let fig = args.trace_fig.as_deref().unwrap_or("");
            let Some(&(_, toml)) = TRACE_FIGS.iter().find(|(name, _)| *name == fig) else {
                let known: Vec<&str> = TRACE_FIGS.iter().map(|(name, _)| *name).collect();
                let known = known.join(" ");
                out.usage_error(&format!(
                    "trace: no scenario for figure `{fig}` (have: {known})"
                ));
                return out;
            };
            match Scenario::from_toml(toml) {
                Ok(sc) => {
                    // The file the scenario was compiled from, for the
                    // report and the crash replay line.
                    let path = PathBuf::from(format!("scenarios/{}.toml", sc.name));
                    let trace = Some(TraceTo::File(Path::new(&args.out)));
                    run_scenarios(&mut out, args, &[(path, sc)], trace);
                }
                Err(e) => out.fail(format_args!("trace {fig}: compiled-in scenario: {e}")),
            }
        }
        "tournament" => {
            if let Some(corpus) = load(&mut out, &args.paths) {
                let r = experiments::tournament::run(&corpus, &args.cfg);
                out.print(&experiments::tournament::render(&r));
                out.json(json, &r);
                if !r.failures.is_empty() || r.partial_runs > 0 {
                    out.failed();
                }
            }
        }
        "tune" => {
            let scheds: Vec<Sched> = Sched::TUNABLE
                .into_iter()
                .filter(|s| !args.sched_given || args.fuzz.scheds.contains(s))
                .collect();
            let default = ["scenarios".to_string()];
            let paths = if args.paths.is_empty() {
                &default[..]
            } else {
                &args.paths
            };
            if scheds.is_empty() {
                out.usage_error("--sched selected no tunable scheduler");
            } else if let Some(corpus) = load(&mut out, paths) {
                tune(&mut out, args, &corpus, &scheds);
            }
        }
        "chaos" => {
            if let Some(corpus) = load(&mut out, &args.paths) {
                let cfg = &args.cfg;
                out.print(&format!(
                    "chaos: {} scenario(s) at scale {} seed {} ({} random plan(s) per pair)\n\n",
                    corpus.len(),
                    cfg.scale,
                    cfg.seed,
                    args.plans
                ));
                let (r, crashes) = chaos::run(&corpus, cfg, args.plans);
                for c in &crashes {
                    out.leave(c);
                }
                out.print(&chaos::report(&r));
                out.json(json, &r);
                if !chaos::passed(&r) {
                    out.failed();
                }
            }
        }
        "golden" => golden(&mut out, args),
        "all" => {
            let all = "table1 fig1 fig2 table2 fig34 fig5 fig6 fig7 fig8 fig9 ablations desktop";
            for name in all.split(' ') {
                out.print(&format!(
                    "════════════════════════ {name} ════════════════════════\n"
                ));
                let json = json.map(|p| format!("{p}.{name}.json"));
                if let Err(c) = experiment(&mut out, name, args, json.as_deref()) {
                    out.crash(&c);
                    break;
                }
                out.print("\n");
            }
        }
        name => {
            if let Err(c) = experiment(&mut out, name, args, json) {
                out.crash(&c);
            }
        }
    }
    out
}

fn main() {
    let out = match parse_args() {
        Ok(args) => run(&args),
        Err(e) => Out {
            stderr: format!("{e}\n"),
            code: BAD_ARGS,
            ..Out::default()
        },
    };
    std::process::exit(out.finish());
}
