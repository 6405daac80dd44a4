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

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use experiments::scenarios::TraceTo;
use experiments::{
    ablations, chaos, desktop, fig1, fig2, fig34, fig5, fig6, fig7, fig8, fig9, fuzz, golden,
    scenarios, table1, table2, RunCfg, Sched,
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
     golden:      battle golden [--write] [--check strict|off] — check (or record) the pinned decision digests"
        .to_string()
}

/// Write `value` as pretty JSON to `path` (if set). Returns `false` on an
/// I/O failure so `main` can exit nonzero instead of silently dropping the
/// requested output.
#[must_use]
fn dump_json(path: &Option<String>, value: &impl serde::Serialize) -> bool {
    let Some(p) = path else {
        return true;
    };
    let s = match serde_json::to_string_pretty(value) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot serialize output for {p}: {e}");
            return false;
        }
    };
    match std::fs::write(p, s) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("cannot write {p}: {e}");
            false
        }
    }
}

fn print_validation(name: &str, problems: Vec<String>) {
    if problems.is_empty() {
        println!("[{name}] shape checks: OK");
    } else {
        for p in &problems {
            println!("[{name}] shape check FAILED: {p}");
        }
    }
}

/// Run one experiment; returns `false` if a requested JSON dump failed or
/// (for `fuzz`) an invariant violation was found.
fn run_one(name: &str, args: &Args, json: &Option<String>) -> bool {
    let (cfg, fz) = (&args.cfg, &args.fuzz);
    let ok = match name {
        "table1" => {
            print!("{}", table1::report());
            true
        }
        "fig1" => {
            let fig = fig1::run_both(cfg);
            print!("{}", fig1::report(&fig));
            print_validation("fig1", fig1::validate(&fig));
            dump_json(json, &fig)
        }
        "fig2" => {
            let ule = fig2::run(cfg);
            print!("{}", fig2::report(&ule));
            print_validation("fig2", fig2::validate(&ule));
            dump_json(json, &ule)
        }
        "table2" => {
            let fig = table2::run(cfg);
            print!("{}", table2::report(&fig));
            dump_json(json, &fig)
        }
        "fig3" | "fig4" | "fig34" => {
            let f = fig34::run(cfg);
            print!("{}", fig34::report(&f));
            print_validation("fig3/4", fig34::validate(&f));
            dump_json(json, &f)
        }
        "fig5" => {
            let cmp = fig5::run(cfg);
            print!("{}", fig5::report(&cmp));
            print_validation("fig5", fig5::validate(&cmp));
            dump_json(json, &cmp)
        }
        "fig6" => {
            let fig = fig6::run_both(cfg);
            print!("{}", fig6::report(&fig));
            print_validation("fig6", fig6::validate(&fig));
            dump_json(json, &fig)
        }
        "fig7" => {
            let fig = fig7::run_both(cfg);
            print!("{}", fig7::report(&fig));
            print_validation("fig7", fig7::validate(&fig));
            dump_json(json, &fig)
        }
        "fig8" => {
            let cmp = fig8::run(cfg);
            print!("{}", fig8::report(&cmp));
            print_validation("fig8", fig8::validate(&cmp));
            dump_json(json, &cmp)
        }
        "fig9" => {
            let fig = fig9::run(cfg);
            print!("{}", fig9::report(&fig));
            print_validation("fig9", fig9::validate(&fig));
            dump_json(json, &fig)
        }
        "ablations" => {
            let a = ablations::run(cfg);
            print!("{}", ablations::report(&a));
            print_validation("ablations", ablations::validate(&a));
            dump_json(json, &a)
        }
        "desktop" => {
            let d = desktop::run(cfg);
            print!("{}", desktop::report(&d));
            print_validation("desktop", desktop::validate(&d));
            dump_json(json, &d)
        }
        "fuzz" => {
            let r = fuzz::run(fz, cfg.threads);
            print!("{}", fuzz::report(&r));
            dump_json(json, &r) && r.failures.is_empty()
        }
        other => {
            eprintln!("unknown experiment {other}\n{}", usage());
            std::process::exit(2);
        }
    };
    std::io::stdout().flush().ok();
    ok
}

/// `--sched` for `battle run`/`trace`: the given schedulers replace each
/// scenario's own list; absent keeps the list.
fn sched_override(args: &Args) -> Option<&[Sched]> {
    args.sched_given.then_some(args.fuzz.scheds.as_slice())
}

/// `battle trace <fig>`: `battle run` on the figure's scenario with
/// `--trace`, writing the Chrome-trace JSON to `--out`.
fn run_trace(args: &Args) -> bool {
    let fig = args.trace_fig.as_deref().unwrap_or("");
    let Some(&(_, toml)) = TRACE_FIGS.iter().find(|(name, _)| *name == fig) else {
        let known: Vec<&str> = TRACE_FIGS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "trace: no scenario for figure `{fig}` (have: {})\n{}",
            known.join(" "),
            usage()
        );
        std::process::exit(2);
    };
    let sc = match Scenario::from_toml(toml) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("trace {fig}: compiled-in scenario: {e}");
            return false;
        }
    };
    // The file the scenario was compiled from, for the report and the
    // crash replay line.
    let path = PathBuf::from(format!("scenarios/{}.toml", sc.name));
    scenarios::cli(
        &[(path, sc)],
        &args.cfg,
        sched_override(args),
        Some(TraceTo::File(Path::new(&args.out))),
        &args.json,
        args.timeout,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut ok = true;
    if args.experiment == "trace" {
        ok = run_trace(&args);
        std::io::stdout().flush().ok();
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if args.experiment == "run" {
        if args.paths.is_empty() {
            eprintln!(
                "run needs at least one scenario file or directory\n{}",
                usage()
            );
            std::process::exit(2);
        }
        ok = match scenarios::load(&args.paths) {
            Ok(loaded) => scenarios::cli(
                &loaded,
                &args.cfg,
                sched_override(&args),
                args.trace.then_some(TraceTo::Dir(Path::new("traces"))),
                &args.json,
                args.timeout,
            ),
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        };
        std::io::stdout().flush().ok();
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if args.experiment == "tournament" {
        if args.paths.is_empty() {
            eprintln!(
                "tournament needs at least one scenario file or directory\n{}",
                usage()
            );
            std::process::exit(2);
        }
        ok = experiments::tournament::cli(&args.paths, &args.cfg, &args.json);
        std::io::stdout().flush().ok();
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if args.experiment == "tune" {
        let paths = if args.paths.is_empty() {
            vec!["scenarios".to_string()]
        } else {
            args.paths.clone()
        };
        let scheds: Vec<Sched> = if args.sched_given {
            args.fuzz
                .scheds
                .iter()
                .copied()
                .filter(|&s| Sched::TUNABLE.contains(&s))
                .collect()
        } else {
            Sched::TUNABLE.to_vec()
        };
        if scheds.is_empty() {
            eprintln!("--sched selected no tunable scheduler\n{}", usage());
            std::process::exit(2);
        }
        let tc = experiments::tune::TuneCfg {
            budget: args.budget,
            run: args.cfg,
            scheds,
            write: args.write,
            out_dir: "results/tuned".into(),
        };
        ok = experiments::tune::cli(&paths, &tc, &args.json);
        std::io::stdout().flush().ok();
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if args.experiment == "chaos" {
        if args.paths.is_empty() {
            eprintln!(
                "chaos needs at least one scenario file or directory\n{}",
                usage()
            );
            std::process::exit(2);
        }
        ok = chaos::cli(&args.paths, &args.cfg, args.plans, &args.json);
        std::io::stdout().flush().ok();
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if args.experiment == "golden" {
        ok = if args.write {
            golden::write_all(args.cfg.check, args.cfg.threads)
        } else {
            golden::check_all(args.cfg.check, args.cfg.threads)
        };
        std::io::stdout().flush().ok();
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if args.experiment == "all" {
        for name in [
            "table1",
            "fig1",
            "fig2",
            "table2",
            "fig34",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "ablations",
            "desktop",
        ] {
            println!("════════════════════════ {name} ════════════════════════");
            ok &= run_one(
                name,
                &args,
                &args.json.as_ref().map(|p| format!("{p}.{name}.json")),
            );
            println!();
        }
    } else {
        ok = run_one(&args.experiment, &args, &args.json);
    }
    if !ok {
        std::process::exit(1);
    }
}
