//! Layered host-time benchmark of the simulator.
//!
//! ```text
//! cargo run --release --locked --manifest-path simbench/Cargo.toml -- \
//!     --workload interactive-1c [--seed 42] [--seconds 30] [--trace 0|1]
//! ```
//!
//! A workload is one corpus scenario at a fixed scale; a run replays it
//! under all six scheduling classes, one class at a time, in rounds, until
//! `--seconds` have passed. `--trace 0` prints the end-to-end metrics of the
//! untraced pass (`scenario::run_sched`); `--trace 1` adds a traced pass per
//! class and prints the per-layer metrics. Every run is checked (see
//! [`Gate`]). The last line of standard output is one JSON object; a
//! readable table goes to standard error. See `README.md` for the metrics.

mod reference;
mod report;
mod traced;
mod workloads;

#[cfg(test)]
mod tests;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use scenario::{EngineError, EngineOpts, RunOutput, Scenario, Sched};

use crate::report::Metric;
use crate::traced::Traced;
use crate::workloads::Workload;

/// Rounds a run makes even when `--seconds` has passed.
const MIN_ROUNDS: usize = 3;
/// Set-up samples taken at the start of every round.
const SETUP_PER_ROUND: usize = 2;
/// Shortest set-up sample: smaller set-ups are repeated in a batch this
/// long and timed as a whole, so timer granularity does not dominate.
const SETUP_SAMPLE_S: f64 = 0.002;

/// What one benchmark run does.
pub struct Config {
    /// The input.
    pub workload: &'static Workload,
    /// Seed of every simulation.
    pub seed: u64,
    /// Host seconds of measured rounds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Work-volume scale of the scenario (the workload's own, except in
    /// the tests, which run the workloads small).
    pub scale: f64,
}

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Simulation runs made.
    pub attempted: u64,
    /// Runs that failed a [`Gate`] check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

/// The correctness gate. A run fails if it errs, is cut short, violates an
/// assertion of its scenario, or ends on another decision digest than the
/// class's first run at this seed. Traced runs and check-off reference runs
/// are held to the same digest: neither the timing wrapper nor SchedSan may
/// change a decision.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    digests: [Option<u64>; Sched::ALL.len()],
}

impl Gate {
    fn judge(&mut self, i: usize, pass: &str, verdict: Result<u64, String>) {
        self.attempted += 1;
        let verdict = verdict.and_then(|digest| {
            let reference = *self.digests[i].get_or_insert(digest);
            if digest == reference {
                Ok(digest)
            } else {
                Err(format!("digest {digest:016x} != {reference:016x}"))
            }
        });
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("FAILED [{}] {pass}: {why}", Sched::ALL[i].flag_name());
        }
    }

    fn untraced(
        &mut self,
        sc: &Scenario,
        i: usize,
        pass: &str,
        out: &Result<RunOutput, EngineError>,
    ) {
        let verdict = match out {
            Err(e) => Err(e.to_string()),
            Ok(out) if out.run.partial => Err("partial run".to_string()),
            Ok(out) => {
                let failures = scenario::failures(sc, std::slice::from_ref(&out.run));
                if failures.is_empty() {
                    Ok(out.run.digest)
                } else {
                    Err(failures.join("; "))
                }
            }
        };
        self.judge(i, pass, verdict);
    }

    fn traced(&mut self, i: usize, out: &Result<Traced, String>) {
        let verdict = match out {
            Err(e) => Err(e.clone()),
            Ok(t) if t.partial => Err("partial run".to_string()),
            Ok(t) => Ok(t.digest),
        };
        self.judge(i, "traced", verdict);
    }
}

/// Samples of one class across the rounds of a run.
#[derive(Default)]
pub struct ClassSamples {
    /// Host seconds of each untraced `run_sched`.
    pub wall_s: Vec<f64>,
    /// Each traced run.
    pub traced: Vec<Traced>,
    /// Strict minus check-off host seconds, per round (strict workloads).
    pub check_cost_s: Vec<f64>,
    /// Kernel counters of the last untraced run.
    pub counters: kernel::Counters,
}

/// Everything a run measured, before it is reduced to metrics.
pub struct Samples {
    /// Per repetition: `Scenario::from_toml` seconds.
    pub parse_s: Vec<f64>,
    /// Per repetition: seconds to build all six kernels with their phases.
    pub build_s: Vec<f64>,
    /// Threads the scenario spawned (first class's run).
    pub threads: usize,
    /// Per class, in `Sched::ALL` order.
    pub classes: Vec<ClassSamples>,
    /// Per round: untraced host seconds, summed over the classes.
    pub round_wall_s: Vec<f64>,
    /// Per round: traced host seconds, summed over the classes.
    pub round_traced_s: Vec<f64>,
    /// Per round: host seconds of one [`reference::run`].
    pub reference_s: Vec<f64>,
    /// Peak resident memory of the process, MiB.
    pub peak_rss_mb: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One set-up sample: `batch` parses of the scenario, then `batch` builds
/// of all six kernels with their phases. Returns the scenario and the
/// seconds per parse and per build.
fn setup_sample(
    w: &Workload,
    opts: &EngineOpts,
    batch: usize,
) -> Result<(Scenario, f64, f64), String> {
    let (parsed, parse_s) = timed(|| {
        let mut last = None;
        for _ in 0..batch {
            last = Some(Scenario::from_toml(black_box(w.toml)));
        }
        last.expect("batch of at least one")
    });
    let sc = parsed.map_err(|e| format!("{}: {e}", w.name))?;
    let (built, build_s) = timed(|| {
        for _ in 0..batch {
            for sched in Sched::ALL {
                black_box(traced::build(&sc, sched, opts)?);
            }
        }
        Ok::<_, scenario::SpecError>(())
    });
    built.map_err(|e| format!("{}: {e}", w.name))?;
    Ok((sc, parse_s / batch as f64, build_s / batch as f64))
}

/// Make one benchmark run. `Err` means the input could not be set up.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let opts = EngineOpts {
        scale: cfg.scale,
        seed: cfg.seed,
        check: w.check,
        ..EngineOpts::default()
    };
    let strict = w.check == kernel::CheckMode::Strict;
    let off = EngineOpts {
        check: kernel::CheckMode::Off,
        ..opts.clone()
    };
    // A first, untimed sample sizes the batch.
    let (sc, parse, build) = setup_sample(w, &opts, 1)?;
    let batch = (SETUP_SAMPLE_S / (parse + build)).ceil().clamp(1.0, 1000.0) as usize;
    let (mut parse_s, mut build_s) = (Vec::new(), Vec::new());

    let mut gate = Gate::default();
    let mut classes: Vec<ClassSamples> =
        Sched::ALL.iter().map(|_| ClassSamples::default()).collect();
    let mut round_wall_s = Vec::new();
    let mut round_traced_s = Vec::new();
    let mut reference_s = Vec::new();
    let mut threads = 0;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < cfg.seconds {
        for _ in 0..SETUP_PER_ROUND {
            let (_, parse, build) = setup_sample(w, &opts, batch)?;
            parse_s.push(parse);
            build_s.push(build);
        }
        reference_s.push(timed(reference::run).1);
        let (mut wall, mut traced_wall) = (0.0, 0.0);
        for (i, &sched) in Sched::ALL.iter().enumerate() {
            let c = &mut classes[i];
            let (out, dt) = timed(|| scenario::run_sched(&sc, sched, &opts));
            gate.untraced(&sc, i, "untraced", &out);
            c.wall_s.push(dt);
            wall += dt;
            if let Ok(out) = &out {
                c.counters = out.run.counters.clone();
                if i == 0 {
                    threads = out.kernel.tasks().len();
                }
            }
            drop(out);
            if !cfg.trace {
                continue;
            }
            let t = traced::run(&sc, sched, &opts);
            gate.traced(i, &t);
            if let Ok(t) = t {
                traced_wall += t.wall_s;
                c.traced.push(t);
            }
            if strict {
                let (out, off_dt) = timed(|| scenario::run_sched(&sc, sched, &off));
                gate.untraced(&sc, i, "check-off", &out);
                c.check_cost_s.push(dt - off_dt);
            }
        }
        round_wall_s.push(wall);
        round_traced_s.push(traced_wall);
        rounds += 1;
    }
    if !cfg.trace {
        // The untraced pass never runs the wrapper; check once per class
        // that it changes no decision.
        for (i, &sched) in Sched::ALL.iter().enumerate() {
            gate.traced(i, &traced::run(&sc, sched, &opts));
        }
    }

    let samples = Samples {
        parse_s,
        build_s,
        threads,
        classes,
        round_wall_s,
        round_traced_s,
        reference_s,
        peak_rss_mb: report::peak_rss_mb(),
    };
    let metrics = if cfg.trace {
        report::per_layer(&samples)
    } else {
        report::end_to_end(&samples)
    };
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}

fn usage() -> ExitCode {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = workloads::find(&value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: workload.scale,
    };
    match run(&cfg) {
        Ok(out) => {
            report::print(&cfg, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
