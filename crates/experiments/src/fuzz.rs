//! `battle fuzz` — randomized differential stress testing under SchedSan.
//!
//! Each fuzz case derives a private seed from the base seed and the case
//! index and generates a [`Scenario`] from it ([`gen_case`]): one of five
//! preset machines, a fault plan, and one to four finite phases of the
//! corpus's own workload kinds. Every requested scheduler runs it through
//! [`scenario::run_sched`] with strict invariant checking, and a run fails
//! exactly when `battle run` would fail it: a crash, a supervision abort,
//! or a violated assertion (every case asserts that all its apps finish
//! within the horizon, so a lost wakeup fails it). A wall-clock
//! cancellation is counted apart: where it trips depends on the host.
//!
//! A failing case is shrunk by greedily dropping phases while it still
//! fails, restricted to the failing class and written as JSON beside its
//! crash bundle under `results/crash/` (see [`crate::crash`]). The report
//! prints the `battle run <file> --seed <case seed> --check strict` line
//! that replays it.

use kernel::{CancelToken, CheckMode};
use scenario::expr::{CountExpr, TimeExpr};
use scenario::spec::{FaultSpec, MutexThreadSpec, PhaseSpec, TopoSpec, WorkloadSpec};
use scenario::{AbortKind, EngineError, EngineOpts, Scenario};
use simcore::SimRng;

use crate::{crash, runner, Sched};

/// Fuzzing configuration (the `battle fuzz` flags).
#[derive(Debug, Clone)]
pub struct FuzzCfg {
    /// Number of cases to generate.
    pub cases: u32,
    /// Base seed; case `i` runs with a seed mixed from `(seed, i)`.
    pub seed: u64,
    /// Schedulers to run every case under.
    pub scheds: Vec<Sched>,
    /// Inject faults (spurious wakeups, tick jitter, hotplug).
    pub faults: bool,
    /// Per-case timeout in seconds (`--case-timeout`). Bounds both the
    /// *simulated* run (the generated horizon: an app unfinished there is
    /// a genuine hang and fails the case) and the *wall clock* (a case
    /// that takes this long in real time is cooperatively cancelled and
    /// reported, without failing the campaign, since wall-clock
    /// cancellation is host-dependent).
    pub case_timeout_s: f64,
}

impl Default for FuzzCfg {
    fn default() -> Self {
        FuzzCfg {
            cases: 100,
            seed: 42,
            scheds: Sched::BOTH.to_vec(),
            faults: true,
            case_timeout_s: 120.0,
        }
    }
}

/// One shrunk failure.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Failure {
    /// The exact per-case seed.
    pub case_seed: u64,
    /// Scheduler that failed the case.
    pub sched: Sched,
    /// What failed, as `battle run` reports it.
    pub error: String,
    /// Where the crash bundle was written (`None` if the write failed).
    pub bundle: Option<String>,
    /// One-line `battle run` command replaying the shrunk scenario file.
    pub repro: String,
}

/// The full fuzzing report.
#[derive(Debug, serde::Serialize)]
pub struct FuzzReport {
    /// Cases executed (per scheduler).
    pub cases: u32,
    /// Base seed.
    pub seed: u64,
    /// Whether faults were injected.
    pub faults: bool,
    /// Shrunk failures, if any.
    pub failures: Vec<Failure>,
    /// Cases cancelled by the wall-clock deadline (reported, not failed:
    /// the abort point depends on host speed, so these are not
    /// reproducible invariant violations).
    pub cancelled: u32,
    /// Total kernel events across all runs.
    pub events: u64,
    /// Total spurious wakeups injected.
    pub spurious_wakes: u64,
    /// Total hotplug transitions injected.
    pub hotplug_events: u64,
}

/// SplitMix64-style seed derivation: decorrelates per-case streams while
/// keeping `case i of seed s` stable for a given generator.
fn case_seed(seed: u64, i: u32) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The machines a case runs on: 1 to 32 CPUs, with and without SMT and
/// NUMA.
const MACHINES: [&str; 5] = ["single-core", "flat-2", "flat-4", "i7-3770", "opteron-6172"];

/// Milliseconds drawn uniformly from `lo_us..=hi_us` microseconds.
fn ms(rng: &mut SimRng, lo_us: u64, hi_us: u64) -> f64 {
    rng.gen_range(lo_us, hi_us) as f64 / 1000.0
}

/// A fixed count drawn uniformly from `lo..=hi`.
fn count(rng: &mut SimRng, lo: u64, hi: u64) -> CountExpr {
    CountExpr::fixed(rng.gen_range(lo, hi))
}

fn gen_faults(rng: &mut SimRng, smp: bool) -> FaultSpec {
    let mut f = FaultSpec {
        spurious_wake_ms: Some(ms(rng, 500, 5_000)),
        tick_jitter_us: rng.gen_below(300) as f64,
        missed_tick_pct: rng.gen_below(25),
        hotplug_period_s: None,
        hotplug_down_ms: 100.0,
    };
    if smp && rng.gen_bool(0.7) {
        f.hotplug_period_s = Some(rng.gen_range(5, 40) as f64 / 1000.0);
        f.hotplug_down_ms = rng.gen_range(2, 15) as f64;
    }
    f
}

/// One finite phase: every kind ends on its own, so a correct scheduler
/// always finishes the case.
fn gen_phase(rng: &mut SimRng, i: usize) -> PhaseSpec {
    let workload = match rng.gen_below(7) {
        0 => WorkloadSpec::CpuHogs {
            count: count(rng, 1, 7),
            work: TimeExpr::fixed(ms(rng, 5_000, 30_000) / 1000.0),
            chunk_ms: ms(rng, 1_000, 3_000),
            nice: rng.gen_below(11) as i64 - 5,
            pin: None,
        },
        // Interactive run/sleep loops: mutex-mix threads that never lock.
        1 => WorkloadSpec::MutexMix {
            threads: (0..rng.gen_range(1, 5))
                .map(|t| MutexThreadSpec {
                    name: format!("inter{t}"),
                    nice: 0,
                    iters: count(rng, 5, 16),
                    lock: false,
                    hold_ms: 0.0,
                    work_ms: ms(rng, 100, 1_000),
                    sleep_ms: Some(ms(rng, 1_000, 5_000)),
                })
                .collect(),
        },
        2 => WorkloadSpec::MutexMix {
            threads: (0..rng.gen_range(2, 4))
                .map(|t| MutexThreadSpec {
                    name: format!("locker{t}"),
                    nice: 0,
                    iters: count(rng, 5, 11),
                    lock: true,
                    hold_ms: ms(rng, 200, 1_000),
                    work_ms: 0.0,
                    sleep_ms: None,
                })
                .collect(),
        },
        3 => WorkloadSpec::ForkJoin {
            workers: count(rng, 2, 6),
            rounds: count(rng, 3, 9),
            work_ms: ms(rng, 500, 2_000),
        },
        4 => WorkloadSpec::Herd {
            waiters: count(rng, 1, 6),
            rounds: count(rng, 4, 10),
            work_us: rng.gen_range(100, 800) as f64,
            pause_ms: ms(rng, 100, 800),
        },
        5 => WorkloadSpec::ClientServer {
            clients: count(rng, 1, 4),
            servers: count(rng, 1, 4),
            rounds: count(rng, 5, 16),
            burst: rng.gen_range(1, 3),
            service_us: rng.gen_range(100, 500) as f64,
            think_ms: ms(rng, 200, 1_000),
        },
        _ => WorkloadSpec::Hackbench {
            groups: CountExpr::fixed(1),
            msgs: count(rng, 2, 20),
        },
    };
    PhaseSpec {
        name: format!("{}-{i}", workload.kind()),
        tenant: None,
        at: TimeExpr::fixed(rng.gen_below(21) as f64 / 1000.0),
        workload,
    }
}

/// Generate fuzz case `case_seed`: a preset machine, a fault plan (or
/// none), and one to four phases starting within the first 20 ms, run
/// until every app is done or the simulated horizon `case_timeout_s`
/// passes, and asserting that every app finished. Every expression is
/// fixed, so the case is the same at any `--scale`.
pub fn gen_case(case_seed: u64, faults: bool, case_timeout_s: f64) -> Scenario {
    let mut base = SimRng::new(case_seed);
    let machine = MACHINES[base.fork(1).gen_below(MACHINES.len() as u64) as usize];
    // Fork every stream whatever `faults` says, so the phases of case `i`
    // are the same with faults on and off.
    let mut fault_rng = base.fork(2);
    let mut rng = base.fork(3);
    let phases = (0..rng.gen_range(1, 4))
        .map(|i| gen_phase(&mut rng, i as usize))
        .collect();
    let mut sc = Scenario::new(
        format!("fuzz-{case_seed:016x}"),
        TopoSpec::Preset(machine.to_string()),
        phases,
        TimeExpr::fixed(case_timeout_s),
    );
    sc.description = format!("battle fuzz case; replay with --seed {case_seed} --check strict");
    if faults {
        sc.faults = gen_faults(&mut fault_rng, machine != "single-core");
    }
    sc.asserts.all_apps_done = Some(true);
    sc
}

/// Why one case run did not pass.
enum CaseFail {
    /// What `battle run` fails: a crash, a supervision abort or a
    /// violated assertion. Reproducible, shrinkable.
    Error(CaseError),
    /// The wall-clock deadline expired mid-run. Not shrinkable (the abort
    /// point depends on host speed, not the workload).
    Cancelled,
}

/// A failure `battle run` reproduces, as its crash bundle records it.
struct CaseError {
    /// The failure's kind (see [`crash::Crash::kind`]).
    kind: &'static str,
    error: String,
    report: String,
}

/// Run `sc` under `sched` as `battle run <file> --seed <seed> --check
/// strict` would. `Ok` carries the kernel's counters for aggregation.
fn run_case(
    sc: &Scenario,
    sched: Sched,
    seed: u64,
    cancel: Option<&CancelToken>,
) -> Result<kernel::Counters, CaseFail> {
    let opts = EngineOpts {
        seed,
        check: CheckMode::Strict,
        cancel: cancel.cloned(),
        ..EngineOpts::default()
    };
    let run = match scenario::run_sched(sc, sched, &opts) {
        Ok(out) => out.run,
        Err(e) => {
            let (kind, error, report) = match e {
                EngineError::Crash(c) => (c.kind, c.error, c.report),
                spec => ("spec error", spec.to_string(), spec.to_string()),
            };
            return Err(CaseFail::Error(CaseError {
                kind,
                error,
                report,
            }));
        }
    };
    if run.abort_kind == Some(AbortKind::Cancelled) {
        return Err(CaseFail::Cancelled);
    }
    let mut lines: Vec<String> = run
        .abort
        .iter()
        .map(|a| format!("[{}] partial: {a}", sched.name()))
        .collect();
    lines.extend(scenario::failures(sc, std::slice::from_ref(&run)));
    if lines.is_empty() {
        Ok(run.counters)
    } else {
        Err(CaseFail::Error(CaseError {
            kind: run.abort_kind.map_or("assertion failed", AbortKind::name),
            error: lines.join("; "),
            report: lines.join("\n") + "\n",
        }))
    }
}

/// Greedily drop phases while `fails` still holds; never drops the last
/// one.
fn shrink(mut sc: Scenario, mut fails: impl FnMut(&Scenario) -> bool) -> Scenario {
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < sc.phases.len() && sc.phases.len() > 1 {
            let mut candidate = sc.clone();
            candidate.phases.remove(i);
            if fails(&candidate) {
                sc = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return sc;
        }
    }
}

/// Shrink case `cs` that `sched` failed with `fail`, write the minimal
/// scenario beside its crash bundle, and describe it.
fn failure(sc: &Scenario, sched: Sched, cs: u64, fail: CaseError) -> Failure {
    // `last` tracks the most recent failing candidate, which is what the
    // shrinker returns. Shrink runs are never wall-clock cancelled (a
    // cancelled replay says nothing about the workload).
    let mut last = fail;
    let minimal = shrink(sc.clone(), |c| match run_case(c, sched, cs, None) {
        Err(CaseFail::Error(fail)) => {
            last = fail;
            true
        }
        _ => false,
    });
    let CaseError {
        kind,
        error,
        report,
    } = last;
    let file = crash::write_case(&minimal, sched);
    let repro = format!("battle run {} --seed {cs} --check strict", file.display());
    let bundle = crash::Crash {
        label: crash::case_label(&minimal, sched),
        kind,
        error: error.clone(),
        report,
        replay: repro.clone(),
    }
    .write_bundle();
    Failure {
        case_seed: cs,
        sched,
        error,
        bundle: bundle.ok().map(|p| p.display().to_string()),
        repro,
    }
}

/// Run the whole campaign on `threads` workers. Deterministic for a given
/// config, whatever the worker-pool size.
pub fn run(cfg: &FuzzCfg, threads: usize) -> FuzzReport {
    let seeds: Vec<u64> = (0..cfg.cases).map(|i| case_seed(cfg.seed, i)).collect();
    let timeout_s = cfg.case_timeout_s;
    // Per (case, class) run: its counters, or `Err(None)` when the wall
    // clock cancelled it, or `Err(Some(_))` with the shrunk failure.
    let outcomes = runner::par_map(threads, seeds, |cs| {
        let sc = gen_case(cs, cfg.faults, timeout_s);
        // One wall-clock deadline per case: slow hosts abort the case
        // cooperatively instead of wedging the campaign.
        let token = CancelToken::with_deadline(std::time::Duration::from_secs_f64(timeout_s));
        cfg.scheds
            .iter()
            .map(|&sched| match run_case(&sc, sched, cs, Some(&token)) {
                Ok(c) => Ok(c),
                Err(CaseFail::Cancelled) => {
                    eprintln!(
                        "fuzz case {cs:#x} [{}] cancelled after {timeout_s}s wall clock",
                        sched.name()
                    );
                    Err(None)
                }
                Err(CaseFail::Error(fail)) => Err(Some(failure(&sc, sched, cs, fail))),
            })
            .collect::<Vec<_>>()
    });

    let mut report = FuzzReport {
        cases: cfg.cases,
        seed: cfg.seed,
        faults: cfg.faults,
        failures: Vec::new(),
        cancelled: 0,
        events: 0,
        spurious_wakes: 0,
        hotplug_events: 0,
    };
    for outcome in outcomes.into_iter().flatten() {
        match outcome {
            Ok(c) => {
                report.events += c.events;
                report.spurious_wakes += c.spurious_wakes;
                report.hotplug_events += c.hotplug_events;
            }
            Err(None) => report.cancelled += 1,
            Err(Some(f)) => report.failures.push(f),
        }
    }
    report
}

/// Render the campaign summary.
pub fn report(r: &FuzzReport) -> String {
    let mut s = format!(
        "fuzz: {} cases, seed {}, faults {} — {} events, {} spurious wakes, {} hotplugs\n",
        r.cases,
        r.seed,
        if r.faults { "on" } else { "off" },
        r.events,
        r.spurious_wakes,
        r.hotplug_events
    );
    if r.cancelled > 0 {
        s.push_str(&format!(
            "{} case run(s) hit the wall-clock deadline and were cancelled\n",
            r.cancelled
        ));
    }
    if r.failures.is_empty() {
        s.push_str("no invariant violations\n");
    } else {
        for f in &r.failures {
            s.push_str(&format!(
                "FAIL [{}] {}\n  repro: {}\n",
                f.sched.name(),
                f.error,
                f.repro
            ));
            if let Some(b) = &f.bundle {
                s.push_str(&format!("  bundle: {b}\n"));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_stable_and_spread() {
        assert_eq!(case_seed(42, 0), case_seed(42, 0));
        assert_ne!(case_seed(42, 0), case_seed(42, 1));
        assert_ne!(case_seed(42, 0), case_seed(43, 0));
    }

    #[test]
    fn small_campaign_is_clean() {
        let cfg = FuzzCfg {
            cases: 4,
            seed: 7,
            ..Default::default()
        };
        let r = run(&cfg, 2);
        assert!(r.failures.is_empty(), "{}", report(&r));
        assert!(r.events > 0);
    }

    #[test]
    fn faults_off_case_runs() {
        let cfg = FuzzCfg {
            cases: 1,
            seed: 3,
            faults: false,
            ..Default::default()
        };
        let r = run(&cfg, 1);
        assert!(r.failures.is_empty(), "{}", report(&r));
        assert!(r.events > 0);
        assert_eq!((r.spurious_wakes, r.hotplug_events), (0, 0));
    }

    /// The file a failure writes parses back to the generated scenario,
    /// and replays with the same decisions under every class.
    #[test]
    fn generated_cases_round_trip_through_their_file() {
        for i in 0..64 {
            let cs = case_seed(11, i);
            let sc = gen_case(cs, i % 4 != 0, 120.0);
            let json = crash::case_json(&sc).expect("generated case serializes");
            let back = Scenario::from_json(&json).expect("generated case parses");
            assert_eq!(back, sc, "case {cs:#x}");
            for sched in Sched::ALL {
                let opts = EngineOpts {
                    seed: cs,
                    ..EngineOpts::default()
                };
                let digest =
                    |s: &Scenario| scenario::run_sched(s, sched, &opts).unwrap().run.digest;
                assert_eq!(
                    digest(&back),
                    digest(&sc),
                    "case {cs:#x} [{}]",
                    sched.name()
                );
            }
        }
    }

    #[test]
    fn shrink_keeps_only_the_failing_phase() {
        let is_herd = |p: &PhaseSpec| p.workload.kind() == "herd";
        let herds = |sc: &Scenario| sc.phases.iter().filter(|p| is_herd(p)).count();
        let sc = (0..)
            .map(|i| gen_case(case_seed(1, i), true, 120.0))
            .find(|sc| sc.phases.len() >= 3 && herds(sc) == 1)
            .expect("some case mixes one herd phase with two others");
        let minimal = shrink(sc.clone(), |c| herds(c) > 0);
        let herd: Vec<PhaseSpec> = sc.phases.iter().filter(|p| is_herd(p)).cloned().collect();
        assert_eq!(minimal.phases, herd);
        // A predicate that always holds still leaves one phase; one that
        // never holds leaves the case as it was.
        assert_eq!(shrink(sc.clone(), |_| true).phases.len(), 1);
        assert_eq!(shrink(sc.clone(), |_| false), sc);
    }

    /// A failing case is shrunk, written under `results/crash/`, and the
    /// written file fails again when run as its repro line says.
    #[test]
    fn failing_case_is_written_as_a_replayable_file() {
        let cs = case_seed(5, 0);
        let mut sc = gen_case(cs, false, 120.0);
        sc.phases.push(PhaseSpec {
            name: "hogs".into(),
            tenant: None,
            at: TimeExpr::fixed(0.0),
            workload: WorkloadSpec::CpuHogs {
                count: CountExpr::fixed(2),
                work: TimeExpr::fixed(0.05),
                chunk_ms: 1.0,
                nice: 0,
                pin: None,
            },
        });
        // Too short a run for the hogs to finish: `all_apps_done` fails.
        sc.run.horizon = TimeExpr::fixed(0.002);
        sc.run.step = TimeExpr::fixed(0.002);
        let Err(CaseFail::Error(fail)) = run_case(&sc, Sched::Cfs, cs, None) else {
            panic!("the cut-short case must fail");
        };
        assert_eq!(fail.kind, "assertion failed");
        assert!(fail.error.contains("all_apps_done"), "{}", fail.error);
        let f = failure(&sc, Sched::Cfs, cs, fail);
        let file = crash::path(&format!("{}-CFS", sc.name), "json");
        assert_eq!(
            f.repro,
            format!("battle run {} --seed {cs} --check strict", file.display())
        );
        let src = std::fs::read_to_string(&file).expect("scenario file written");
        let written = Scenario::from_json(&src).expect("written file parses");
        assert_eq!(written.scheds, vec![Sched::Cfs]);
        assert!(!written.phases.is_empty() && written.phases.len() <= sc.phases.len());
        assert!(matches!(
            run_case(&written, Sched::Cfs, cs, None),
            Err(CaseFail::Error(_))
        ));
    }
}
