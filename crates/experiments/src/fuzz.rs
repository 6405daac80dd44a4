//! `battle fuzz` — randomized differential stress testing under SchedSan.
//!
//! Each fuzz case derives a private seed from the base seed and the case
//! index, generates a random topology, workload mix, and fault plan from
//! it, and runs the same case under every requested scheduler with strict
//! invariant checking enabled. The workload mix is built from four
//! independently toggleable *parts* (CPU hogs, interactive sleepers, a
//! queue pipeline, a barrier/mutex/semaphore gang), which is what makes
//! failures shrinkable: when a case fails, the harness greedily drops parts
//! that are not needed to reproduce the violation and reports a one-line
//! repro command for the minimal mix.
//!
//! Every failure also produces a crash bundle under `results/crash/` (see
//! [`crate::crash`]).

use kernel::{
    Action, AppSpec, CancelToken, CheckMode, FaultPlan, Kernel, Script, SimConfig, SimError,
    ThreadSpec,
};
use simcore::{Dur, SimRng, Time};
use topology::Topology;

use crate::{crash::Crash, runner, Sched};

/// Workload part bits (the `--parts` mask).
pub const PART_HOGS: u8 = 1 << 0;
/// Interactive run/sleep loops.
pub const PART_INTERACTIVE: u8 = 1 << 1;
/// Bounded-queue producer/consumer pipeline.
pub const PART_PIPELINE: u8 = 1 << 2;
/// Barrier gang + mutex contenders + semaphore ping-pong.
pub const PART_SYNC: u8 = 1 << 3;
/// All parts enabled.
pub const PART_ALL: u8 = PART_HOGS | PART_INTERACTIVE | PART_PIPELINE | PART_SYNC;

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
    /// Workload-part mask ([`PART_ALL`] by default).
    pub parts: u8,
    /// Run exactly one case with this exact seed (replay mode).
    pub case_seed: Option<u64>,
    /// Per-case timeout in seconds (`--case-timeout`). Bounds both the
    /// *simulated* run (an unfinished app at this simulated time is a
    /// genuine hang and fails the case — the old hardcoded 120 s) and the
    /// *wall clock* (a case that takes this long in real time is
    /// cooperatively cancelled and reported, without failing the
    /// campaign, since wall-clock cancellation is host-dependent).
    pub case_timeout_s: f64,
}

impl Default for FuzzCfg {
    fn default() -> Self {
        FuzzCfg {
            cases: 100,
            seed: 42,
            scheds: Sched::BOTH.to_vec(),
            faults: true,
            parts: PART_ALL,
            case_seed: None,
            case_timeout_s: 120.0,
        }
    }
}

/// One shrunk failure.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Failure {
    /// The exact per-case seed.
    pub case_seed: u64,
    /// Scheduler that violated an invariant.
    pub sched: Sched,
    /// Minimal part mask that still reproduces the failure.
    pub parts: u8,
    /// The violated invariant.
    pub error: String,
    /// Where the crash bundle was written (`None` if the write failed).
    pub bundle: Option<String>,
    /// One-line repro command.
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
/// keeping `case i of seed s` stable forever (repro lines depend on it).
fn case_seed(seed: u64, i: u32) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick_topo(rng: &mut SimRng) -> Topology {
    match rng.gen_below(5) {
        0 => Topology::single_core(),
        1 => Topology::flat(2),
        2 => Topology::flat(4),
        3 => Topology::core_i7_3770(),
        _ => Topology::opteron_6172(),
    }
}

fn pick_faults(rng: &mut SimRng, topo: &Topology) -> FaultPlan {
    let mut plan = FaultPlan {
        spurious_wake_period: Some(Dur::micros(rng.gen_range(500, 5_000))),
        tick_jitter: Dur::micros(rng.gen_below(300)),
        missed_tick_pct: rng.gen_below(25) as u8,
        ..FaultPlan::default()
    };
    if topo.nr_cpus() > 1 && rng.gen_bool(0.7) {
        plan.hotplug_period = Some(Dur::millis(rng.gen_range(5, 40)));
        plan.hotplug_down = Dur::millis(rng.gen_range(2, 15));
    }
    plan
}

fn dur_ms(rng: &mut SimRng, lo_us: u64, hi_us: u64) -> Dur {
    Dur::micros(rng.gen_range(lo_us, hi_us))
}

/// Generate the case's threads into `k` and queue them as one app.
///
/// Every part is finite, so a correct scheduler always finishes the app;
/// a timeout is reported as a (likely lost-wakeup) failure.
fn build_case(k: &mut Kernel, cs: u64, parts: u8) {
    let mut base = SimRng::new(cs);
    let mut threads: Vec<ThreadSpec> = Vec::new();

    if parts & PART_HOGS != 0 {
        let mut rng = base.fork(10);
        for i in 0..rng.gen_range(1, 7) {
            let total = dur_ms(&mut rng, 5_000, 30_000);
            let chunk = dur_ms(&mut rng, 1_000, 3_000);
            let nice = rng.gen_below(11) as i32 - 5;
            threads
                .push(ThreadSpec::new(format!("hog{i}"), kernel::cpu_hog(total, chunk)).nice(nice));
        }
    }

    if parts & PART_INTERACTIVE != 0 {
        let mut rng = base.fork(11);
        for i in 0..rng.gen_range(1, 5) {
            let iters = rng.gen_range(5, 16);
            let mut steps = Vec::new();
            for _ in 0..iters {
                steps.push(Action::Run(dur_ms(&mut rng, 100, 1_000)));
                steps.push(Action::Sleep(dur_ms(&mut rng, 1_000, 5_000)));
                steps.push(Action::CountOps(1));
            }
            threads.push(ThreadSpec::new(
                format!("inter{i}"),
                Box::new(Script::new(steps)),
            ));
        }
    }

    if parts & PART_PIPELINE != 0 {
        let mut rng = base.fork(12);
        let q = k.new_queue(rng.gen_range(1, 4) as usize);
        let consumers = rng.gen_range(1, 4);
        let per = rng.gen_range(5, 16);
        let total = consumers * per;
        let mut put = Vec::new();
        for v in 0..total {
            put.push(Action::Run(dur_ms(&mut rng, 100, 500)));
            put.push(Action::QueuePut(q, v));
        }
        threads.push(ThreadSpec::new("producer", Box::new(Script::new(put))));
        for i in 0..consumers {
            let mut get = Vec::new();
            for _ in 0..per {
                get.push(Action::QueueGet(q));
                get.push(Action::Run(dur_ms(&mut rng, 200, 1_000)));
                get.push(Action::CountOps(1));
            }
            threads.push(ThreadSpec::new(
                format!("consumer{i}"),
                Box::new(Script::new(get)),
            ));
        }
    }

    if parts & PART_SYNC != 0 {
        let mut rng = base.fork(13);
        // Barrier gang: every party runs the same number of rounds.
        let parties = rng.gen_range(2, 6) as usize;
        let b = k.new_barrier(parties);
        let rounds = rng.gen_range(3, 9);
        for i in 0..parties {
            let mut steps = Vec::new();
            for _ in 0..rounds {
                steps.push(Action::Run(dur_ms(&mut rng, 500, 2_000)));
                steps.push(Action::BarrierWait(b));
            }
            threads.push(ThreadSpec::new(
                format!("gang{i}"),
                Box::new(Script::new(steps)),
            ));
        }
        // Two mutex contenders.
        let m = k.new_mutex();
        for i in 0..2 {
            let mut steps = Vec::new();
            for _ in 0..rng.gen_range(5, 11) {
                steps.push(Action::MutexLock(m));
                steps.push(Action::Run(dur_ms(&mut rng, 200, 1_000)));
                steps.push(Action::MutexUnlock(m));
            }
            threads.push(ThreadSpec::new(
                format!("locker{i}"),
                Box::new(Script::new(steps)),
            ));
        }
        // Semaphore ping-pong.
        let s = k.new_sem(0);
        let k_posts = rng.gen_range(4, 10);
        let mut post = Vec::new();
        let mut wait = Vec::new();
        for _ in 0..k_posts {
            post.push(Action::Run(dur_ms(&mut rng, 100, 800)));
            post.push(Action::SemPost(s));
            wait.push(Action::SemWait(s));
            wait.push(Action::Run(dur_ms(&mut rng, 100, 800)));
        }
        threads.push(ThreadSpec::new("poster", Box::new(Script::new(post))));
        threads.push(ThreadSpec::new("waiter", Box::new(Script::new(wait))));
    }

    if threads.is_empty() {
        // Empty masks degenerate to one hog so every case does something.
        threads.push(ThreadSpec::new(
            "hog0",
            kernel::cpu_hog(Dur::millis(10), Dur::millis(1)),
        ));
    }
    k.queue_app(Time::ZERO, AppSpec::new("fuzz", threads));
}

/// Why one case did not return clean counters.
enum CaseFail {
    /// Invariant violation or kernel error: reproducible, shrinkable.
    Error { error: String, report: String },
    /// The wall-clock deadline expired mid-run. Not shrinkable (the abort
    /// point depends on host speed, not the workload).
    Cancelled,
}

/// Run one case under one scheduler. `Ok` carries the kernel's counters
/// for aggregation.
fn run_case(
    cs: u64,
    sched: Sched,
    parts: u8,
    faults: bool,
    timeout_s: f64,
    cancel: Option<&CancelToken>,
) -> Result<kernel::Counters, CaseFail> {
    let mut base = SimRng::new(cs);
    let topo = pick_topo(&mut base.fork(1));
    let mut cfg = SimConfig::with_seed(cs);
    cfg.check = CheckMode::Strict;
    cfg.trace_capacity = 256;
    if faults {
        cfg.faults = pick_faults(&mut base.fork(2), &topo);
    }
    let class = scenario::make_class(&topo, sched, cs);
    let mut k = Kernel::new(topo, cfg, class);
    if let Some(token) = cancel {
        k.set_cancel_token(token.clone());
    }
    build_case(&mut k, cs, parts);
    // Fuzz workloads are a few hundred simulated ms; the default 120 s
    // means a simulated-time timeout is a genuine hang (lost wakeup /
    // livelock), not slowness.
    let limit = Time::ZERO + Dur::secs_f64(timeout_s);
    let err = match k.try_run_until_apps_done(limit) {
        Ok(true) => return Ok(k.counters().clone()),
        Ok(false) => SimError::Invariant {
            at: k.now(),
            detail: "app not finished at the time limit (lost wakeup or livelock?)".into(),
        },
        Err(SimError::Cancelled { .. }) => return Err(CaseFail::Cancelled),
        Err(e) => e,
    };
    Err(CaseFail::Error {
        error: err.to_string(),
        report: k.crash_report(&err),
    })
}

/// Greedily drop workload parts while the failure still reproduces;
/// returns the minimal mask. Shrink runs are never wall-clock cancelled
/// (a cancelled replay says nothing about the workload).
fn shrink(cs: u64, sched: Sched, mut parts: u8, faults: bool, timeout_s: f64) -> u8 {
    loop {
        let mut shrunk = false;
        for bit in [PART_HOGS, PART_INTERACTIVE, PART_PIPELINE, PART_SYNC] {
            if parts & bit == 0 || parts == bit {
                continue;
            }
            if matches!(
                run_case(cs, sched, parts & !bit, faults, timeout_s, None),
                Err(CaseFail::Error { .. })
            ) {
                parts &= !bit;
                shrunk = true;
            }
        }
        if !shrunk {
            return parts;
        }
    }
}

fn sched_flag(scheds: &[Sched]) -> &'static str {
    match scheds {
        [one] => one.flag_name(),
        s if s == Sched::ALL => "all",
        _ => "both",
    }
}

/// Run the whole campaign on `threads` workers. Deterministic for a given
/// config, whatever the worker-pool size.
pub fn run(cfg: &FuzzCfg, threads: usize) -> FuzzReport {
    let seeds: Vec<u64> = match cfg.case_seed {
        Some(cs) => vec![cs],
        None => (0..cfg.cases).map(|i| case_seed(cfg.seed, i)).collect(),
    };
    let scheds = cfg.scheds.clone();
    let faults = cfg.faults;
    let parts = cfg.parts;
    let timeout_s = cfg.case_timeout_s;
    let outcomes = runner::par_map(threads, seeds, move |cs| {
        // One wall-clock deadline per case: slow hosts abort the case
        // cooperatively instead of wedging the campaign.
        let token = CancelToken::with_deadline(std::time::Duration::from_secs_f64(timeout_s));
        let mut events = 0u64;
        let mut spurious = 0u64;
        let mut hotplug = 0u64;
        let mut cancelled = 0u32;
        let mut failures = Vec::new();
        for &sched in &scheds {
            match run_case(cs, sched, parts, faults, timeout_s, Some(&token)) {
                Ok(c) => {
                    events += c.events;
                    spurious += c.spurious_wakes;
                    hotplug += c.hotplug_events;
                }
                Err(CaseFail::Cancelled) => {
                    eprintln!(
                        "fuzz case {cs:#x} [{}] cancelled after {timeout_s}s wall clock",
                        sched.name()
                    );
                    cancelled += 1;
                }
                Err(CaseFail::Error { error, report }) => {
                    let minimal = shrink(cs, sched, parts, faults, timeout_s);
                    let repro = format!(
                        "battle fuzz --case-seed {cs:#x} --parts {minimal} --sched {} --faults {}",
                        sched_flag(&[sched]),
                        if faults { "on" } else { "off" },
                    );
                    let crash = Crash {
                        label: format!("fuzz-{cs:016x}-{}", sched.name()),
                        error: error.clone(),
                        report,
                        replay: repro.clone(),
                    };
                    let bundle = crash.write_bundle().ok().map(|p| p.display().to_string());
                    failures.push(Failure {
                        case_seed: cs,
                        sched,
                        parts: minimal,
                        error,
                        bundle,
                        repro,
                    });
                }
            }
        }
        (events, spurious, hotplug, cancelled, failures)
    });

    let mut report = FuzzReport {
        cases: seeds_len(cfg),
        seed: cfg.seed,
        faults: cfg.faults,
        failures: Vec::new(),
        cancelled: 0,
        events: 0,
        spurious_wakes: 0,
        hotplug_events: 0,
    };
    for (e, s, h, c, f) in outcomes {
        report.events += e;
        report.spurious_wakes += s;
        report.hotplug_events += h;
        report.cancelled += c;
        report.failures.extend(f);
    }
    report
}

fn seeds_len(cfg: &FuzzCfg) -> u32 {
    if cfg.case_seed.is_some() {
        1
    } else {
        cfg.cases
    }
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
    fn single_part_case_runs() {
        let cfg = FuzzCfg {
            cases: 1,
            seed: 3,
            parts: PART_PIPELINE,
            faults: false,
            ..Default::default()
        };
        let r = run(&cfg, 1);
        assert!(r.failures.is_empty(), "{}", report(&r));
    }
}
