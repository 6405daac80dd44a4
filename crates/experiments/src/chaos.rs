//! `battle chaos` — the SchedGuard supervision campaign.
//!
//! Sweeps the scenario corpus under fault plans and tight budgets and
//! proves the supervision layer's contract end-to-end, in one process:
//!
//! * every job is classified (completed / budget-killed / livelocked /
//!   cancelled / panicked / crashed-with-bundle) — no job loss, whatever
//!   goes wrong inside a case;
//! * a *generously* supervised run produces a decision digest
//!   byte-identical to the unsupervised control run (guards observe, they
//!   never steer);
//! * a run killed by a tight budget still salvages a partial result;
//! * injected panics are isolated to their job, injected livelocks and
//!   runaway behaviors are detected and bundled.
//!
//! Every plan in the sweep is deterministic for a given seed — including
//! the cancellation probe, which uses a *pre-cancelled* token so the
//! abort lands on the same cancellation-poll boundary every time — so the
//! outcome table itself is reproducible and CI can pin it.

use std::collections::BTreeMap;
use std::path::PathBuf;

use kernel::{
    from_fn, Action, AppSpec, CancelToken, FaultPlan, Kernel, RunBudget, SimError, ThreadSpec,
};
use scenario::{AbortKind, EngineError, EngineOpts, Scenario, Sched};
use simcore::{Dur, SimRng, Time};
use topology::Topology;

use crate::{crash::Crash, runner, scenarios, RunCfg};

/// Outcome class of one chaos case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum Outcome {
    /// Ran to the end; full result.
    Completed,
    /// A [`RunBudget`] limit tripped; partial result salvaged.
    BudgetKilled,
    /// The no-progress watchdog tripped; partial result salvaged.
    Livelocked,
    /// A cancel token tripped; partial result salvaged.
    Cancelled,
    /// The job panicked; siblings unaffected, bundle written.
    Panicked,
    /// A non-supervision kernel error; crash bundle written.
    Crashed,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Completed => "Completed",
            Outcome::BudgetKilled => "BudgetKilled",
            Outcome::Livelocked => "Livelocked",
            Outcome::Cancelled => "Cancelled",
            Outcome::Panicked => "Panicked",
            Outcome::Crashed => "Crashed",
        }
    }
}

/// One classified chaos case.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Case {
    /// `<scenario>-<sched>-<plan>` or `probe-<kind>`.
    pub name: String,
    /// Which plan produced it (`control`, `guarded`, `killed`,
    /// `plan<N>`, `probe`).
    pub plan: String,
    /// Classification.
    pub outcome: Outcome,
    /// Abort/violation message, or `"completed"`.
    pub detail: String,
    /// Kernel events processed (full or salvaged-partial count).
    pub events: Option<u64>,
    /// Decision digest (full or digest-so-far for partial runs).
    pub digest: Option<u64>,
    /// Crash bundle path, for panicked/crashed cases.
    pub bundle: Option<String>,
}

/// Outcome-class histogram (fixed fields so the JSON is jq-friendly).
#[derive(Debug, Default, Clone, serde::Serialize)]
pub struct OutcomeCounts {
    /// Full results.
    pub completed: usize,
    /// Budget-tripped partials.
    pub budget_killed: usize,
    /// Watchdog-tripped partials.
    pub livelocked: usize,
    /// Cancel-token partials.
    pub cancelled: usize,
    /// Panicked jobs (isolated).
    pub panicked: usize,
    /// Kernel errors with crash bundles.
    pub crashed: usize,
}

impl OutcomeCounts {
    fn bump(&mut self, o: Outcome) {
        match o {
            Outcome::Completed => self.completed += 1,
            Outcome::BudgetKilled => self.budget_killed += 1,
            Outcome::Livelocked => self.livelocked += 1,
            Outcome::Cancelled => self.cancelled += 1,
            Outcome::Panicked => self.panicked += 1,
            Outcome::Crashed => self.crashed += 1,
        }
    }

    /// Count for one class.
    pub fn of(&self, o: Outcome) -> usize {
        match o {
            Outcome::Completed => self.completed,
            Outcome::BudgetKilled => self.budget_killed,
            Outcome::Livelocked => self.livelocked,
            Outcome::Cancelled => self.cancelled,
            Outcome::Panicked => self.panicked,
            Outcome::Crashed => self.crashed,
        }
    }
}

/// The campaign result.
#[derive(Debug, serde::Serialize)]
pub struct ChaosReport {
    /// Every classified case.
    pub cases: Vec<Case>,
    /// Outcome-class histogram.
    pub counts: OutcomeCounts,
    /// Guarded/plan runs that completed with a digest different from the
    /// unsupervised control run. Must be zero: supervision observes, it
    /// never steers.
    pub digest_mismatches: u32,
    /// Jobs that produced no classification at all. Must be zero: the
    /// whole point of the supervision layer is that nothing is lost.
    pub process_failures: u32,
    /// Cases whose classification contradicts the plan's expectation
    /// (e.g. a `killed` plan that completed). Must be empty.
    pub anomalies: Vec<String>,
}

/// Run one scenario plan and classify it.
fn run_plan(sc: &Scenario, sched: Sched, opts: &EngineOpts, name: &str, plan: &str) -> Case {
    let mut case = Case {
        name: name.to_string(),
        plan: plan.to_string(),
        outcome: Outcome::Completed,
        detail: "completed".into(),
        events: None,
        digest: None,
        bundle: None,
    };
    match scenario::run_sched(sc, sched, opts) {
        Ok(out) => {
            case.events = Some(out.run.counters.events);
            case.digest = Some(out.run.digest);
            if out.run.partial {
                case.outcome = match out.run.abort_kind {
                    Some(AbortKind::Budget) => Outcome::BudgetKilled,
                    Some(AbortKind::Livelock) => Outcome::Livelocked,
                    Some(AbortKind::Cancelled) | None => Outcome::Cancelled,
                };
                case.detail = out.run.abort.unwrap_or_else(|| "aborted".into());
            }
        }
        Err(EngineError::Spec(e)) => {
            case.outcome = Outcome::Crashed;
            case.detail = format!("spec error: {e}");
        }
        Err(EngineError::Crash(c)) => {
            case.outcome = Outcome::Crashed;
            case.detail = c.error.clone();
            let bundle = Crash {
                label: format!("chaos-{name}"),
                kind: c.kind,
                error: c.error,
                report: c.report,
                replay: format!("battle chaos (plan {plan})"),
            };
            case.bundle = bundle.write_bundle().ok().map(|p| p.display().to_string());
        }
    }
    case
}

fn budget_events(max_events: u64) -> RunBudget {
    RunBudget {
        max_events: Some(max_events),
        ..RunBudget::default()
    }
}

/// A bare two-CPU CFS kernel for a probe, under `cfg`'s seed and check
/// mode.
fn probe_kernel(cfg: &RunCfg) -> Kernel {
    let topo = Topology::flat(2);
    scenario::make_kernel(&topo, Sched::Cfs, cfg.seed, cfg.check, FaultPlan::default())
}

/// The deterministic failure probes: one case per abnormal class, built on
/// bare kernels so the class is guaranteed whatever the scenario corpus
/// looks like.
fn probes(cfg: RunCfg) -> Vec<Box<dyn FnOnce() -> Case + Send>> {
    let mk = |name: &str| Case {
        name: format!("probe-{name}"),
        plan: "probe".into(),
        outcome: Outcome::Completed,
        detail: "completed".into(),
        events: None,
        digest: None,
        bundle: None,
    };
    vec![
        // Panic isolation: the job dies, the campaign does not. The
        // supervised pool classifies this slot as Panicked.
        Box::new(|| -> Case { panic!("injected chaos panic") }),
        // Livelock: a zero-length sleep loop stalls simulated time
        // forever; the stall watchdog must catch it.
        Box::new(move || {
            let mut k = probe_kernel(&cfg);
            k.set_watchdog(2_000, 0);
            k.queue_app(
                Time::ZERO,
                AppSpec::new(
                    "livelock",
                    vec![ThreadSpec::new(
                        "zero-sleeper",
                        from_fn(|_| Action::Sleep(Dur::ZERO)),
                    )],
                ),
            );
            let mut case = mk("livelock");
            match k.try_run_until(Time::ZERO + Dur::secs(1)) {
                Err(e @ SimError::Livelock { .. }) => {
                    case.outcome = Outcome::Livelocked;
                    case.detail = e.to_string();
                }
                other => case.detail = format!("expected livelock, got {other:?}"),
            }
            case.events = Some(k.counters().events);
            case.digest = Some(k.decision_digest());
            case
        }),
        // Runaway behavior: an infinite zero-length Run loop never yields
        // the CPU; this is *not* a supervision abort but a kernel error,
        // so it must produce a crash bundle (the Crashed class).
        Box::new(move || {
            let mut k = probe_kernel(&cfg);
            // Watchdog off: the instant-action guard must be what fires.
            k.set_watchdog(0, 0);
            k.queue_app(
                Time::ZERO,
                AppSpec::new(
                    "runaway",
                    vec![ThreadSpec::new(
                        "spin0",
                        from_fn(|_| Action::Run(Dur::ZERO)),
                    )],
                ),
            );
            let mut case = mk("runaway");
            match k.try_run_until(Time::ZERO + Dur::secs(1)) {
                Err(e) if !e.is_supervision() => {
                    case.outcome = Outcome::Crashed;
                    case.detail = e.to_string();
                    let bundle = Crash::capture(&k, &e, "chaos-probe-runaway", "battle chaos");
                    case.bundle = bundle.write_bundle().ok().map(|p| p.display().to_string());
                }
                other => case.detail = format!("expected kernel error, got {other:?}"),
            }
            case
        }),
        // Cancellation: a pre-cancelled token trips at the first
        // cancellation poll (a fixed event count), so even this class is
        // deterministic.
        Box::new(move || {
            let mut k = probe_kernel(&cfg);
            let token = CancelToken::new();
            token.cancel();
            k.set_cancel_token(token);
            k.queue_app(
                Time::ZERO,
                AppSpec::new(
                    "busy",
                    vec![
                        ThreadSpec::new("hog0", kernel::cpu_hog(Dur::secs(60), Dur::millis(1))),
                        ThreadSpec::new("hog1", kernel::cpu_hog(Dur::secs(60), Dur::millis(1))),
                    ],
                ),
            );
            let mut case = mk("cancel");
            match k.try_run_until(Time::ZERO + Dur::secs(30)) {
                Err(e @ SimError::Cancelled { .. }) => {
                    case.outcome = Outcome::Cancelled;
                    case.detail = e.to_string();
                }
                other => case.detail = format!("expected cancellation, got {other:?}"),
            }
            case.events = Some(k.counters().events);
            case.digest = Some(k.decision_digest());
            case
        }),
    ]
}

/// Run the campaign over an in-memory corpus (the CLI loads the corpus
/// from scenario paths; tests inject theirs directly). `cfg.seed` also
/// drives the randomized budget plans, `plans` of them per (scenario,
/// sched) pair.
pub fn run(corpus: &[(PathBuf, Scenario)], cfg: &RunCfg, plans: u32) -> ChaosReport {
    let pairs: Vec<(usize, Sched)> = corpus
        .iter()
        .enumerate()
        .flat_map(|(i, (_, sc))| sc.scheds.iter().map(move |&s| (i, s)))
        .collect();

    // Stage 1: unsupervised control runs, in parallel. Their digests and
    // event counts calibrate every supervised plan below.
    let cfg = *cfg;
    let mk_opts = move |budget: RunBudget| EngineOpts {
        budget,
        ..cfg.engine_opts()
    };
    let controls: Vec<Case> = runner::par_map(cfg.threads, pairs.clone(), |(i, sched)| {
        let (_, sc) = &corpus[i];
        run_plan(
            sc,
            sched,
            &mk_opts(RunBudget::default()),
            &format!("{}-{}-control", sc.name, sched.name()),
            "control",
        )
    });

    // Stage 2: the supervised sweep — per pair, a generously guarded run
    // (digest must match control), a budget-killed run, and `plans`
    // randomized tight-budget runs — plus the failure probes. All through
    // the panic-isolating pool.
    let mut jobs: Vec<Box<dyn FnOnce() -> Case + Send>> = Vec::new();
    for (pair_idx, &(i, sched)) in pairs.iter().enumerate() {
        let (_, sc) = &corpus[i];
        let control_events = controls[pair_idx].events.unwrap_or(0);
        let name = format!("{}-{}", sc.name, sched.name());
        {
            let (name, sc) = (name.clone(), sc.clone());
            // Generous: far above the control event count, so the run
            // completes *with the guards armed*.
            let budget = budget_events(control_events.max(1).saturating_mul(16));
            jobs.push(Box::new(move || {
                run_plan(
                    &sc,
                    sched,
                    &mk_opts(budget),
                    &format!("{name}-guarded"),
                    "guarded",
                )
            }));
        }
        if control_events >= 8 {
            let (name, sc) = (name.clone(), sc.clone());
            // Tight: a quarter of the control events guarantees the
            // budget trips mid-run and a partial result is salvaged.
            let budget = budget_events((control_events / 4).max(1));
            jobs.push(Box::new(move || {
                run_plan(
                    &sc,
                    sched,
                    &mk_opts(budget),
                    &format!("{name}-killed"),
                    "killed",
                )
            }));
        }
        let mut rng = SimRng::new(cfg.seed ^ (pair_idx as u64).wrapping_mul(0x9E37_79B9));
        for p in 0..plans {
            let (name, sc) = (name.clone(), sc.clone());
            // Randomized plan: anywhere from "kills early" to "never
            // trips". Either outcome is legal; a *completed* plan run
            // must still match the control digest.
            let lo = (control_events / 8).max(1);
            let hi = control_events.saturating_mul(2).max(lo + 1);
            let budget = budget_events(rng.gen_range(lo, hi));
            jobs.push(Box::new(move || {
                run_plan(
                    &sc,
                    sched,
                    &mk_opts(budget),
                    &format!("{name}-plan{p}"),
                    &format!("plan{p}"),
                )
            }));
        }
    }
    jobs.extend(probes(cfg));
    let outcomes = runner::par_map_supervised(cfg.threads, jobs, |job| job());

    // Stage 3: classify, count, and cross-check against the controls.
    let mut cases = controls;
    // Every queued job comes back as exactly one slot from the supervised
    // pool (Done or Panicked), so nothing can be lost; the report still
    // carries the count so CI pins the claim.
    let process_failures = 0u32;
    for outcome in outcomes {
        match outcome {
            runner::JobOutcome::Done(case) => cases.push(case),
            runner::JobOutcome::Panicked(msg) => {
                let bundle = Crash::from_panic("chaos-panic", &msg, "battle chaos");
                cases.push(Case {
                    name: "probe-panic".into(),
                    plan: "probe".into(),
                    outcome: Outcome::Panicked,
                    detail: msg,
                    events: None,
                    digest: None,
                    bundle: bundle.write_bundle().ok().map(|p| p.display().to_string()),
                });
            }
        }
    }
    let control_digest: BTreeMap<&str, u64> = cases
        .iter()
        .filter(|c| c.plan == "control")
        .filter_map(|c| c.digest.map(|d| (c.name.trim_end_matches("-control"), d)))
        .collect();
    let mut digest_mismatches = 0u32;
    let mut anomalies = Vec::new();
    for c in &cases {
        // Supervised runs that completed must not have perturbed the
        // schedule: their digest is the control digest, bit for bit.
        let supervised = c.plan == "guarded" || c.plan.starts_with("plan");
        if supervised && c.outcome == Outcome::Completed {
            let stem: &str = c
                .name
                .rsplit_once('-')
                .map(|(s, _)| s)
                .unwrap_or(c.name.as_str());
            if let (Some(d), Some(&ctrl)) = (c.digest, control_digest.get(stem)) {
                if d != ctrl {
                    digest_mismatches += 1;
                    anomalies.push(format!(
                        "{}: supervised digest {d:016x} != control {ctrl:016x}",
                        c.name
                    ));
                }
            }
        }
        let expect_ok = match c.plan.as_str() {
            "control" | "guarded" => c.outcome == Outcome::Completed,
            "killed" => c.outcome == Outcome::BudgetKilled,
            p if p.starts_with("plan") => {
                matches!(c.outcome, Outcome::Completed | Outcome::BudgetKilled)
            }
            // probes: any abnormal class is what was injected; a probe
            // that *completed* failed to reproduce its failure mode.
            _ => c.outcome != Outcome::Completed,
        };
        if !expect_ok {
            anomalies.push(format!(
                "{} ({}): unexpected outcome {} — {}",
                c.name,
                c.plan,
                c.outcome.name(),
                c.detail
            ));
        }
    }
    let mut counts = OutcomeCounts::default();
    for c in &cases {
        counts.bump(c.outcome);
    }
    ChaosReport {
        cases,
        counts,
        digest_mismatches,
        process_failures,
        anomalies,
    }
}

/// Render the outcome table.
pub fn report(r: &ChaosReport) -> String {
    let mut t = metrics::Table::new(&["case", "plan", "outcome", "events", "detail"]);
    for c in &r.cases {
        t.push(&[
            c.name.clone(),
            c.plan.clone(),
            c.outcome.name().to_string(),
            c.events
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".into()),
            truncate(&c.detail, 60),
        ]);
    }
    let mut s = String::from("SchedGuard chaos campaign\n");
    s.push_str(&t.render());
    s.push_str(&format!(
        "\noutcome classes: completed={} budget-killed={} livelocked={} cancelled={} \
         panicked={} crashed={}",
        r.counts.completed,
        r.counts.budget_killed,
        r.counts.livelocked,
        r.counts.cancelled,
        r.counts.panicked,
        r.counts.crashed
    ));
    s.push_str(&format!(
        "\ndigest mismatches: {}  process failures: {}\n",
        r.digest_mismatches, r.process_failures
    ));
    if r.anomalies.is_empty() {
        s.push_str("no anomalies — every job classified, all supervised digests match control\n");
    } else {
        for a in &r.anomalies {
            s.push_str(&format!("ANOMALY: {a}\n"));
        }
    }
    s
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n).collect();
        format!("{cut}…")
    }
}

/// Did the campaign prove the supervision contract?
pub fn passed(r: &ChaosReport) -> bool {
    r.anomalies.is_empty() && r.digest_mismatches == 0 && r.process_failures == 0
}

/// CLI entry for `battle chaos`: load the corpus, run the campaign,
/// print the table, optionally dump JSON. Returns `false` on anomalies.
pub fn cli(paths: &[String], cfg: &RunCfg, plans: u32, json: &Option<String>) -> bool {
    let corpus = match scenarios::load(paths) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    println!(
        "chaos: {} scenario(s) at scale {} seed {} ({} random plan(s) per pair)\n",
        corpus.len(),
        cfg.scale,
        cfg.seed,
        plans
    );
    let r = run(&corpus, cfg, plans);
    print!("{}", report(&r));
    let mut ok = passed(&r);
    if let Some(p) = json {
        match serde_json::to_string_pretty(&r) {
            Ok(s) => {
                if let Some(dir) = std::path::Path::new(p).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                if let Err(e) = std::fs::write(p, s) {
                    eprintln!("cannot write {p}: {e}");
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("cannot serialize chaos report: {e}");
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Vec<(PathBuf, Scenario)> {
        let src = r#"
name = "tiny"
[topology]
preset = "flat-4"
[[phase]]
kind = "cpu-hogs"
count = { base = 6, min = 6 }
work = { base_s = 0.2, scaled = false }
[run]
horizon = { base_s = 5.0, scaled = false }
"#;
        vec![(
            PathBuf::from("inline-tiny.toml"),
            Scenario::from_toml(src).expect("tiny scenario parses"),
        )]
    }

    #[test]
    fn campaign_classifies_every_outcome_class() {
        let r = run(&tiny_corpus(), &RunCfg::at_scale(0.02), 1);
        assert!(passed(&r), "{}", report(&r));
        for class in [
            Outcome::Completed,
            Outcome::BudgetKilled,
            Outcome::Livelocked,
            Outcome::Cancelled,
            Outcome::Panicked,
            Outcome::Crashed,
        ] {
            assert!(
                r.counts.of(class) >= 1,
                "missing outcome class {}:\n{}",
                class.name(),
                report(&r)
            );
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let corpus = tiny_corpus();
        let a = run(&corpus, &RunCfg::at_scale(0.02), 1);
        let b = run(&corpus, &RunCfg::at_scale(0.02), 1);
        let sig = |r: &ChaosReport| -> Vec<(String, String, Option<u64>, Option<u64>)> {
            r.cases
                .iter()
                .map(|c| {
                    (
                        c.name.clone(),
                        c.outcome.name().to_string(),
                        c.events,
                        c.digest,
                    )
                })
                .collect()
        };
        assert_eq!(sig(&a), sig(&b));
    }
}
