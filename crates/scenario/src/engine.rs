//! Execute a parsed [`Scenario`] on one scheduler.
//!
//! The engine owns the loop from workload to result: build the kernel,
//! queue every phase in file order (build order assigns task and
//! sync-object ids, which feed the decision digest), then drive
//! `try_run_until` in sampling steps, recording the per-core load matrix
//! and honouring the declarative stop rules. Drivers that need more than
//! the report — a figure's time series, a streamed trace — watch the run
//! through an [`Observer`] instead of rebuilding the loop. An invariant
//! violation (SchedSan strict mode) comes back as an [`EngineCrash`]
//! carrying the kernel's crash report instead of aborting the process.

use kernel::{AppId, CancelToken, CheckMode, Kernel, RunBudget, SimError};
use metrics::{Histogram, LatencySummary, PerCoreSeries};
use serde::Serialize;
use simcore::Time;
use topology::CpuId;

use crate::spec::{RelationBound, Scenario, SchedSel};
use crate::{build_class, kernel_with, Sched};

/// Engine knobs shared by every run of a scenario batch.
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Work-volume scale (1.0 = paper-sized).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// SchedSan mode for the run.
    pub check: CheckMode,
    /// SchedGuard budget imposed by the driver, combined (tighter limit
    /// wins) with the scenario's own `[budget]` table.
    pub budget: RunBudget,
    /// Cooperative cancellation (wall-clock timeouts). A cancelled run
    /// salvages a partial result like a budget-killed one, but its abort
    /// point is not deterministic.
    pub cancel: Option<CancelToken>,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            scale: 1.0,
            seed: 42,
            check: CheckMode::Off,
            budget: RunBudget::default(),
            cancel: None,
        }
    }
}

/// A run died on a simulator error (invariant violation in strict mode).
#[derive(Debug, Clone)]
pub struct EngineCrash {
    /// Scheduler that was driving.
    pub sched: Sched,
    /// The simulator error.
    pub error: String,
    /// Full SchedSan crash report (state dump + trace tail).
    pub report: String,
}

/// Why a scenario run did not produce a result.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// The spec referenced something that only resolves at build time
    /// (e.g. an unknown suite entry).
    Spec(crate::spec::SpecError),
    /// The simulation crashed.
    Crash(EngineCrash),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "{e}"),
            EngineError::Crash(c) => {
                write!(f, "[{}] simulation crashed: {}", c.sched.name(), c.error)
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Which SchedGuard mechanism aborted a partial run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AbortKind {
    /// A [`RunBudget`] ceiling tripped (deterministic abort point).
    Budget,
    /// The no-progress watchdog tripped (deterministic abort point).
    Livelock,
    /// A [`CancelToken`] fired (wall-clock; nondeterministic abort point).
    Cancelled,
}

/// Per-app outcome in a [`ScenarioRun`].
#[derive(Debug, Clone, Serialize)]
pub struct AppResult {
    /// App name (the phase name for scenario-defined workloads).
    pub name: String,
    /// Phase that queued the app.
    pub phase: String,
    /// Did the app finish?
    pub done: bool,
    /// Start→finish wall time, seconds (`None` while unfinished).
    pub elapsed_s: Option<f64>,
    /// Application-level operations completed.
    pub ops: u64,
    /// Operations per second over the app's lifetime.
    pub ops_per_sec: f64,
    /// Mean application-recorded latency, milliseconds.
    pub avg_latency_ms: Option<f64>,
    /// Dispatch delay (runnable→running) of this app's tasks alone.
    pub run_delay: LatencySummary,
}

/// Aggregated dispatch-delay summary for one tenant label: every app
/// whose phase carries the label, merged. This is what `[[assert.tenant]]`
/// and `[[assert.tenant_relation]]` judge — the scenario language's view
/// of multi-tenant interference.
#[derive(Debug, Clone, Serialize)]
pub struct TenantResult {
    /// The tenant label.
    pub tenant: String,
    /// Merged runnable→running dispatch delay across the tenant's apps.
    pub run_delay: LatencySummary,
}

/// Everything observable about one finished scenario run.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRun {
    /// Scenario name.
    pub scenario: String,
    /// Scheduler that drove the run.
    pub sched: Sched,
    /// Scale the expressions were evaluated at.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Decision digest (the regression fingerprint).
    pub digest: u64,
    /// The digest as 16 hex digits (what golden files pin).
    pub digest_hex: String,
    /// Simulated end time, seconds.
    pub end_s: f64,
    /// Did every non-daemon app finish?
    pub all_apps_done: bool,
    /// Kernel activity counters.
    pub counters: kernel::Counters,
    /// Runnable→running dispatch delay.
    pub run_delay: LatencySummary,
    /// Wakeup→dispatch latency.
    pub wakeup_latency: LatencySummary,
    /// Per-app outcomes, in phase order.
    pub apps: Vec<AppResult>,
    /// Per-tenant dispatch-delay summaries, in first-appearance order
    /// (empty when no phase declares a `tenant`).
    pub tenants: Vec<TenantResult>,
    /// Final max−min runnable spread across cores.
    pub final_spread: u32,
    /// When the spread first dropped within 1, seconds.
    pub convergence_s: Option<f64>,
    /// `true` if SchedGuard aborted the run early: every field above is a
    /// salvaged snapshot at the abort point, and `digest` is the
    /// digest-so-far, not a completed-run fingerprint.
    pub partial: bool,
    /// Which supervision mechanism aborted the run (`None` if complete).
    pub abort_kind: Option<AbortKind>,
    /// The rendered abort error (`None` if complete).
    pub abort: Option<String>,
}

/// A finished run plus the kernel it ran on (for trace export and crash
/// inspection; drop it if you only need the report).
pub struct RunOutput {
    /// The serializable report.
    pub run: ScenarioRun,
    /// The kernel, in its end-of-run state.
    pub kernel: Kernel,
    /// Runnable threads per core, one row per sampling step.
    pub matrix: PerCoreSeries,
    /// Each phase name with its app, in phase order (what the
    /// [`Observer`] saw).
    pub apps: Vec<(String, AppId)>,
}

/// Watches a run from the driver's side of the step loop. Every call
/// defaults to doing nothing; any `FnMut(&Kernel, &[(String, AppId)])`
/// closure is an observer whose body is the per-step call.
pub trait Observer {
    /// Called once on the freshly built kernel, before any phase is queued
    /// (install a trace sink here).
    fn setup(&mut self, _k: &mut Kernel) {}

    /// Called after every sampling step, once the step's load-matrix row is
    /// pushed and before the stop rule is checked. `apps` maps each phase
    /// name to its app, in phase order.
    fn step(&mut self, _k: &Kernel, _apps: &[(String, AppId)]) {}

    /// An instant off the step grid to stop at, asked before every step:
    /// when it lies after the current time and before the next grid point,
    /// the step ends there instead (a step like any other), and the grid
    /// goes on from that instant.
    fn stop_at(&self) -> Option<Time> {
        None
    }
}

/// The observer [`run_sched`] passes: it watches nothing.
impl Observer for () {}

impl<F: FnMut(&Kernel, &[(String, AppId)])> Observer for F {
    fn step(&mut self, k: &Kernel, apps: &[(String, AppId)]) {
        self(k, apps)
    }
}

/// Run `sc` under `sched`.
pub fn run_sched(sc: &Scenario, sched: Sched, opts: &EngineOpts) -> Result<RunOutput, EngineError> {
    run_observed(sc, sched, opts, &mut ())
}

/// [`run_sched`] with `obs` watching the run (see [`Observer`]).
pub fn run_observed(
    sc: &Scenario,
    sched: Sched,
    opts: &EngineOpts,
    obs: &mut impl Observer,
) -> Result<RunOutput, EngineError> {
    let topo = sc.topology.build();
    let ncpu = topo.nr_cpus();
    let class = build_class(&topo, sched, opts.seed, sc.class_params(sched));
    let mut k = kernel_with(&topo, class, opts.seed, opts.check, sc.faults.to_plan());

    // SchedGuard: the scenario's own [budget] combined with the driver's,
    // tighter limit winning; watchdog overrides; cancellation token.
    let budget = sc.budget.to_run_budget().tighten(&opts.budget);
    if budget.active() {
        k.set_budget(budget);
    }
    if sc.budget.stall_events.is_some() || sc.budget.pingpong.is_some() {
        let defaults = kernel::SimConfig::default();
        k.set_watchdog(
            sc.budget
                .stall_events
                .map(|n| n as u32)
                .unwrap_or(defaults.watchdog_stall_events),
            sc.budget
                .pingpong
                .map(|n| n as u32)
                .unwrap_or(defaults.watchdog_pingpong),
        );
    }
    if let Some(token) = &opts.cancel {
        k.set_cancel_token(token.clone());
    }
    obs.setup(&mut k);

    // Queue phases in file order; build immediately before queueing so
    // sync-object ids interleave with app ids in file order.
    let mut apps = Vec::with_capacity(sc.phases.len());
    for phase in &sc.phases {
        let at = Time::ZERO + phase.at.eval(opts.scale);
        let spec = crate::workload::build(&mut k, &phase.workload, &phase.name, opts.scale, ncpu)
            .map_err(EngineError::Spec)?;
        apps.push((phase.name.clone(), k.queue_app(at, spec)));
    }
    for ev in &sc.events {
        let app = apps
            .iter()
            .find(|(name, _)| *name == ev.phase)
            .map(|&(_, id)| id)
            .expect("event phases validated at parse time");
        k.queue_unpin(Time::ZERO + ev.at.eval(opts.scale), app);
    }

    let horizon = match sched {
        Sched::Cfs => sc.run.horizon_cfs.as_ref(),
        Sched::Ule => sc.run.horizon_ule.as_ref(),
        // Schedulers beyond the paper's pair share the generic horizon.
        _ => None,
    }
    .unwrap_or(&sc.run.horizon);
    let limit = Time::ZERO + horizon.eval(opts.scale);
    let mut step = sc.run.step.eval(opts.scale);
    if step.is_zero() {
        step = simcore::Dur::millis(100);
    }
    let stop_after = sc
        .run
        .stop_spread_after
        .as_ref()
        .map(|t| Time::ZERO + t.eval(opts.scale))
        .unwrap_or(Time::ZERO);

    let mut matrix = PerCoreSeries::new();
    let crash = |k: &Kernel, e: SimError| {
        EngineError::Crash(EngineCrash {
            sched,
            error: e.to_string(),
            report: k.crash_report(&e),
        })
    };
    let mut abort: Option<(AbortKind, String)> = None;
    while k.now() < limit && !(sc.run.until_apps_done && k.all_apps_done()) {
        let mut next = k.now() + step;
        if let Some(at) = obs.stop_at().filter(|&at| at > k.now()) {
            next = next.min(at);
        }
        if let Err(e) = k.try_run_until(next) {
            // Supervision aborts leave a *consistent* kernel: salvage the
            // partial result. Anything else is a real crash.
            let kind = match &e {
                SimError::BudgetExceeded { .. } => AbortKind::Budget,
                SimError::Livelock { .. } => AbortKind::Livelock,
                SimError::Cancelled { .. } => AbortKind::Cancelled,
                _ => return Err(crash(&k, e)),
            };
            abort = Some((kind, e.to_string()));
            break;
        }
        matrix.push(
            k.now(),
            (0..ncpu)
                .map(|c| k.nr_queued(CpuId(c as u32)) as u32)
                .collect(),
        );
        obs.step(&k, &apps);
        if let Some(th) = sc.run.stop_spread_le {
            if matrix.final_spread() <= th && k.now() > stop_after {
                break;
            }
        }
    }

    let digest = k.decision_digest();
    let app_results = apps
        .iter()
        .map(|&(ref phase, id)| {
            let a = k.app(id);
            AppResult {
                name: a.name.clone(),
                phase: phase.clone(),
                done: a.finished.is_some(),
                elapsed_s: a.finished.and(a.elapsed()).map(|d| d.as_secs_f64()),
                ops: a.ops,
                ops_per_sec: a.ops_per_sec(k.now()),
                avg_latency_ms: a.avg_latency().map(|d| d.as_secs_f64() * 1e3),
                run_delay: k.app_run_delay(id).summary(),
            }
        })
        .collect();
    // Tenant aggregation: merge the per-app run-delay histograms of every
    // phase sharing a label, in first-appearance order.
    let mut tenants: Vec<(String, Histogram)> = Vec::new();
    for (phase, &(_, id)) in sc.phases.iter().zip(&apps) {
        let Some(label) = &phase.tenant else { continue };
        let hist = match tenants.iter_mut().find(|(t, _)| t == label) {
            Some((_, h)) => h,
            None => {
                tenants.push((label.clone(), Histogram::new()));
                &mut tenants.last_mut().expect("just pushed").1
            }
        };
        hist.merge(k.app_run_delay(id));
    }
    let tenants = tenants
        .into_iter()
        .map(|(tenant, h)| TenantResult {
            tenant,
            run_delay: h.summary(),
        })
        .collect();
    let run = ScenarioRun {
        scenario: sc.name.clone(),
        sched,
        scale: opts.scale,
        seed: opts.seed,
        digest,
        digest_hex: format!("{digest:016x}"),
        end_s: k.now().as_secs_f64(),
        all_apps_done: k.all_apps_done(),
        counters: k.counters().clone(),
        run_delay: k.run_delay().summary(),
        wakeup_latency: k.wakeup_latency().summary(),
        apps: app_results,
        tenants,
        final_spread: matrix.final_spread(),
        convergence_s: matrix.convergence_time(1),
        partial: abort.is_some(),
        abort_kind: abort.as_ref().map(|(k, _)| *k),
        abort: abort.map(|(_, msg)| msg),
    };
    Ok(RunOutput {
        run,
        kernel: k,
        matrix,
        apps,
    })
}

fn counter_value(c: &kernel::Counters, name: &str) -> u64 {
    match name {
        "ctx_switches" => c.ctx_switches,
        "preemptions" => c.preemptions,
        "wakeup_preemptions" => c.wakeup_preemptions,
        "tick_preemptions" => c.tick_preemptions,
        "wakeups" => c.wakeups,
        "migrations" => c.migrations,
        "placement_scans" => c.placement_scans,
        "spawns" => c.spawns,
        "events" => c.events,
        "spurious_wakes" => c.spurious_wakes,
        "hotplug_events" => c.hotplug_events,
        _ => unreachable!("counter names validated at parse time"),
    }
}

fn metric_value(run: &ScenarioRun, name: &str) -> f64 {
    match name {
        "run_delay_mean_ms" => run.run_delay.mean_ms,
        "run_delay_p50_ms" => run.run_delay.p50_ms,
        "run_delay_p99_ms" => run.run_delay.p99_ms,
        "run_delay_max_ms" => run.run_delay.max_ms,
        "wakeup_mean_ms" => run.wakeup_latency.mean_ms,
        "wakeup_p50_ms" => run.wakeup_latency.p50_ms,
        "wakeup_p99_ms" => run.wakeup_latency.p99_ms,
        "wakeup_max_ms" => run.wakeup_latency.max_ms,
        "max_runnable_wait_ms" => run.counters.max_runnable_wait.as_secs_f64() * 1e3,
        _ => unreachable!("metric names validated at parse time"),
    }
}

fn tenant_metric_value(run: &ScenarioRun, tenant: &str, name: &str) -> Option<f64> {
    let t = run.tenants.iter().find(|t| t.tenant == tenant)?;
    Some(match name {
        "run_delay_mean_ms" => t.run_delay.mean_ms,
        "run_delay_p50_ms" => t.run_delay.p50_ms,
        "run_delay_p99_ms" => t.run_delay.p99_ms,
        "run_delay_max_ms" => t.run_delay.max_ms,
        _ => unreachable!("tenant metric names validated at parse time"),
    })
}

fn cmp_holds(cmp: &str, left: f64, rhs: f64) -> bool {
    match cmp {
        "le" => left <= rhs,
        "lt" => left < rhs,
        "ge" => left >= rhs,
        "gt" => left > rhs,
        _ => unreachable!("comparisons validated at parse time"),
    }
}

fn relation_holds(rel: &RelationBound, left: f64, right: f64) -> bool {
    cmp_holds(&rel.cmp, left, rel.factor * right)
}

/// Evaluate every assertion of `sc` against its finished runs. Returns
/// one human-readable line per violated assertion; empty means pass.
/// Relations are skipped when one side's scheduler was not run.
///
/// Partial (SchedGuard-aborted) runs are excluded: their counters,
/// metrics and digest describe an interrupted run, so judging end-of-run
/// assertions against them would produce spurious failures. Drivers
/// report partial runs separately.
pub fn failures(sc: &Scenario, runs: &[ScenarioRun]) -> Vec<String> {
    let complete: Vec<&ScenarioRun> = runs.iter().filter(|r| !r.partial).collect();
    let mut out = Vec::new();
    let by_sched = |s: Sched| complete.iter().find(|r| r.sched == s).copied();
    let covered = |sel: SchedSel| {
        complete
            .iter()
            .filter(move |r| sel.covers(r.sched))
            .copied()
    };

    if let Some(expected) = sc.asserts.all_apps_done {
        for r in &complete {
            if r.all_apps_done != expected {
                out.push(format!(
                    "[{}] all_apps_done = {} at t={:.3}s, expected {}",
                    r.sched.name(),
                    r.all_apps_done,
                    r.end_s,
                    expected
                ));
            }
        }
    }
    for b in &sc.asserts.counter {
        for r in covered(b.sched) {
            let v = counter_value(&r.counters, &b.counter);
            if let Some(min) = b.min {
                if v < min {
                    out.push(format!(
                        "[{}] counter {} = {} < min {}",
                        r.sched.name(),
                        b.counter,
                        v,
                        min
                    ));
                }
            }
            if let Some(max) = b.max {
                if v > max {
                    out.push(format!(
                        "[{}] counter {} = {} > max {}",
                        r.sched.name(),
                        b.counter,
                        v,
                        max
                    ));
                }
            }
        }
    }
    for b in &sc.asserts.latency {
        for r in covered(b.sched) {
            let v = metric_value(r, &b.metric);
            if let Some(min) = b.min_ms {
                if v < min {
                    out.push(format!(
                        "[{}] {} = {:.3}ms < min {:.3}ms",
                        r.sched.name(),
                        b.metric,
                        v,
                        min
                    ));
                }
            }
            if let Some(max) = b.max_ms {
                if v > max {
                    out.push(format!(
                        "[{}] {} = {:.3}ms > max {:.3}ms",
                        r.sched.name(),
                        b.metric,
                        v,
                        max
                    ));
                }
            }
        }
    }
    for rel in &sc.asserts.relation {
        let (Some(l), Some(r)) = (by_sched(rel.left), by_sched(rel.right)) else {
            continue;
        };
        let lv = metric_value(l, &rel.metric);
        let rv = metric_value(r, &rel.metric);
        if !relation_holds(rel, lv, rv) {
            out.push(format!(
                "relation {}: {}({}) = {:.3} not {} {:.3} = {} × {}({})",
                rel.metric,
                rel.left.name(),
                rel.metric,
                lv,
                rel.cmp,
                rel.factor * rv,
                rel.factor,
                rel.right.name(),
                rel.metric
            ));
        }
    }
    for b in &sc.asserts.tenant {
        for r in covered(b.sched) {
            let Some(v) = tenant_metric_value(r, &b.tenant, &b.metric) else {
                continue;
            };
            if let Some(min) = b.min_ms {
                if v < min {
                    out.push(format!(
                        "[{}] tenant {} {} = {:.3}ms < min {:.3}ms",
                        r.sched.name(),
                        b.tenant,
                        b.metric,
                        v,
                        min
                    ));
                }
            }
            if let Some(max) = b.max_ms {
                if v > max {
                    out.push(format!(
                        "[{}] tenant {} {} = {:.3}ms > max {:.3}ms",
                        r.sched.name(),
                        b.tenant,
                        b.metric,
                        v,
                        max
                    ));
                }
            }
        }
    }
    for rel in &sc.asserts.tenant_relation {
        for r in covered(rel.sched) {
            let (Some(lv), Some(rv)) = (
                tenant_metric_value(r, &rel.left, &rel.metric),
                tenant_metric_value(r, &rel.right, &rel.metric),
            ) else {
                continue;
            };
            if !cmp_holds(&rel.cmp, lv, rel.factor * rv) {
                out.push(format!(
                    "[{}] tenant relation {}: {}({}) = {:.3} not {} {:.3} = {} × {}({})",
                    r.sched.name(),
                    rel.metric,
                    rel.left,
                    rel.metric,
                    lv,
                    rel.cmp,
                    rel.factor * rv,
                    rel.factor,
                    rel.right,
                    rel.metric
                ));
            }
        }
    }
    for pin in &sc.asserts.digest {
        if let Some(r) = by_sched(pin.sched) {
            if r.digest != pin.value {
                out.push(format!(
                    "[{}] digest {:016x} != pinned {:016x}",
                    r.sched.name(),
                    r.digest,
                    pin.value
                ));
            }
        }
    }
    out
}
