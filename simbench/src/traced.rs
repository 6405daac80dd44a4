//! The traced pass: the run `scenario::run_sched` makes, rebuilt from the
//! public calls it is made of (topology build, `make_class`, `Kernel::new`,
//! `workload::build`, `queue_app`, the `try_run_until` step loop), with the
//! class wrapped in [`Timed`], a delegating [`Scheduler`] that counts and
//! times every hook call. Kernel self time is the step loop's time minus the
//! time spent in class hooks and in the wrapper itself.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use kernel::{Kernel, SimConfig};
use metrics::PerCoreSeries;
use scenario::{EngineOpts, Scenario, Sched, SpecError};
use sched_api::{
    DequeueKind, EnqueueKind, Preempt, Scheduler, SelectError, SelectStats, TaskSnapshot,
    TaskTable, Tid, WakeKind,
};
use simcore::{Dur, Time};
use topology::CpuId;

/// Where a timed hook call is booked.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    /// `select_task_rq`.
    SelectTaskRq,
    /// `enqueue_task`.
    EnqueueTask,
    /// `dequeue_task`.
    DequeueTask,
    /// `pick_next_task`.
    PickNextTask,
    /// `put_prev_task`.
    PutPrevTask,
    /// `task_tick`.
    TaskTick,
    /// `idle_balance`.
    IdleBalance,
    /// `balance_tick`.
    BalanceTick,
    /// SchedSan's call into the class self-audit.
    Audit,
    /// `nr_queued` and `queued_tids_into` made inside the kernel.
    QueueWalk,
    /// Every other hook (fork, exit, yield, snapshot, hotplug).
    Other,
}

const NHOOKS: usize = Hook::Other as usize + 1;

/// The eight per-task and placement hooks reported one by one, with their
/// metric names.
pub const TIMED: [(Hook, &str); 8] = [
    (Hook::EnqueueTask, "enqueue_task"),
    (Hook::DequeueTask, "dequeue_task"),
    (Hook::PickNextTask, "pick_next_task"),
    (Hook::PutPrevTask, "put_prev_task"),
    (Hook::TaskTick, "task_tick"),
    (Hook::SelectTaskRq, "select_task_rq"),
    (Hook::IdleBalance, "idle_balance"),
    (Hook::BalanceTick, "balance_tick"),
];

/// What the timing wrapper itself costs per hook call, measured once per
/// process by timing empty calls. Of each call's `total_ns`, `inner_ns`
/// falls inside the interval booked to the hook; the rest falls outside it,
/// in the step loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCost {
    /// Host nanoseconds one wrapped call adds to the run.
    pub total_ns: f64,
    /// Of those, the nanoseconds booked to the hook.
    pub inner_ns: f64,
}

impl ProbeCost {
    /// The cost measured for this process.
    pub fn get() -> ProbeCost {
        static COST: OnceLock<ProbeCost> = OnceLock::new();
        *COST.get_or_init(|| {
            const CALLS: u32 = 100_000;
            // The cheapest of a few batches: the cost without host noise.
            (0..5)
                .map(|_| {
                    let probe = Probe::default();
                    let start = Instant::now();
                    for i in 0..CALLS {
                        probe.time(Hook::Other, || black_box(i));
                    }
                    let total = start.elapsed().as_nanos() as f64;
                    let inner = probe.tally.borrow().nanos[Hook::Other as usize] as f64;
                    ProbeCost {
                        total_ns: total / f64::from(CALLS),
                        inner_ns: inner / f64::from(CALLS),
                    }
                })
                .min_by(|a, b| a.total_ns.total_cmp(&b.total_ns))
                .expect("at least one batch")
        })
    }
}

/// Hook calls, time and outcomes of one traced run. Hook times have the
/// wrapper's own cost ([`ProbeCost`]) taken out.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    calls: [u64; NHOOKS],
    nanos: [u64; NHOOKS],
    cost: ProbeCost,
    /// `pick_next_task` calls that found nothing to run.
    pub pick_idle: u64,
    /// `enqueue_task` calls that asked for a preemption.
    pub enqueue_preempt: u64,
    /// `task_tick` calls that asked for a preemption.
    pub tick_preempt: u64,
    /// CPUs examined by `select_task_rq`, as the class reports them.
    pub cpus_scanned: u64,
    /// `idle_balance` calls that pulled a task.
    pub idle_pulls: u64,
}

impl Tally {
    /// Calls to `hook`.
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    /// Seconds spent in `hook`.
    pub fn secs(&self, hook: Hook) -> f64 {
        self.secs_at(hook as usize)
    }

    fn secs_at(&self, i: usize) -> f64 {
        let booked = self.nanos[i] as f64 - self.calls[i] as f64 * self.cost.inner_ns;
        booked.max(0.0) * 1e-9
    }

    /// Seconds spent in all class hooks.
    pub fn hook_secs(&self) -> f64 {
        (0..NHOOKS).map(|i| self.secs_at(i)).sum()
    }

    /// Seconds the wrapper itself added to the run.
    pub fn probe_secs(&self) -> f64 {
        self.calls.iter().sum::<u64>() as f64 * self.cost.total_ns * 1e-9
    }
}

/// State shared between a [`Timed`] class and the step loop driving it.
#[derive(Default)]
struct Probe {
    /// Set while the kernel runs, so the step loop's own runqueue sampling
    /// is not booked to SchedSan's queue walks.
    in_kernel: Cell<bool>,
    tally: RefCell<Tally>,
}

impl Probe {
    fn time<R>(&self, hook: Hook, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.tally.borrow_mut();
        t.calls[hook as usize] += 1;
        t.nanos[hook as usize] += ns;
        out
    }

    fn count(&self, f: impl FnOnce(&mut Tally)) {
        f(&mut self.tally.borrow_mut());
    }
}

/// A scheduling class that delegates every hook to `inner` and books its
/// calls and time in the shared [`Probe`].
struct Timed {
    inner: Box<dyn Scheduler>,
    probe: Rc<Probe>,
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        kind: WakeKind,
        waking_cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        let before = stats.cpus_scanned;
        let out = self.probe.time(Hook::SelectTaskRq, || {
            self.inner
                .select_task_rq(tasks, tid, kind, waking_cpu, now, stats)
        });
        let scanned = stats.cpus_scanned.wrapping_sub(before);
        self.probe.count(|t| t.cpus_scanned += u64::from(scanned));
        out
    }

    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt {
        let out = self.probe.time(Hook::EnqueueTask, || {
            self.inner.enqueue_task(tasks, cpu, tid, kind, now)
        });
        if matches!(out, Preempt::Yes(_)) {
            self.probe.count(|t| t.enqueue_preempt += 1);
        }
        out
    }

    fn dequeue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: DequeueKind,
        now: Time,
    ) {
        self.probe.time(Hook::DequeueTask, || {
            self.inner.dequeue_task(tasks, cpu, tid, kind, now)
        })
    }

    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        self.probe
            .time(Hook::Other, || self.inner.yield_task(tasks, cpu, now))
    }

    fn pick_next_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        let out = self.probe.time(Hook::PickNextTask, || {
            self.inner.pick_next_task(tasks, cpu, now)
        });
        if out.is_none() {
            self.probe.count(|t| t.pick_idle += 1);
        }
        out
    }

    fn put_prev_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        self.probe.time(Hook::PutPrevTask, || {
            self.inner.put_prev_task(tasks, cpu, tid, now)
        })
    }

    fn task_tick(&mut self, tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        let out = self.probe.time(Hook::TaskTick, || {
            self.inner.task_tick(tasks, cpu, curr, now)
        });
        if matches!(out, Preempt::Yes(_)) {
            self.probe.count(|t| t.tick_preempt += 1);
        }
        out
    }

    fn task_fork(&mut self, tasks: &TaskTable, child: Tid, parent: Option<Tid>, now: Time) {
        self.probe.time(Hook::Other, || {
            self.inner.task_fork(tasks, child, parent, now)
        })
    }

    fn task_dead(&mut self, tasks: &TaskTable, tid: Tid, now: Time) {
        self.probe
            .time(Hook::Other, || self.inner.task_dead(tasks, tid, now))
    }

    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        self.probe.time(Hook::BalanceTick, || {
            self.inner.balance_tick(tasks, cpu, now, targets)
        })
    }

    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        let pulled = self.probe.time(Hook::IdleBalance, || {
            self.inner.idle_balance(tasks, cpu, now, stats)
        });
        if pulled {
            self.probe.count(|t| t.idle_pulls += 1);
        }
        pulled
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        if !self.probe.in_kernel.get() {
            return self.inner.nr_queued(cpu);
        }
        self.probe
            .time(Hook::QueueWalk, || self.inner.nr_queued(cpu))
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        if !self.probe.in_kernel.get() {
            return self.inner.queued_tids_into(cpu, out);
        }
        self.probe
            .time(Hook::QueueWalk, || self.inner.queued_tids_into(cpu, out))
    }

    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        self.probe
            .time(Hook::Other, || self.inner.snapshot(tasks, tid))
    }

    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, now: Time) -> Result<(), String> {
        self.probe
            .time(Hook::Audit, || self.inner.audit(tasks, cpu, now))
    }

    fn cpu_offline(&mut self, cpu: CpuId) {
        self.probe.time(Hook::Other, || self.inner.cpu_offline(cpu))
    }

    fn cpu_online(&mut self, cpu: CpuId) {
        self.probe.time(Hook::Other, || self.inner.cpu_online(cpu))
    }
}

/// Build the kernel `run_sched` would build for `sc` under `sched`, with
/// every phase and event queued, through the same public calls. Without a
/// `probe` the kernel comes from `scenario::make_kernel`, as in `run_sched`;
/// with one, the class is wrapped in [`Timed`] and the kernel built the way
/// `make_kernel` builds it.
fn build_with(
    sc: &Scenario,
    sched: Sched,
    opts: &EngineOpts,
    probe: Option<&Rc<Probe>>,
) -> Result<Kernel, SpecError> {
    let topo = sc.topology.build();
    let ncpu = topo.nr_cpus();
    let mut k = match probe {
        None => scenario::make_kernel(&topo, sched, opts.seed, opts.check, sc.faults.to_plan()),
        Some(probe) => {
            let class = Box::new(Timed {
                inner: scenario::make_class(&topo, sched, opts.seed),
                probe: Rc::clone(probe),
            });
            let mut cfg = SimConfig::with_seed(opts.seed);
            cfg.check = opts.check;
            cfg.faults = sc.faults.to_plan();
            if cfg.check == kernel::CheckMode::Strict {
                cfg.trace_capacity = cfg.trace_capacity.max(256);
            }
            Kernel::new(topo.clone(), cfg, class)
        }
    };

    let budget = sc.budget.to_run_budget().tighten(&opts.budget);
    if budget.active() {
        k.set_budget(budget);
    }
    if sc.budget.stall_events.is_some() || sc.budget.pingpong.is_some() {
        let defaults = SimConfig::default();
        k.set_watchdog(
            sc.budget
                .stall_events
                .map_or(defaults.watchdog_stall_events, |n| n as u32),
            sc.budget
                .pingpong
                .map_or(defaults.watchdog_pingpong, |n| n as u32),
        );
    }

    let mut apps = Vec::with_capacity(sc.phases.len());
    for phase in &sc.phases {
        let at = Time::ZERO + phase.at.eval(opts.scale);
        let spec =
            scenario::workload::build(&mut k, &phase.workload, &phase.name, opts.scale, ncpu)?;
        apps.push((phase.name.as_str(), k.queue_app(at, spec)));
    }
    for ev in &sc.events {
        let (_, app) = apps
            .iter()
            .find(|(name, _)| *name == ev.phase)
            .expect("event phases validated at parse time");
        k.queue_unpin(Time::ZERO + ev.at.eval(opts.scale), *app);
    }
    Ok(k)
}

/// Build the kernel, phases and events of one run: the set-up half of
/// `run_sched`, untraced.
pub fn build(sc: &Scenario, sched: Sched, opts: &EngineOpts) -> Result<Kernel, SpecError> {
    build_with(sc, sched, opts, None)
}

/// Outcome of one traced run.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Decision digest at the end of the run.
    pub digest: u64,
    /// A supervision abort (budget, watchdog) cut the run short.
    pub partial: bool,
    /// Host seconds of the whole run, set-up included.
    pub wall_s: f64,
    /// Host seconds of the step loop.
    pub loop_s: f64,
    /// Hook calls and time.
    pub tally: Tally,
}

impl Traced {
    /// Host seconds of the step loop spent outside class hooks and the
    /// timing wrapper.
    pub fn kernel_self_s(&self) -> f64 {
        (self.loop_s - self.tally.hook_secs() - self.tally.probe_secs()).max(0.0)
    }
}

/// Run `sc` under `sched` with every class hook timed. `Err` carries the
/// set-up or simulator error.
pub fn run(sc: &Scenario, sched: Sched, opts: &EngineOpts) -> Result<Traced, String> {
    let start = Instant::now();
    let probe = Rc::new(Probe::default());
    let mut k = build_with(sc, sched, opts, Some(&probe)).map_err(|e| e.to_string())?;
    let ncpu = k.topology().nr_cpus();

    let horizon = match sched {
        Sched::Cfs => sc.run.horizon_cfs.as_ref(),
        Sched::Ule => sc.run.horizon_ule.as_ref(),
        _ => None,
    }
    .unwrap_or(&sc.run.horizon);
    let limit = Time::ZERO + horizon.eval(opts.scale);
    let mut step = sc.run.step.eval(opts.scale);
    if step.is_zero() {
        step = Dur::millis(100);
    }
    let stop_after = sc
        .run
        .stop_spread_after
        .as_ref()
        .map_or(Time::ZERO, |t| Time::ZERO + t.eval(opts.scale));

    let loop_start = Instant::now();
    let mut matrix = PerCoreSeries::new();
    let mut partial = false;
    while k.now() < limit && !(sc.run.until_apps_done && k.all_apps_done()) {
        let next = k.now() + step;
        probe.in_kernel.set(true);
        let stepped = k.try_run_until(next);
        probe.in_kernel.set(false);
        if let Err(e) = stepped {
            if !e.is_supervision() {
                return Err(e.to_string());
            }
            partial = true;
            break;
        }
        matrix.push(
            k.now(),
            (0..ncpu)
                .map(|c| k.nr_queued(CpuId(c as u32)) as u32)
                .collect(),
        );
        if let Some(th) = sc.run.stop_spread_le {
            if matrix.final_spread() <= th && k.now() > stop_after {
                break;
            }
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let digest = k.decision_digest();
    let wall_s = start.elapsed().as_secs_f64();
    let tally = Tally {
        cost: ProbeCost::get(),
        ..probe.tally.borrow().clone()
    };
    Ok(Traced {
        digest,
        partial,
        wall_s,
        loop_s,
        tally,
    })
}
