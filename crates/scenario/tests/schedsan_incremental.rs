//! SchedSan's incremental checker against its full-sweep reference.
//!
//! Each of the six classes runs wrapped in [`Corrupt`], a delegating
//! scheduler that injects one fault inside a hook, on that hook's own CPU.
//! The incremental checker must report exactly the error the full sweep
//! reports when it runs after every event: same error (and so the same
//! simulated time), same event count, same message. A control fault that
//! corrupts a CPU the event did not touch must surface no later than that
//! CPU's next tick, since every online CPU ticks every `SimConfig::tick`.
//! Starvation, which no dirty set can localise, must also surface at the
//! same event as under the full sweep.

use std::cell::Cell;
use std::rc::Rc;

use kernel::{
    cpu_hog, Action, AppSpec, CheckMode, FaultPlan, Kernel, SimConfig, SimError, ThreadSpec,
};
use scenario::Sched;
use sched_api::{
    DequeueKind, EnqueueKind, Preempt, Scheduler, SelectError, SelectStats, TaskSnapshot,
    TaskTable, Tid, WakeKind,
};
use simcore::{Dur, Time};
use topology::{CpuId, CpuMask, Topology};

/// A class hook, for faults that repeat one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Enqueue,
    Fork,
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Dequeue another queued task behind the kernel's back: the class
    /// stays consistent, the kernel still holds the task Runnable.
    DropQueued,
    /// Enqueue the running task a second time.
    DoubleEnqueue,
    /// Point a queued task's `t.cpu` at another CPU.
    StaleCpu,
    /// `nr_queued` reports one task more than the class holds.
    NrOffByOne,
    /// Take the hook's CPU out of a queued task's affinity mask.
    Affinity,
    /// Swallow the hotplug drain's `dequeue_task`, so the task stays
    /// queued on the CPU going offline.
    OfflineLeftover,
    /// Call a hook a second time with the same arguments.
    Repeat(Hook),
    /// `queued_tids_into` names a tid the kernel never created.
    Phantom,
    /// Control: drop a queued task from a CPU other than the hook's.
    DropElsewhere,
}

/// A tid no kernel in these tests ever creates.
const PHANTOM: Tid = Tid(1 << 30);

/// Delegates every hook to `inner` and injects `fault` once `calls` of the
/// triggering hook reach `after` and the fault has something to corrupt.
struct Corrupt {
    inner: Box<dyn Scheduler>,
    fault: Fault,
    after: u32,
    calls: u32,
    ncpu: usize,
    offline: CpuMask,
    /// CPU whose `nr_queued` / `queued_tids_into` lie once fired.
    lying: Option<CpuId>,
    /// When the fault fired, and the CPU it corrupted.
    fired: Rc<Cell<Option<(Time, CpuId)>>>,
}

impl Corrupt {
    /// Count a call of the triggering hook; `true` while the fault is due.
    fn due(&mut self, hook: Fault) -> bool {
        if self.fault != hook || self.fired.get().is_some() {
            return false;
        }
        self.calls += 1;
        self.calls >= self.after
    }

    fn fire(&self, cpu: CpuId, now: Time) {
        self.fired.set(Some((now, cpu)));
    }

    /// The last task `cpu`'s class lists as queued, if any (in CFS's
    /// vruntime order, one that has already run).
    fn queued_on(&self, cpu: CpuId) -> Option<Tid> {
        self.inner.queued_tids(cpu).last().copied()
    }

    /// The faults injected from `task_tick` on `cpu`, whose current task
    /// is `curr`.
    fn tick_fault(&mut self, tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) {
        let fault = self.fault;
        if matches!(fault, Fault::OfflineLeftover | Fault::Repeat(Hook::Enqueue))
            || !self.due(fault)
        {
            return;
        }
        let victim = match fault {
            Fault::DropElsewhere => (0..self.ncpu)
                .map(|i| CpuId(i as u32))
                .filter(|&c| c != cpu)
                .find_map(|c| self.queued_on(c).map(|t| (c, t))),
            _ => self.queued_on(cpu).map(|t| (cpu, t)),
        };
        let Some((on, tid)) = victim else { return };
        self.fire(on, now);
        match fault {
            Fault::DropQueued | Fault::DropElsewhere => {
                self.inner
                    .dequeue_task(tasks, on, tid, DequeueKind::Migrate, now);
            }
            Fault::DoubleEnqueue => {
                self.inner
                    .enqueue_task(tasks, cpu, curr, EnqueueKind::Requeue, now);
            }
            Fault::StaleCpu => {
                tasks.get_mut(tid).cpu = CpuId(((cpu.index() + 1) % self.ncpu) as u32);
            }
            Fault::Affinity => {
                let mut mask = CpuMask::first_n(self.ncpu);
                mask.clear(cpu);
                tasks.get_mut(tid).affinity = Some(mask);
            }
            Fault::NrOffByOne | Fault::Phantom => self.lying = Some(cpu),
            Fault::Repeat(Hook::Fork) => {
                let parent = tasks.get(tid).parent;
                self.inner.task_fork(tasks, tid, parent, now);
            }
            Fault::OfflineLeftover | Fault::Repeat(Hook::Enqueue) => unreachable!(),
        }
    }
}

impl Scheduler for Corrupt {
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
        self.inner
            .select_task_rq(tasks, tid, kind, waking_cpu, now, stats)
    }
    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt {
        let p = self.inner.enqueue_task(tasks, cpu, tid, kind, now);
        if kind == EnqueueKind::Wakeup && self.due(Fault::Repeat(Hook::Enqueue)) {
            self.inner.enqueue_task(tasks, cpu, tid, kind, now);
            self.fire(cpu, now);
        }
        p
    }
    fn dequeue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: DequeueKind,
        now: Time,
    ) {
        if kind == DequeueKind::Migrate
            && self.offline.contains(cpu)
            && self.due(Fault::OfflineLeftover)
        {
            self.fire(cpu, now);
            return;
        }
        self.inner.dequeue_task(tasks, cpu, tid, kind, now)
    }
    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        self.inner.yield_task(tasks, cpu, now)
    }
    fn pick_next_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        self.inner.pick_next_task(tasks, cpu, now)
    }
    fn put_prev_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        self.inner.put_prev_task(tasks, cpu, tid, now)
    }
    fn task_tick(&mut self, tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        let p = self.inner.task_tick(tasks, cpu, curr, now);
        self.tick_fault(tasks, cpu, curr, now);
        p
    }
    fn task_fork(&mut self, tasks: &TaskTable, child: Tid, parent: Option<Tid>, now: Time) {
        self.inner.task_fork(tasks, child, parent, now)
    }
    fn task_dead(&mut self, tasks: &TaskTable, tid: Tid, now: Time) {
        self.inner.task_dead(tasks, tid, now)
    }
    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        self.inner.balance_tick(tasks, cpu, now, targets)
    }
    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        self.inner.idle_balance(tasks, cpu, now, stats)
    }
    fn nr_queued(&self, cpu: CpuId) -> usize {
        let lie = self.fault == Fault::NrOffByOne && self.lying == Some(cpu);
        self.inner.nr_queued(cpu) + usize::from(lie)
    }
    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        self.inner.queued_tids_into(cpu, out);
        if self.fault == Fault::Phantom && self.lying == Some(cpu) {
            out.push(PHANTOM);
        }
    }
    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        self.inner.snapshot(tasks, tid)
    }
    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, now: Time) -> Result<(), String> {
        self.inner.audit(tasks, cpu, now)
    }
    fn cpu_offline(&mut self, cpu: CpuId) {
        self.offline.set(cpu);
        self.inner.cpu_offline(cpu)
    }
    fn cpu_online(&mut self, cpu: CpuId) {
        self.offline.clear(cpu);
        self.inner.cpu_online(cpu)
    }
}

/// Hogs keep every runqueue occupied; sleepers add wakeups.
fn workload() -> AppSpec {
    let mut threads: Vec<ThreadSpec> = (0..10)
        .map(|i| ThreadSpec::new(format!("hog{i}"), cpu_hog(Dur::millis(400), Dur::millis(2))))
        .collect();
    threads.extend((0..4).map(|i| {
        let mut run = true;
        ThreadSpec::new(
            format!("s{i}"),
            kernel::from_fn(move |_ctx| {
                run = !run;
                if run {
                    Action::Run(Dur::micros(300))
                } else {
                    Action::Sleep(Dur::micros(700))
                }
            }),
        )
    }));
    AppSpec::new("mix", threads)
}

const NCPU: usize = 4;

/// Run `sched` wrapped in `Corrupt` until the checker reports. Returns the
/// kernel (for its counters), the result and when/where the fault fired.
fn run(
    sched: Sched,
    fault: Fault,
    after: u32,
    reference: bool,
) -> (Kernel, Result<(), SimError>, Option<(Time, CpuId)>) {
    let topo = Topology::flat(NCPU as u32);
    let fired = Rc::new(Cell::new(None));
    let class = Corrupt {
        inner: scenario::make_class(&topo, sched, 7),
        fault,
        after,
        calls: 0,
        ncpu: NCPU,
        offline: CpuMask::empty(),
        lying: None,
        fired: Rc::clone(&fired),
    };
    let mut cfg = SimConfig::with_seed(7);
    cfg.check = CheckMode::Strict;
    if fault == Fault::OfflineLeftover {
        cfg.faults = FaultPlan {
            hotplug_period: Some(Dur::millis(3)),
            hotplug_down: Dur::millis(1),
            ..FaultPlan::default()
        };
    }
    let mut k = Kernel::new(topo, cfg, Box::new(class));
    k.set_full_sweep_reference(reference);
    k.queue_app(Time::ZERO, workload());
    let res = k.try_run_until(Time::ZERO + Dur::millis(300));
    (k, res, fired.get())
}

/// The call count of its triggering hook at which a fault fires: late
/// enough that the run has history. CFS's first tasks wait at vruntime 0,
/// where a re-fork changes nothing, so its re-fork waits longer.
fn trigger(sched: Sched, fault: Fault) -> u32 {
    match (sched, fault) {
        (Sched::Cfs, Fault::Repeat(Hook::Fork)) => 50,
        _ => 20,
    }
}

/// The hook each class gets repeated. CFS and ULE keep per-task state
/// from `task_fork`, and forking a queued task again corrupts it (CFS's
/// entity no longer matches its tree key, ULE forgets the task's queued
/// priority). The other classes have no fork state; a repeated wakeup
/// enqueue corrupts their queues instead.
fn repeat_hook(sched: Sched) -> Hook {
    match sched {
        Sched::Cfs | Sched::Ule => Hook::Fork,
        _ => Hook::Enqueue,
    }
}

#[test]
fn incremental_checker_reports_exactly_what_the_full_sweep_reports() {
    for sched in Sched::ALL {
        for fault in [
            Fault::DropQueued,
            Fault::DoubleEnqueue,
            Fault::StaleCpu,
            Fault::NrOffByOne,
            Fault::Affinity,
            Fault::OfflineLeftover,
            Fault::Repeat(repeat_hook(sched)),
            Fault::Phantom,
        ] {
            let label = format!("{} {fault:?}", sched.flag_name());
            let n = trigger(sched, fault);
            let (rk, reference, rfired) = run(sched, fault, n, true);
            let (ik, incremental, ifired) = run(sched, fault, n, false);
            assert!(rfired.is_some(), "[{label}] the fault never fired");
            assert_eq!(rfired, ifired, "[{label}] both runs fire at the same point");
            let err = reference.expect_err(&format!("[{label}] the full sweep catches it"));
            assert_eq!(incremental, Err(err.clone()), "[{label}]");
            assert_eq!(ik.counters().events, rk.counters().events, "[{label}]");
            assert_eq!(ik.now(), rk.now(), "[{label}]");
            if fault == Fault::Phantom {
                // A tid the kernel never created is an error, not a panic.
                assert!(
                    matches!(&err, SimError::Invariant { detail, .. }
                        if detail.contains(&PHANTOM.to_string())),
                    "[{label}] {err}"
                );
            }
        }
    }
}

/// Bounded starvation is the one check no dirty set can localise: a task
/// starves because nothing touches it. The starvation floor must flag it
/// at the same event as the full sweep.
#[test]
fn starvation_is_reported_at_the_same_event_as_the_full_sweep() {
    for sched in Sched::ALL {
        let [reference, incremental] = [true, false].map(|reference| {
            let topo = Topology::flat(NCPU as u32);
            let mut cfg = SimConfig::with_seed(7);
            cfg.check = CheckMode::Strict;
            cfg.starvation_limit = Dur::millis(2);
            let class = scenario::make_class(&topo, sched, 7);
            let mut k = Kernel::new(topo, cfg, class);
            k.set_full_sweep_reference(reference);
            k.queue_app(Time::ZERO, workload());
            let res = k.try_run_until(Time::ZERO + Dur::millis(300));
            (res, k.counters().events)
        });
        let label = sched.flag_name();
        assert!(
            matches!(&reference.0, Err(SimError::Invariant { detail, .. })
                if detail.contains("runnable-but-unscheduled")),
            "[{label}] {:?}",
            reference.0
        );
        assert_eq!(incremental, reference, "[{label}]");
    }
}

/// The first tick of `cpu` strictly after `at`: CPU i of n first ticks at
/// `tick · (1 + i/n)`, then every `tick`.
fn next_tick(cpu: CpuId, at: Time, tick: Dur) -> Time {
    let t = tick.as_nanos();
    let first = t + t * u64::from(cpu.0) / NCPU as u64;
    let k = if at.0 < first {
        0
    } else {
        (at.0 - first) / t + 1
    };
    Time(first + k * t)
}

/// Dropping a task from a CPU the event did not touch is reported no
/// later than that CPU's next tick.
#[test]
fn corruption_elsewhere_is_caught_by_the_next_tick_of_its_cpu() {
    let tick = SimConfig::default().tick;
    for sched in Sched::ALL {
        let label = sched.flag_name();
        let (_, res, fired) = run(sched, Fault::DropElsewhere, 20, false);
        let (at, cpu) = fired.unwrap_or_else(|| panic!("[{label}] the fault never fired"));
        let err = res.expect_err(&format!("[{label}] the lost task is reported"));
        let SimError::Invariant { at: caught, detail } = &err else {
            panic!("[{label}] unexpected error: {err}");
        };
        assert!(detail.contains("lost task"), "[{label}] {detail}");
        let deadline = next_tick(cpu, at, tick);
        assert!(
            *caught <= deadline,
            "[{label}] dropped from {cpu} at {at}, reported at {caught}, its next tick is {deadline}"
        );
    }
}
