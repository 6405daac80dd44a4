//! The scheduling-class trait — the paper's Table 1 as a Rust interface.
//!
//! | Linux              | FreeBSD equivalent                         | Trait method        |
//! |--------------------|--------------------------------------------|---------------------|
//! | `enqueue_task`     | `sched_add` (new) / `sched_wakeup` (woken) | [`Scheduler::enqueue_task`] |
//! | `dequeue_task`     | `sched_rem`                                | [`Scheduler::dequeue_task`] |
//! | `yield_task`       | `sched_relinquish`                         | [`Scheduler::yield_task`]   |
//! | `pick_next_task`   | `sched_choose`                             | [`Scheduler::pick_next_task`] |
//! | `put_prev_task`    | `sched_switch`                             | [`Scheduler::put_prev_task`]  |
//! | `select_task_rq`   | `sched_pickcpu`                            | [`Scheduler::select_task_rq`] |
//!
//! Linux distinguishes "new" from "woken-up" enqueues with a flag where
//! FreeBSD has two functions; [`EnqueueKind`] carries that flag, exactly the
//! workaround §3 of the paper describes.
//!
//! Beyond Table 1 the trait exposes the hooks the core kernel calls on every
//! class: the scheduler tick (`task_tick`), fork/exit notification
//! (`task_fork`/`task_dead`, carrying ULE's interactivity inheritance), and
//! the balancing entry points (`balance_tick` for periodic balancing,
//! `idle_balance` for newidle/idle-steal).

use simcore::Time;
use topology::CpuId;

use crate::ids::Tid;
use crate::task::TaskTable;

/// Why a CPU is being selected for a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeKind {
    /// The task was just forked (`sched_add` path).
    New,
    /// The task is waking from sleep (`sched_wakeup` path). Carries the
    /// waking task so placement heuristics can inspect the waker
    /// (CFS's wake-affine/wake-wide logic).
    Wakeup {
        /// Task that issued the wakeup, if any (timer wakeups have none).
        waker: Option<Tid>,
    },
}

/// Why a task is being enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueKind {
    /// Newly created task (FreeBSD `sched_add`).
    New,
    /// Task waking up from voluntary sleep (FreeBSD `sched_wakeup`).
    Wakeup,
    /// Task being moved by the load balancer.
    Migrate,
    /// Task being put back after running (timeslice round-robin, yield).
    Requeue,
}

/// Why a task is being dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueKind {
    /// Going to sleep voluntarily.
    Sleep,
    /// Being moved by the load balancer.
    Migrate,
    /// Exiting.
    Dead,
}

/// Whether the currently running task on the affected CPU should be
/// preempted as a result of a scheduler operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preempt {
    /// Keep running the current task.
    No,
    /// Reschedule the CPU as soon as possible, for the given reason. The
    /// cause is observability metadata only (counters, trace attribution);
    /// the kernel reacts identically to every cause.
    Yes(PreemptCause),
}

/// Why a scheduling class asked for a preemption. The paper's headline
/// behavioural difference — CFS preempts on wakeup, ULE makes timeshare
/// wakeups wait for the slice to expire (§2, Fig 5 apache analysis) — is
/// directly visible in which causes each scheduler ever emits. SchedScope
/// aggregates these per (preemptor, victim) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptCause {
    /// A waking task beat the running one (CFS `check_preempt_wakeup`'s
    /// vruntime + wakeup-granularity test).
    Wakeup,
    /// A kernel thread was enqueued (ULE: the only wakeup preemption
    /// allowed when full preemption is disabled).
    KernelThread,
    /// The running task's timeslice expired on a tick.
    SliceExpired,
    /// A tick-time fairness check fired (CFS `check_preempt_tick`: curr's
    /// vruntime ran too far ahead of the leftmost waiter).
    Fairness,
}

impl PreemptCause {
    /// Stable lowercase label for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PreemptCause::Wakeup => "wakeup",
            PreemptCause::KernelThread => "kernel-thread",
            PreemptCause::SliceExpired => "slice-expired",
            PreemptCause::Fairness => "fairness",
        }
    }
}

/// Placement failed: the scheduler found no legal CPU for the task. The
/// canonical trigger is a pinned task whose last allowed CPU was hotplugged
/// off. Schedulers return this instead of panicking (the PR 6 contract: the
/// kernel converts it into a structured `SimError` with a crash bundle and
/// a replay line, not a process abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectError {
    /// The task that could not be placed.
    pub tid: Tid,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} has no online CPU in its affinity mask", self.tid)
    }
}

/// Out-parameters of [`Scheduler::select_task_rq`] used to charge the waking
/// CPU for placement work. The paper measures ULE spending up to 13 % of
/// cycles scanning cores on sysbench wakeups (§6.3); the simulated kernel
/// converts `cpus_scanned` into time charged to the waker's CPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelectStats {
    /// Number of CPUs examined during placement.
    pub cpus_scanned: u32,
}

/// A point-in-time view of scheduler-internal per-task state, for the
/// figures that plot vruntime/penalty. Fields are `None` when the concept
/// does not exist in the active scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskSnapshot {
    /// CFS virtual runtime, in nanoseconds.
    pub vruntime_ns: Option<u64>,
    /// CFS per-entity load average (PELT-style, 0..=weight).
    pub load: Option<u64>,
    /// ULE interactivity penalty, 0..=100 (Figure 2/4).
    pub ule_penalty: Option<u32>,
    /// ULE score = penalty + nice contribution.
    pub ule_score: Option<i32>,
    /// ULE classification: `true` if on the interactive runqueue.
    pub interactive: Option<bool>,
    /// Effective priority in the scheduler's own scale.
    pub prio: Option<i32>,
    /// Current timeslice length, if the scheduler uses fixed slices.
    pub timeslice_ns: Option<u64>,
}

/// A scheduling class. One instance manages the runqueues of *all* CPUs
/// (as the per-CPU data is owned by the class), mirroring Linux where the
/// class's per-CPU state hangs off each `struct rq`.
///
/// Invariants the kernel relies on:
///
/// * A task is in at most one runqueue at any time.
/// * `pick_next_task` removes the picked task from the queue structure;
///   `put_prev_task` reinserts it if it is still runnable. (The "current
///   stays in the runqueue" Linux convention from §3 is modelled by the
///   class still *counting* the running task in [`Scheduler::nr_queued`].)
/// * The load balancer never migrates a currently running task (§3).
pub trait Scheduler {
    /// Short machine-readable name: `"cfs"` or `"ule"`.
    fn name(&self) -> &'static str;

    /// Choose the CPU on which a new or waking task should be enqueued.
    /// Linux `select_task_rq` ↔ FreeBSD `sched_pickcpu`.
    ///
    /// `stats.cpus_scanned` must be incremented for every CPU examined so
    /// the kernel can charge placement overhead to `waking_cpu`.
    ///
    /// Returns `Err` when no online CPU satisfies the task's affinity mask
    /// (a pinned task whose CPUs are all hotplugged off). Implementations
    /// must never panic here; the kernel turns the error into a crash
    /// bundle.
    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        kind: WakeKind,
        waking_cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError>;

    /// Add a task to `cpu`'s runqueue. Linux `enqueue_task` ↔ FreeBSD
    /// `sched_add` / `sched_wakeup` (selected by `kind`).
    ///
    /// Returns whether the task should preempt `cpu`'s current task. (ULE
    /// returns [`Preempt::No`] for timeshare tasks: "full preemption is
    /// disabled"; CFS applies the 1 ms wakeup-granularity vruntime check.)
    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt;

    /// Remove a task from `cpu`'s runqueue. Linux `dequeue_task` ↔ FreeBSD
    /// `sched_rem`.
    fn dequeue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: DequeueKind,
        now: Time,
    );

    /// The current task gives up the CPU. Linux `yield_task` ↔ FreeBSD
    /// `sched_relinquish`.
    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time);

    /// Select the next task to run on `cpu`, removing it from the queue
    /// structure. Linux `pick_next_task` ↔ FreeBSD `sched_choose`.
    /// `None` means the CPU should run its idle loop.
    fn pick_next_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid>;

    /// Account for the task that just stopped running and reinsert it into
    /// the queue if still runnable. Linux `put_prev_task` ↔ FreeBSD
    /// `sched_switch`.
    fn put_prev_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time);

    /// Scheduler tick for the running task `curr` on `cpu` (1 ms cadence).
    /// Returns whether `curr` should be preempted (slice exhausted, fairness
    /// violated, ...).
    fn task_tick(&mut self, tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt;

    /// A task was forked. ULE copies the parent's sleep/run history here
    /// ("when a thread is created, it inherits the runtime and sleeptime of
    /// its parent"); CFS initialises the child's vruntime.
    fn task_fork(&mut self, tasks: &TaskTable, child: Tid, parent: Option<Tid>, now: Time);

    /// A task died. ULE refunds the child's recent runtime to the parent
    /// ("when a thread dies, its runtime in the last 5 seconds is returned
    /// to its parent").
    fn task_dead(&mut self, tasks: &TaskTable, tid: Tid, now: Time);

    /// Periodic-balancing opportunity, invoked on every tick of every CPU.
    /// The class keeps its own timers: CFS balances a domain when that
    /// domain's interval expired (4 ms base); ULE acts only on core 0 with a
    /// randomized 0.5–1.5 s period. Migrations are applied internally
    /// (updating `Task::cpu`); CPUs that received tasks — and should be
    /// rescheduled if idle — are appended to `targets`. The kernel passes
    /// the same cleared buffer on every tick, so the per-tick hot path
    /// allocates nothing.
    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    );

    /// `cpu` is about to go idle; try to steal/pull work. Returns `true` if
    /// at least one task was pulled into `cpu`'s runqueue. Linux newidle
    /// balancing ↔ FreeBSD `tdq_idled`.
    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool;

    /// Number of tasks the class accounts to `cpu`'s runqueue, *including*
    /// the currently running one (the paper's ported-ULE convention).
    fn nr_queued(&self, cpu: CpuId) -> usize;

    /// Append the tids currently queued on `cpu` (excluding the running
    /// task) to `out`. The allocation-free primitive behind
    /// [`Scheduler::queued_tids`]; balancers call it with a reused scratch
    /// buffer.
    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>);

    /// Tids currently queued on `cpu` (excluding the running task).
    /// Convenience wrapper over [`Scheduler::queued_tids_into`] for tests
    /// and diagnostics; allocates.
    fn queued_tids(&self, cpu: CpuId) -> Vec<Tid> {
        let mut out = Vec::new();
        self.queued_tids_into(cpu, &mut out);
        out
    }

    /// Point-in-time scheduler-internal state of a task, for the figures.
    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot;

    /// Self-audit of the class's internal state for `cpu`, called by the
    /// SchedSan invariant checker when strict checking is on: after every
    /// event that touched `cpu`, and for every CPU on its full sweeps.
    /// Implementations verify their class-specific invariants (CFS:
    /// `min_vruntime` monotonicity, tree/accounting consistency; ULE:
    /// priority-range validity, priority-multiset consistency) and return
    /// a description of the first violation found. Takes `&mut self` so an
    /// audit may keep memory between calls (e.g. the last observed
    /// `min_vruntime` for monotonicity), but a repeated call on unchanged
    /// state must give the same answer: the checker re-audits a CPU when
    /// its incremental pass defers to the full sweep. The default audits
    /// nothing.
    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, now: Time) -> Result<(), String> {
        let _ = (tasks, cpu, now);
        Ok(())
    }

    /// `cpu` is going offline (hotplug). The class must stop placing or
    /// migrating tasks onto it until [`Scheduler::cpu_online`]; the kernel
    /// drains the runqueue through the normal dequeue/select/enqueue path
    /// immediately after this call. The default ignores hotplug (fine for
    /// classes never run under fault injection).
    fn cpu_offline(&mut self, cpu: CpuId) {
        let _ = cpu;
    }

    /// `cpu` came back online and may receive tasks again.
    fn cpu_online(&mut self, cpu: CpuId) {
        let _ = cpu;
    }
}
