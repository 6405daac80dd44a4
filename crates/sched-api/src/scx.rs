//! A slim sched_ext-style plug-in scheduler adapter.
//!
//! Linux's sched_ext (`SCHED_EXT`) lets a BPF program implement scheduling
//! policy through a handful of callbacks — `ops.select_cpu`, `ops.enqueue`,
//! `ops.dispatch` — while the kernel-side framework owns the mechanical
//! parts: dispatch queues, slice bookkeeping, migration plumbing. This
//! module reproduces that split inside the simulator:
//!
//! * [`ScxPolicy`] is the policy surface. A policy sees only a *flat kernel
//!   context* ([`ScxCtx`]: the task table plus per-CPU occupancy) and
//!   answers three questions: where should this task go (`select_cpu`),
//!   with what priority key should it wait (`enqueue`), and where should an
//!   idle CPU pull work from (`dispatch`).
//! * [`ScxSched`] wraps any `ScxPolicy` into a full [`Scheduler`]: it owns
//!   the per-CPU dispatch queues (ordered by the policy's key with FIFO
//!   tie-breaking), enforces the policy's timeslice, handles hotplug and
//!   affinity sanitisation, and passes the SchedSan structural audit — so a
//!   policy author writes ~50 lines and inherits the whole harness
//!   (scenarios, fuzzing, golden digests, tournaments).
//!
//! Two example policies ship with the adapter: [`FifoPolicy`] (global
//! arrival order, the `scx_simple` FIFO mode) and [`VtimePolicy`]
//! (weight-scaled virtual time, the `scx_simple` vtime mode).

use std::collections::BTreeSet;

use simcore::{Dur, Time};
use topology::{CpuId, CpuMask};

use crate::ids::Tid;
use crate::sched::{
    DequeueKind, EnqueueKind, Preempt, PreemptCause, Scheduler, SelectError, SelectStats,
    TaskSnapshot, WakeKind,
};
use crate::task::{Task, TaskTable};
use crate::weights::{calc_delta_fair, nice_to_weight};

/// Per-CPU occupancy as a policy sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScxCpuState {
    /// `false` while the CPU is hotplugged out; offline CPUs must not be
    /// selected or dispatched from.
    pub online: bool,
    /// Tasks waiting on this CPU's dispatch queue (excluding the running
    /// task).
    pub nr_waiting: usize,
    /// Whether a task is currently executing on this CPU.
    pub running: bool,
}

impl ScxCpuState {
    /// Waiting plus running — the load figure placement heuristics compare.
    pub fn load(&self) -> usize {
        self.nr_waiting + usize::from(self.running)
    }
}

/// The flat kernel context handed to every policy callback: global task
/// state plus per-CPU occupancy, nothing else. Policies hold their own
/// per-task side state keyed by [`Tid`].
#[derive(Debug)]
pub struct ScxCtx<'a> {
    /// All live tasks.
    pub tasks: &'a TaskTable,
    /// Per-CPU occupancy, indexed by `CpuId::index()`.
    pub cpus: &'a [ScxCpuState],
    /// Current simulation time.
    pub now: Time,
}

impl ScxCtx<'_> {
    /// The least-loaded online CPU in `task`'s affinity mask, counting every
    /// examined CPU into `stats` (the shared placement helper both example
    /// policies use).
    pub fn least_loaded(&self, task: &Task, stats: &mut SelectStats) -> Option<CpuId> {
        let mut best: Option<(CpuId, usize)> = None;
        for (i, st) in self.cpus.iter().enumerate() {
            let cpu = CpuId(i as u32);
            if !st.online || !task.allowed_on(cpu) {
                continue;
            }
            stats.cpus_scanned += 1;
            match best {
                None => best = Some((cpu, st.load())),
                Some((_, b)) if st.load() < b => best = Some((cpu, st.load())),
                _ => {}
            }
        }
        best.map(|(c, _)| c)
    }
}

/// A sched_ext-style scheduling policy: three decisions against a flat
/// kernel context. Everything else (queues, slices, migration mechanics,
/// audits) is owned by the [`ScxSched`] adapter.
pub trait ScxPolicy {
    /// Short machine-readable name, e.g. `"scx-fifo"`.
    fn name(&self) -> &'static str;

    /// Fixed timeslice the adapter enforces via tick preemption. Must be
    /// finite and well under the strict-mode starvation limit so waiting
    /// tasks always make progress.
    fn slice(&self) -> Dur {
        Dur::millis(5)
    }

    /// Choose the CPU on which a new or waking task should be enqueued
    /// (`ops.select_cpu`). `prev_cpu` is where the task last sat. Count
    /// every examined CPU into `stats`. The adapter falls back to the
    /// first online allowed CPU if the returned one is offline or outside
    /// the task's affinity mask.
    fn select_cpu(
        &mut self,
        ctx: &ScxCtx<'_>,
        tid: Tid,
        prev_cpu: CpuId,
        stats: &mut SelectStats,
    ) -> CpuId;

    /// The priority key under which `tid` waits on its dispatch queue
    /// (`ops.enqueue`). Lower keys run first; ties break by arrival order.
    /// A constant key yields FIFO; a weight-scaled virtual time yields
    /// fair sharing.
    fn enqueue(&mut self, ctx: &ScxCtx<'_>, tid: Tid, kind: EnqueueKind) -> u64;

    /// An idle `cpu` asks where to pull work from (`ops.dispatch`).
    /// Return the victim CPU to steal the head task from, or `None` to
    /// stay idle. The default picks the online CPU with the most waiters.
    fn dispatch(&mut self, ctx: &ScxCtx<'_>, cpu: CpuId, stats: &mut SelectStats) -> Option<CpuId> {
        let mut busiest: Option<(CpuId, usize)> = None;
        for (i, st) in ctx.cpus.iter().enumerate() {
            stats.cpus_scanned += 1;
            if i == cpu.index() || !st.online || st.nr_waiting == 0 {
                continue;
            }
            match busiest {
                None => busiest = Some((CpuId(i as u32), st.nr_waiting)),
                Some((_, b)) if st.nr_waiting > b => {
                    busiest = Some((CpuId(i as u32), st.nr_waiting))
                }
                _ => {}
            }
        }
        busiest.map(|(c, _)| c)
    }

    /// `tid` starts executing (`ops.running`). Default: no-op.
    fn running(&mut self, ctx: &ScxCtx<'_>, tid: Tid) {
        let _ = (ctx, tid);
    }

    /// `tid` stops executing after `ran` of CPU time (`ops.stopping`).
    /// Default: no-op.
    fn stopping(&mut self, ctx: &ScxCtx<'_>, tid: Tid, ran: Dur) {
        let _ = (ctx, tid, ran);
    }
}

/// Where a queued (non-running) task currently sits, so dequeues and
/// migrations find its tree entry without scanning.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cpu: CpuId,
    key: u64,
    seq: u64,
}

/// Adapter wrapping an [`ScxPolicy`] into a full [`Scheduler`]; see module
/// docs for the framework/policy split.
pub struct ScxSched<P> {
    policy: P,
    /// Per-CPU dispatch queue ordered by (policy key, arrival seq, tid).
    qs: Vec<BTreeSet<(u64, u64, Tid)>>,
    curr: Vec<Option<Tid>>,
    /// When the running task was picked (slice + stopping accounting).
    run_start: Vec<Time>,
    /// Online CPUs as a bitset; the framework-side sanitisation source of
    /// truth (policies see the same bits through [`ScxCpuState::online`]).
    online: CpuMask,
    /// Queued-task location, indexed by `Tid::index()`.
    slots: Vec<Option<Slot>>,
    /// Arrival tie-breaker, monotonically increasing.
    seq: u64,
    /// Scratch for building [`ScxCtx`] without per-call allocation.
    cpu_scratch: Vec<ScxCpuState>,
    /// Set when the policy's `select_cpu` returned an offline or
    /// affinity-disallowed CPU and the framework had to rewrite the pick;
    /// surfaced as a policy bug by every later strict-mode audit (never
    /// cleared, so a repeated audit gives the same answer).
    bad_pick: Option<(Tid, CpuId)>,
}

/// Fill `out` with the per-CPU occupancy view (free function so callers can
/// split borrows between the context and the policy).
fn fill_cpu_states(
    qs: &[BTreeSet<(u64, u64, Tid)>],
    curr: &[Option<Tid>],
    online: &CpuMask,
    out: &mut Vec<ScxCpuState>,
) {
    out.clear();
    for i in 0..qs.len() {
        out.push(ScxCpuState {
            online: online.contains(CpuId(i as u32)),
            nr_waiting: qs[i].len(),
            running: curr[i].is_some(),
        });
    }
}

/// Run `f(policy, ctx)` with a freshly built context. A macro rather than a
/// method so the disjoint field borrows (`policy` mutable, queue state
/// shared) survive the borrow checker.
macro_rules! with_ctx {
    ($self:ident, $tasks:expr, $now:expr, |$policy:ident, $ctx:ident| $body:expr) => {{
        fill_cpu_states(
            &$self.qs,
            &$self.curr,
            &$self.online,
            &mut $self.cpu_scratch,
        );
        let $ctx = ScxCtx {
            tasks: $tasks,
            cpus: &$self.cpu_scratch,
            now: $now,
        };
        let $policy = &mut $self.policy;
        $body
    }};
}

impl<P: ScxPolicy> ScxSched<P> {
    /// Wrap `policy` over `nr_cpus` dispatch queues.
    pub fn new(policy: P, nr_cpus: usize) -> ScxSched<P> {
        ScxSched {
            policy,
            qs: (0..nr_cpus).map(|_| BTreeSet::new()).collect(),
            curr: vec![None; nr_cpus],
            run_start: vec![Time::ZERO; nr_cpus],
            online: CpuMask::first_n(nr_cpus),
            slots: Vec::new(),
            seq: 0,
            cpu_scratch: Vec::new(),
            bad_pick: None,
        }
    }

    fn slot_mut(&mut self, tid: Tid) -> &mut Option<Slot> {
        if self.slots.len() <= tid.index() {
            self.slots.resize(tid.index() + 1, None);
        }
        &mut self.slots[tid.index()]
    }

    /// Insert `tid` on `cpu` under `key`, recording its slot.
    fn push(&mut self, cpu: CpuId, tid: Tid, key: u64) {
        let seq = self.seq;
        self.seq += 1;
        let fresh = self.qs[cpu.index()].insert((key, seq, tid));
        debug_assert!(fresh, "{tid} already queued");
        *self.slot_mut(tid) = Some(Slot { cpu, key, seq });
    }

    /// Remove a queued `tid` via its slot. Returns `false` if it was not
    /// queued (e.g. it is the running task).
    fn unqueue(&mut self, tid: Tid) -> bool {
        let Some(slot) = self.slot_mut(tid).take() else {
            return false;
        };
        let had = self.qs[slot.cpu.index()].remove(&(slot.key, slot.seq, tid));
        debug_assert!(had, "{tid} slot points at a missing queue entry");
        had
    }

    /// The running task on `cpu` stops; fire the policy's stopping hook.
    fn stop_curr(&mut self, tasks: &TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        let tid = self.curr[cpu.index()].take()?;
        let ran = now.saturating_since(self.run_start[cpu.index()]);
        with_ctx!(self, tasks, now, |policy, ctx| policy
            .stopping(&ctx, tid, ran));
        Some(tid)
    }
}

impl<P: ScxPolicy> Scheduler for ScxSched<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        _kind: WakeKind,
        _waking_cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        let prev = tasks.get(tid).cpu;
        let chosen = with_ctx!(self, tasks, now, |policy, ctx| policy
            .select_cpu(&ctx, tid, prev, stats));
        // Sanitise: the framework, not the policy, is responsible for never
        // placing a task on an offline CPU or outside its affinity mask.
        let task = tasks.get(tid);
        if chosen.index() < self.qs.len() && self.online.contains(chosen) && task.allowed_on(chosen)
        {
            return Ok(chosen);
        }
        // The placeable set is one word-AND away; the lowest legal id is
        // the deterministic fallback. An empty set is the caller's problem
        // (hotplug raced a pinned task) and must not panic here — the
        // kernel turns the error into a crash bundle with a replay line.
        let placeable = task.allowed_online(&self.online);
        stats.cpus_scanned += 1;
        match placeable.first_set() {
            Some(cpu) => {
                // The policy had a legal option and still picked a bad CPU:
                // remember it for the strict-mode audit.
                self.bad_pick = Some((tid, chosen));
                Ok(cpu)
            }
            None => Err(SelectError { tid }),
        }
    }

    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt {
        let key = with_ctx!(self, tasks, now, |policy, ctx| policy
            .enqueue(&ctx, tid, kind));
        self.push(cpu, tid, key);
        // Like ULE with full preemption disabled: only kernel threads
        // preempt on wakeup; everyone else waits for the slice to expire.
        if kind != EnqueueKind::Migrate
            && tasks.get(tid).kernel_thread
            && self.curr[cpu.index()].is_some()
        {
            return Preempt::Yes(PreemptCause::KernelThread);
        }
        Preempt::No
    }

    fn dequeue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        now: Time,
    ) {
        if self.curr[cpu.index()] == Some(tid) {
            self.stop_curr(tasks, cpu, now);
        } else {
            self.unqueue(tid);
        }
    }

    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        if let Some(tid) = self.stop_curr(tasks, cpu, now) {
            let key = with_ctx!(self, tasks, now, |policy, ctx| policy.enqueue(
                &ctx,
                tid,
                EnqueueKind::Requeue
            ));
            self.push(cpu, tid, key);
        }
    }

    fn pick_next_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        debug_assert!(self.curr[cpu.index()].is_none(), "pick with a current task");
        let (_, _, tid) = self.qs[cpu.index()].pop_first()?;
        self.slots[tid.index()] = None;
        self.curr[cpu.index()] = Some(tid);
        self.run_start[cpu.index()] = now;
        with_ctx!(self, tasks, now, |policy, ctx| policy.running(&ctx, tid));
        Some(tid)
    }

    fn put_prev_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        debug_assert_eq!(self.curr[cpu.index()], Some(tid));
        self.stop_curr(tasks, cpu, now);
        let key = with_ctx!(self, tasks, now, |policy, ctx| policy.enqueue(
            &ctx,
            tid,
            EnqueueKind::Requeue
        ));
        self.push(cpu, tid, key);
    }

    fn task_tick(&mut self, _tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        debug_assert_eq!(self.curr[cpu.index()], Some(curr));
        if !self.qs[cpu.index()].is_empty()
            && now.saturating_since(self.run_start[cpu.index()]) >= self.policy.slice()
        {
            Preempt::Yes(PreemptCause::SliceExpired)
        } else {
            Preempt::No
        }
    }

    fn task_fork(&mut self, _tasks: &TaskTable, _child: Tid, _parent: Option<Tid>, _now: Time) {}

    fn task_dead(&mut self, _tasks: &TaskTable, tid: Tid, _now: Time) {
        // The kernel dequeues before task_dead; drop any stale slot so a
        // recycled tid starts clean.
        if tid.index() < self.slots.len() {
            debug_assert!(self.slots[tid.index()].is_none(), "{tid} died while queued");
            self.slots[tid.index()] = None;
        }
    }

    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        // Idle CPUs re-attempt a dispatch on every tick so work unpinned
        // after the CPU went idle is still picked up.
        if self.nr_queued(cpu) == 0 {
            let mut stats = SelectStats::default();
            if self.idle_balance(tasks, cpu, now, &mut stats) {
                targets.push(cpu);
            }
        }
    }

    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        if !self.online.contains(cpu) {
            return false;
        }
        let Some(victim) = with_ctx!(self, tasks, now, |policy, ctx| policy
            .dispatch(&ctx, cpu, stats))
        else {
            return false;
        };
        if victim.index() >= self.qs.len() || victim == cpu {
            return false;
        }
        // Pull the head-most task allowed on `cpu`, keeping its key.
        let entry = self.qs[victim.index()]
            .iter()
            .find(|&&(_, _, t)| tasks.get(t).allowed_on(cpu))
            .copied();
        let Some((key, seq, tid)) = entry else {
            return false;
        };
        self.qs[victim.index()].remove(&(key, seq, tid));
        self.qs[cpu.index()].insert((key, seq, tid));
        *self.slot_mut(tid) = Some(Slot { cpu, key, seq });
        tasks.get_mut(tid).cpu = cpu;
        true
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        self.qs[cpu.index()].len() + usize::from(self.curr[cpu.index()].is_some())
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        out.extend(self.qs[cpu.index()].iter().map(|&(_, _, t)| t));
    }

    fn snapshot(&self, _tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        let key = self
            .slots
            .get(tid.index())
            .and_then(|s| s.as_ref())
            .map(|s| s.key);
        TaskSnapshot {
            vruntime_ns: key,
            timeslice_ns: Some(self.policy.slice().as_nanos()),
            ..TaskSnapshot::default()
        }
    }

    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, _now: Time) -> Result<(), String> {
        if let Some((tid, bad)) = self.bad_pick {
            return Err(format!(
                "policy picked offline or disallowed {bad:?} for {tid} \
                 (framework rewrote the placement)"
            ));
        }
        let rq = &self.qs[cpu.index()];
        for &(key, seq, tid) in rq.iter() {
            if self.curr[cpu.index()] == Some(tid) {
                return Err(format!("{tid} is both current and queued"));
            }
            if !tasks.contains(tid) {
                return Err(format!("queued {tid} does not exist"));
            }
            match self.slots.get(tid.index()).and_then(|s| s.as_ref()) {
                None => return Err(format!("queued {tid} has no slot")),
                Some(s) if (s.cpu, s.key, s.seq) != (cpu, key, seq) => {
                    return Err(format!(
                        "{tid} slot ({:?},{},{}) disagrees with entry ({:?},{},{})",
                        s.cpu, s.key, s.seq, cpu, key, seq
                    ));
                }
                Some(_) => {}
            }
            if seq >= self.seq {
                return Err(format!(
                    "{tid} seq {seq} from the future (next {})",
                    self.seq
                ));
            }
        }
        if let Some(curr) = self.curr[cpu.index()] {
            if !tasks.contains(curr) {
                return Err(format!("current {curr} does not exist"));
            }
            if let Some(Some(s)) = self.slots.get(curr.index()) {
                return Err(format!(
                    "running {curr} still has a queue slot on {:?}",
                    s.cpu
                ));
            }
        }
        Ok(())
    }

    fn cpu_offline(&mut self, cpu: CpuId) {
        self.online.clear(cpu);
    }

    fn cpu_online(&mut self, cpu: CpuId) {
        self.online.set(cpu);
    }
}

/// Global-arrival-order FIFO (`scx_simple` in FIFO mode): constant key, so
/// the per-CPU dispatch queues degenerate to arrival order; placement
/// prefers the previous CPU when it is free, else the least-loaded CPU.
#[derive(Debug, Default)]
pub struct FifoPolicy;

impl ScxPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "scx-fifo"
    }

    fn select_cpu(
        &mut self,
        ctx: &ScxCtx<'_>,
        tid: Tid,
        prev_cpu: CpuId,
        stats: &mut SelectStats,
    ) -> CpuId {
        let task = ctx.tasks.get(tid);
        if let Some(st) = ctx.cpus.get(prev_cpu.index()) {
            stats.cpus_scanned += 1;
            if st.online && st.load() == 0 && task.allowed_on(prev_cpu) {
                return prev_cpu;
            }
        }
        ctx.least_loaded(task, stats).unwrap_or(prev_cpu)
    }

    fn enqueue(&mut self, _ctx: &ScxCtx<'_>, _tid: Tid, _kind: EnqueueKind) -> u64 {
        0 // constant key: the seq tie-breaker makes the queue FIFO
    }
}

/// Tunables of [`VtimePolicy`] (`battle tune`).
#[derive(Debug, Clone)]
pub struct VtimeParams {
    /// Fixed timeslice the adapter enforces via tick preemption.
    pub slice: Dur,
    /// Sleeper-forgiveness floor: a re-entering task's vtime is raised to
    /// no further than this many (weight-scaled) slices behind the global
    /// clock. Stock `scx_simple` uses one slice.
    pub floor_slices: u64,
}

impl Default for VtimeParams {
    fn default() -> Self {
        VtimeParams {
            slice: Dur::millis(4),
            floor_slices: 1,
        }
    }
}

/// Both vtime knobs are searchable.
impl crate::params::ParamSpace for VtimeParams {
    fn dims() -> Vec<crate::params::Dim> {
        use crate::params::Dim;
        vec![
            Dim::duration("slice", Dur::micros(500), Dur::millis(16), Dur::millis(4)),
            Dim::integer("floor_slices", 1, 8, 1),
        ]
    }

    fn to_vector(&self) -> crate::params::ParamVector {
        crate::params::ParamVector(vec![self.slice.as_nanos() as f64, self.floor_slices as f64])
    }

    fn from_vector(v: &crate::params::ParamVector) -> VtimeParams {
        let d = Self::dims();
        VtimeParams {
            slice: v.dur(0, &d),
            floor_slices: v.int(1, &d),
        }
    }
}

/// Weight-scaled virtual time (`scx_simple` in vtime mode): each task's key
/// advances by `ran × 1024 / weight` while it runs, and sleepers re-enter no
/// further than [`VtimeParams::floor_slices`] slices behind the global
/// clock, so a nice −5 task gets proportionally more CPU without starving
/// nice +5 ones.
#[derive(Debug, Default)]
pub struct VtimePolicy {
    /// Tunables (stock `scx_simple` values by default).
    params: VtimeParams,
    /// Per-task virtual time, indexed by `Tid::index()`.
    vtime: Vec<u64>,
    /// Global virtual clock: the max vtime any task started running with.
    vtime_now: u64,
}

impl VtimePolicy {
    /// A policy with explicit tunables.
    pub fn with_params(params: VtimeParams) -> VtimePolicy {
        VtimePolicy {
            params,
            ..VtimePolicy::default()
        }
    }

    fn vtime_mut(&mut self, tid: Tid) -> &mut u64 {
        if self.vtime.len() <= tid.index() {
            self.vtime.resize(tid.index() + 1, 0);
        }
        &mut self.vtime[tid.index()]
    }
}

impl ScxPolicy for VtimePolicy {
    fn name(&self) -> &'static str {
        "scx-vtime"
    }

    fn slice(&self) -> Dur {
        self.params.slice
    }

    fn select_cpu(
        &mut self,
        ctx: &ScxCtx<'_>,
        tid: Tid,
        prev_cpu: CpuId,
        stats: &mut SelectStats,
    ) -> CpuId {
        ctx.least_loaded(ctx.tasks.get(tid), stats)
            .unwrap_or(prev_cpu)
    }

    fn enqueue(&mut self, ctx: &ScxCtx<'_>, tid: Tid, kind: EnqueueKind) -> u64 {
        let weight = nice_to_weight(ctx.tasks.get(tid).nice);
        let slice_v = calc_delta_fair(self.slice().as_nanos(), weight);
        let floor = self
            .vtime_now
            .saturating_sub(slice_v.saturating_mul(self.params.floor_slices));
        let v = self.vtime_mut(tid);
        if kind == EnqueueKind::New {
            *v = floor; // fresh (or recycled) tasks join at the clock
        } else {
            *v = (*v).max(floor); // long sleepers forgive, but cap the boost
        }
        *v
    }

    fn running(&mut self, _ctx: &ScxCtx<'_>, tid: Tid) {
        let v = *self.vtime_mut(tid);
        self.vtime_now = self.vtime_now.max(v);
    }

    fn stopping(&mut self, ctx: &ScxCtx<'_>, tid: Tid, ran: Dur) {
        let weight = nice_to_weight(ctx.tasks.get(tid).nice);
        *self.vtime_mut(tid) += calc_delta_fair(ran.as_nanos(), weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;
    use crate::task::TaskState;

    fn table_with(n: usize) -> (TaskTable, Vec<Tid>) {
        let mut t = TaskTable::new();
        let tids = (0..n)
            .map(|i| {
                t.insert_with(|tid| {
                    let mut task = Task::new(tid, format!("t{i}"), GroupId::ROOT);
                    task.state = TaskState::Runnable;
                    task
                })
            })
            .collect();
        (t, tids)
    }

    fn audit_all<P: ScxPolicy>(s: &mut ScxSched<P>, tasks: &TaskTable, nr: usize, now: Time) {
        for i in 0..nr {
            s.audit(tasks, CpuId(i as u32), now).expect("audit");
        }
    }

    #[test]
    fn fifo_runs_in_arrival_order() {
        let (mut t, tids) = table_with(3);
        let mut s = ScxSched::new(FifoPolicy, 1);
        let cpu = CpuId(0);
        for (i, &tid) in tids.iter().enumerate() {
            s.enqueue_task(&mut t, cpu, tid, EnqueueKind::New, Time::ZERO);
            assert_eq!(s.nr_queued(cpu), i + 1);
        }
        for &tid in &tids {
            assert_eq!(s.pick_next_task(&mut t, cpu, Time::ZERO), Some(tid));
            s.dequeue_task(&mut t, cpu, tid, DequeueKind::Sleep, Time::ZERO);
        }
        assert_eq!(s.pick_next_task(&mut t, cpu, Time::ZERO), None);
    }

    #[test]
    fn slice_expiry_round_robins() {
        let (mut t, tids) = table_with(2);
        let mut s = ScxSched::new(FifoPolicy, 1);
        let cpu = CpuId(0);
        for &tid in &tids {
            s.enqueue_task(&mut t, cpu, tid, EnqueueKind::New, Time::ZERO);
        }
        let first = s.pick_next_task(&mut t, cpu, Time::ZERO).unwrap();
        assert_eq!(
            s.task_tick(&mut t, cpu, first, Time::ZERO + Dur::millis(1)),
            Preempt::No,
            "slice not yet expired"
        );
        let late = Time::ZERO + FifoPolicy.slice();
        assert_eq!(
            s.task_tick(&mut t, cpu, first, late),
            Preempt::Yes(PreemptCause::SliceExpired)
        );
        s.put_prev_task(&mut t, cpu, first, late);
        let second = s.pick_next_task(&mut t, cpu, late).unwrap();
        assert_ne!(second, first, "round robin after slice expiry");
        audit_all(&mut s, &t, 1, late);
    }

    #[test]
    fn vtime_interleaves_cpu_hog_with_equal_weight_peer() {
        let (mut t, tids) = table_with(2);
        let mut s = ScxSched::new(VtimePolicy::default(), 1);
        let cpu = CpuId(0);
        let mut now = Time::ZERO;
        for &tid in &tids {
            s.enqueue_task(&mut t, cpu, tid, EnqueueKind::New, now);
        }
        // Run each for a full slice in turn; vtime keys must alternate the
        // two equal-weight tasks rather than re-running the same one.
        let mut order = Vec::new();
        for _ in 0..4 {
            let tid = s.pick_next_task(&mut t, cpu, now).unwrap();
            order.push(tid);
            now += Dur::millis(4);
            s.put_prev_task(&mut t, cpu, tid, now);
        }
        assert_eq!(order[0], order[2]);
        assert_eq!(order[1], order[3]);
        assert_ne!(order[0], order[1], "equal weights alternate");
        audit_all(&mut s, &t, 1, now);
    }

    #[test]
    fn vtime_weighs_heavier_tasks_ahead() {
        let (mut t, tids) = table_with(2);
        t.get_mut(tids[0]).nice = -5; // weight 3121
        let mut s = ScxSched::new(VtimePolicy::default(), 1);
        let cpu = CpuId(0);
        let mut now = Time::ZERO;
        for &tid in &tids {
            s.enqueue_task(&mut t, cpu, tid, EnqueueKind::New, now);
        }
        // Over 12 slices the nice −5 task should run clearly more often.
        let mut runs = [0usize; 2];
        for _ in 0..12 {
            let tid = s.pick_next_task(&mut t, cpu, now).unwrap();
            runs[if tid == tids[0] { 0 } else { 1 }] += 1;
            now += Dur::millis(4);
            s.put_prev_task(&mut t, cpu, tid, now);
        }
        assert!(
            runs[0] > runs[1],
            "heavy task ran {} vs light {}",
            runs[0],
            runs[1]
        );
        assert!(runs[1] > 0, "light task must not starve");
    }

    #[test]
    fn dequeue_handles_running_and_queued_tasks() {
        let (mut t, tids) = table_with(2);
        let mut s = ScxSched::new(FifoPolicy, 1);
        let cpu = CpuId(0);
        for &tid in &tids {
            s.enqueue_task(&mut t, cpu, tid, EnqueueKind::New, Time::ZERO);
        }
        let curr = s.pick_next_task(&mut t, cpu, Time::ZERO).unwrap();
        // Dequeue the running task (kernel sleep path) and a queued one.
        s.dequeue_task(&mut t, cpu, curr, DequeueKind::Sleep, Time::ZERO);
        assert_eq!(s.nr_queued(cpu), 1);
        s.dequeue_task(&mut t, cpu, tids[1], DequeueKind::Sleep, Time::ZERO);
        assert_eq!(s.nr_queued(cpu), 0);
        audit_all(&mut s, &t, 1, Time::ZERO);
    }

    #[test]
    fn kernel_threads_preempt_wakeups_do_not() {
        let (mut t, tids) = table_with(3);
        t.get_mut(tids[2]).kernel_thread = true;
        let mut s = ScxSched::new(FifoPolicy, 1);
        let cpu = CpuId(0);
        s.enqueue_task(&mut t, cpu, tids[0], EnqueueKind::New, Time::ZERO);
        s.pick_next_task(&mut t, cpu, Time::ZERO).unwrap();
        assert_eq!(
            s.enqueue_task(&mut t, cpu, tids[1], EnqueueKind::Wakeup, Time::ZERO),
            Preempt::No
        );
        assert_eq!(
            s.enqueue_task(&mut t, cpu, tids[2], EnqueueKind::Wakeup, Time::ZERO),
            Preempt::Yes(PreemptCause::KernelThread)
        );
    }

    #[test]
    fn dispatch_steals_from_busiest_cpu() {
        let (mut t, tids) = table_with(3);
        let mut s = ScxSched::new(FifoPolicy, 2);
        for &tid in &tids {
            s.enqueue_task(&mut t, CpuId(0), tid, EnqueueKind::New, Time::ZERO);
        }
        let mut stats = SelectStats::default();
        assert!(s.idle_balance(&mut t, CpuId(1), Time::ZERO, &mut stats));
        assert!(stats.cpus_scanned > 0);
        assert_eq!(s.nr_queued(CpuId(1)), 1);
        assert_eq!(s.nr_queued(CpuId(0)), 2);
        assert_eq!(t.get(s.queued_tids(CpuId(1))[0]).cpu, CpuId(1));
        // The stolen task is the queue head: first arrival.
        assert_eq!(s.queued_tids(CpuId(1)), vec![tids[0]]);
        audit_all(&mut s, &t, 2, Time::ZERO);
    }

    #[test]
    fn offline_cpus_are_never_selected() {
        let (t, tids) = table_with(1);
        let mut s = ScxSched::new(FifoPolicy, 2);
        s.cpu_offline(CpuId(0));
        let mut stats = SelectStats::default();
        let cpu = s.select_task_rq(&t, tids[0], WakeKind::New, CpuId(0), Time::ZERO, &mut stats);
        assert_eq!(cpu, Ok(CpuId(1)));
        s.cpu_online(CpuId(0));
    }

    #[test]
    fn unplaceable_task_is_an_error_not_a_panic() {
        let (mut t, tids) = table_with(1);
        // Pin to CPU 1, then hotplug it out: no legal placement remains.
        t.get_mut(tids[0]).affinity = Some(CpuMask::single(CpuId(1)));
        let mut s = ScxSched::new(FifoPolicy, 2);
        s.cpu_offline(CpuId(1));
        let mut stats = SelectStats::default();
        let got = s.select_task_rq(&t, tids[0], WakeKind::New, CpuId(0), Time::ZERO, &mut stats);
        assert_eq!(got, Err(SelectError { tid: tids[0] }));
    }
}
