//! EEVDF scheduling class — the algorithm that replaced CFS's pick logic in
//! Linux 6.6 (Stoica & Abdel-Wahab's Earliest Eligible Virtual Deadline
//! First, as reworked by Peter Zijlstra).
//!
//! The model, in the simulator's integer arithmetic:
//!
//! * Every runnable entity has a **vruntime** `v_i` advancing at
//!   `delta × NICE_0_LOAD / weight` while it runs (the same weighting rule
//!   as CFS, via [`sched_api::weights::calc_delta_fair`]).
//! * The runqueue's **virtual time** `V` is the weight-averaged vruntime
//!   of all queued + running entities: `V = Σ v_i·w_i / Σ w_i`. The rq
//!   tracks `Σ v_i·w_i` (`vw_sum`, i128) and `Σ w_i` (`weight_sum`)
//!   incrementally, so `V` never needs recomputing from scratch.
//! * An entity's **lag** is `(V − v_i)·w_i`: how much service it is owed
//!   (positive) or has overdrawn (negative). Summed over the whole rq the
//!   lag telescopes to `V·W − Σ v_i·w_i ≈ 0` — the conservation law
//!   [`Eevdf::audit`] pins in strict mode.
//! * An entity is **eligible** iff `v_i ≤ V`, tested without division as
//!   `v_i·W ≤ Σ v_j·w_j` in i128 (exact, deterministic).
//! * Each entity carries a **virtual deadline** `d_i = v_i + vslice_i`
//!   where `vslice = calc_delta_fair(slice, w)`; pick = the *eligible*
//!   entity with the earliest virtual deadline (ties broken by vruntime,
//!   then tid, so runs are reproducible).
//! * On dequeue (sleep/migration) the entity's lag is preserved — clamped
//!   to ±2 vslices like Linux's `ENQUEUE_PLACE_DEADLINE` path — and on
//!   re-enqueue it is placed at `V − lag`, so sleepers return neither
//!   punished nor privileged beyond their owed service.
//!
//! Placement and balancing are deliberately simple (least-loaded placement,
//! single-task idle stealing, the [`SimpleRR`]-style retry-on-tick), so the
//! scheduling *policy* differences against CFS/ULE in the tournament come
//! from the pick rule, not from a second balancer design. Both read the
//! shared [`sched_api::Occupancy`] index, which every queue mutation keeps
//! current, instead of scanning every CPU.
//!
//! [`SimpleRR`]: https://docs.rs/kernel (the reference round-robin class)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sched_api::weights::{calc_delta_fair, nice_to_prio, nice_to_weight};
use sched_api::{
    DequeueKind, EnqueueKind, Occupancy, Preempt, PreemptCause, Scheduler, SelectError,
    SelectStats, TaskSnapshot, TaskTable, Tid, Timeline, WakeKind,
};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};

/// Tunables of the EEVDF class.
#[derive(Debug, Clone)]
pub struct EevdfParams {
    /// Base request size (wall-clock): the slice an entity asks for per
    /// deadline period. Linux's `sysctl_sched_base_slice` analogue.
    pub slice: Dur,
    /// Lag preserved across sleep is clamped to ± this many vslices.
    pub lag_clamp_slices: u32,
}

impl Default for EevdfParams {
    fn default() -> Self {
        EevdfParams {
            slice: Dur::millis(3),
            lag_clamp_slices: 2,
        }
    }
}

/// Both EEVDF tunables are searchable (`battle tune`): the base request
/// size and the sleeper lag clamp.
impl sched_api::params::ParamSpace for EevdfParams {
    fn dims() -> Vec<sched_api::params::Dim> {
        use sched_api::params::Dim;
        vec![
            Dim::duration("slice", Dur::micros(500), Dur::millis(24), Dur::millis(3)),
            Dim::integer("lag_clamp_slices", 0, 8, 2),
        ]
    }

    fn to_vector(&self) -> sched_api::params::ParamVector {
        sched_api::params::ParamVector(vec![
            self.slice.as_nanos() as f64,
            self.lag_clamp_slices as f64,
        ])
    }

    fn from_vector(v: &sched_api::params::ParamVector) -> EevdfParams {
        let d = Self::dims();
        EevdfParams {
            slice: v.dur(0, &d),
            lag_clamp_slices: v.int(1, &d) as u32,
        }
    }
}

/// Per-entity scheduler state (side table indexed by tid, like CFS's
/// `sched_entity` embedded in `task_struct`).
#[derive(Debug, Clone)]
struct Ent {
    /// Load weight, from nice at (re-)enqueue.
    weight: u64,
    /// Virtual runtime, ns-scaled. Signed: placement at `V − lag` may land
    /// below zero early in a run (Linux's vruntime is `u64` with wrap
    /// semantics; signed arithmetic is the simulator-friendly equivalent).
    vruntime: i64,
    /// Virtual deadline: `vruntime + vslice` at the last renewal.
    deadline: i64,
    /// Lag preserved across dequeue, clamped; `(V − v)` in virtual ns.
    vlag: i64,
}

impl Ent {
    fn new(weight: u64) -> Ent {
        Ent {
            weight,
            vruntime: 0,
            deadline: 0,
            vlag: 0,
        }
    }
}

/// One per-CPU EEVDF runqueue.
#[derive(Debug, Default)]
struct Rq {
    /// Queued entities ordered by (deadline, vruntime, tid), earliest
    /// deadline first, so the pick and the idle steal each take the first
    /// entry they accept in one walk ([`Timeline::take_first_where`]). The
    /// running entity is *not* queued but stays in the sums (rq-resident
    /// convention, §3 of the paper).
    queue: Timeline<(i64, i64, Tid)>,
    /// Currently running entity.
    curr: Option<Tid>,
    /// When `curr` last had its vruntime brought up to date.
    exec_start: Time,
    /// `Σ w_i` over queued + running.
    weight_sum: u64,
    /// `Σ v_i·w_i` over queued + running (exact, incremental).
    vw_sum: i128,
    /// Entities accounted here, including the running one.
    nr: usize,
    /// Virtual time the rq last reached; continues placement after the rq
    /// drains (so a fresh wakeup on an idle CPU doesn't restart at 0).
    vbase: i64,
}

impl Rq {
    /// Current virtual time `V = Σ v·w / Σ w`, or the remembered base when
    /// the rq is empty.
    fn vtime(&self) -> i64 {
        if self.weight_sum == 0 {
            self.vbase
        } else {
            (self.vw_sum / self.weight_sum as i128) as i64
        }
    }

    fn account_add(&mut self, v: i64, w: u64) {
        self.vw_sum += v as i128 * w as i128;
        self.weight_sum += w;
        self.nr += 1;
        self.vbase = self.vtime();
    }

    fn account_remove(&mut self, v: i64, w: u64) {
        self.vbase = self.vtime();
        self.vw_sum -= v as i128 * w as i128;
        self.weight_sum -= w;
        self.nr -= 1;
    }
}

/// `true` if `v` is eligible on a rq with these sums (`v ≤ V = Σ v·w /
/// Σ w`), tested without division; any `v` is eligible on an empty rq.
fn eligible(v: i64, weight_sum: u64, vw_sum: i128) -> bool {
    weight_sum == 0 || v as i128 * weight_sum as i128 <= vw_sum
}

/// The EEVDF scheduling class; see the module docs for the model.
pub struct Eevdf {
    rqs: Vec<Rq>,
    /// Waiting counts, running flags and online/idle/has-waiters masks,
    /// mirrored from `rqs` after every mutation; placement and idle steal
    /// read it instead of scanning.
    occ: Occupancy,
    /// Per-task entity state, indexed by tid slot.
    ents: Vec<Option<Ent>>,
    params: EevdfParams,
}

impl Eevdf {
    /// One runqueue per CPU of `topo`, default parameters.
    pub fn new(topo: &Topology) -> Eevdf {
        Eevdf::with_params(topo, EevdfParams::default())
    }

    /// One runqueue per CPU of `topo` with explicit tunables.
    pub fn with_params(topo: &Topology, params: EevdfParams) -> Eevdf {
        Eevdf {
            rqs: (0..topo.nr_cpus()).map(|_| Rq::default()).collect(),
            occ: Occupancy::new(topo.nr_cpus()),
            ents: Vec::new(),
            params,
        }
    }

    fn ent(&self, tid: Tid) -> &Ent {
        self.ents[tid.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("no eevdf entity for {tid}"))
    }

    fn ent_mut(&mut self, tid: Tid) -> &mut Ent {
        self.ents[tid.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no eevdf entity for {tid}"))
    }

    /// Mirror `cpu`'s queue length and running flag into the index.
    fn sync(&mut self, cpu: CpuId) {
        let rq = &self.rqs[cpu.index()];
        self.occ.set(cpu, rq.queue.len(), rq.curr.is_some());
    }

    /// Virtual slice for `weight`: the wall-clock slice weighted like
    /// vruntime progression.
    fn vslice(&self, weight: u64) -> i64 {
        calc_delta_fair(self.params.slice.as_nanos(), weight) as i64
    }

    /// Bring `curr`'s vruntime (and the rq sums) up to `now`.
    fn update_curr(&mut self, cpu: CpuId, now: Time) {
        let rq = &mut self.rqs[cpu.index()];
        let Some(curr) = rq.curr else { return };
        let delta = now.saturating_since(rq.exec_start);
        rq.exec_start = now;
        if delta.is_zero() {
            return;
        }
        let ent = self.ents[curr.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("running {curr} has no entity"));
        let w = ent.weight;
        let dv = calc_delta_fair(delta.as_nanos(), w) as i64;
        ent.vruntime += dv;
        self.rqs[cpu.index()].vw_sum += dv as i128 * w as i128;
    }

    /// Place an entity on `cpu` at `V − lag` and give it a fresh deadline.
    fn place(&mut self, cpu: CpuId, tid: Tid, preserve_lag: bool) {
        let vtime = self.rqs[cpu.index()].vtime();
        let clamp_slices = self.params.lag_clamp_slices as i64;
        let ent = self.ent(tid);
        let vslice = self.vslice(ent.weight);
        let lag = if preserve_lag {
            ent.vlag
                .clamp(-clamp_slices * vslice, clamp_slices * vslice)
        } else {
            0
        };
        let ent = self.ent_mut(tid);
        ent.vruntime = vtime - lag;
        ent.deadline = ent.vruntime + vslice;
    }

    /// Remove a queued-or-running entity from `cpu`'s rq, preserving its
    /// clamped lag for the next placement.
    fn remove_from_rq(&mut self, cpu: CpuId, tid: Tid, now: Time) {
        if self.rqs[cpu.index()].curr != Some(tid) {
            let ent = self.ent(tid);
            let key = (ent.deadline, ent.vruntime, tid);
            let had = self.rqs[cpu.index()].queue.remove(&key);
            debug_assert!(had, "{tid} not queued on {cpu:?}");
        }
        self.depart(cpu, tid, now);
    }

    /// Account `tid`, the running entity or one already taken off the
    /// queue, out of `cpu`'s rq and record its lag. The running entity's
    /// vruntime is brought up to date first so the recorded lag reflects
    /// the service actually delivered up to `now`.
    fn depart(&mut self, cpu: CpuId, tid: Tid, now: Time) {
        self.update_curr(cpu, now);
        let vtime = self.rqs[cpu.index()].vtime();
        let (v, w) = {
            let ent = self.ent_mut(tid);
            ent.vlag = vtime - ent.vruntime;
            (ent.vruntime, ent.weight)
        };
        let rq = &mut self.rqs[cpu.index()];
        if rq.curr == Some(tid) {
            rq.curr = None;
        }
        rq.account_remove(v, w);
        self.sync(cpu);
    }
}

impl Scheduler for Eevdf {
    fn name(&self) -> &'static str {
        "eevdf"
    }

    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        _kind: WakeKind,
        _waking_cpu: CpuId,
        _now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        self.occ
            .least_loaded(tasks.get(tid), stats)
            .ok_or(SelectError { tid })
    }

    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt {
        let task = tasks.get(tid);
        let weight = nice_to_weight(task.nice);
        let kernel_thread = task.kernel_thread;
        if self.ents.len() < tasks.slab_len() {
            self.ents.resize(tasks.slab_len(), None);
        }
        let slot = &mut self.ents[tid.index()];
        match slot {
            Some(ent) => ent.weight = weight,
            None => *slot = Some(Ent::new(weight)),
        }
        // New tasks start with zero lag; sleepers and migrated tasks keep
        // the (clamped) lag recorded at dequeue.
        self.place(cpu, tid, kind != EnqueueKind::New);
        let (v, d) = {
            let ent = self.ent(tid);
            (ent.vruntime, ent.deadline)
        };
        let rq = &mut self.rqs[cpu.index()];
        let fresh = rq.queue.insert((d, v, tid));
        debug_assert!(fresh, "{tid} already queued on {cpu:?}");
        rq.account_add(v, weight);
        self.sync(cpu);

        // Wakeup preemption: the waking entity must be eligible *and* beat
        // the running one's virtual deadline. Balancer moves never preempt.
        if kind == EnqueueKind::Migrate {
            return Preempt::No;
        }
        let Some(curr) = self.rqs[cpu.index()].curr else {
            return Preempt::No;
        };
        self.update_curr(cpu, now);
        let rq = &self.rqs[cpu.index()];
        if eligible(v, rq.weight_sum, rq.vw_sum) && d < self.ent(curr).deadline {
            if kernel_thread {
                return Preempt::Yes(PreemptCause::KernelThread);
            }
            return Preempt::Yes(PreemptCause::Wakeup);
        }
        Preempt::No
    }

    fn dequeue_task(
        &mut self,
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        now: Time,
    ) {
        self.remove_from_rq(cpu, tid, now);
    }

    fn yield_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        let Some(curr) = self.rqs[cpu.index()].curr else {
            return;
        };
        self.update_curr(cpu, now);
        // A yield forfeits the rest of the request: push the deadline one
        // full vslice past the current vruntime so waiters go first.
        let (v, d) = {
            let vslice = self.vslice(self.ent(curr).weight);
            let ent = self.ent_mut(curr);
            ent.deadline = ent.vruntime + vslice;
            (ent.vruntime, ent.deadline)
        };
        let rq = &mut self.rqs[cpu.index()];
        rq.curr = None;
        let fresh = rq.queue.insert((d, v, curr));
        debug_assert!(fresh);
        self.sync(cpu);
    }

    fn pick_next_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        debug_assert!(self.rqs[cpu.index()].curr.is_none(), "pick with curr");
        // Earliest eligible virtual deadline first. The queue is deadline-
        // ordered, so the first entity passing the eligibility test wins;
        // the minimum-vruntime entity is always eligible, so a non-empty
        // queue always yields a pick.
        let rq = &mut self.rqs[cpu.index()];
        let (weight_sum, vw_sum) = (rq.weight_sum, rq.vw_sum);
        let (_, _, tid) = rq
            .queue
            .take_first_where(|&(_, v, _)| eligible(v, weight_sum, vw_sum))?;
        rq.curr = Some(tid);
        rq.exec_start = now;
        self.sync(cpu);
        Some(tid)
    }

    fn put_prev_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        debug_assert_eq!(self.rqs[cpu.index()].curr, Some(tid));
        self.update_curr(cpu, now);
        let (v, d) = {
            let vslice = self.vslice(self.ent(tid).weight);
            let ent = self.ent_mut(tid);
            if ent.vruntime >= ent.deadline {
                // Request exhausted: renew the deadline for the next slice.
                ent.deadline = ent.vruntime + vslice;
            }
            (ent.vruntime, ent.deadline)
        };
        let rq = &mut self.rqs[cpu.index()];
        rq.curr = None;
        let fresh = rq.queue.insert((d, v, tid));
        debug_assert!(fresh);
        self.sync(cpu);
    }

    fn task_tick(&mut self, _tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        debug_assert_eq!(self.rqs[cpu.index()].curr, Some(curr));
        self.update_curr(cpu, now);
        let ent = self.ent(curr);
        if ent.vruntime >= ent.deadline {
            if !self.rqs[cpu.index()].queue.is_empty() {
                return Preempt::Yes(PreemptCause::SliceExpired);
            }
            // Alone on the CPU: renew in place so the deadline keeps
            // tracking the request instead of firing every tick.
            let vslice = self.vslice(ent.weight);
            let ent = self.ent_mut(curr);
            ent.deadline = ent.vruntime + vslice;
        }
        Preempt::No
    }

    fn task_fork(&mut self, _tasks: &TaskTable, _child: Tid, _parent: Option<Tid>, _now: Time) {
        // A child starts with zero lag at its first enqueue; nothing to
        // inherit (EEVDF has no ULE-style sleep/run history).
    }

    fn task_dead(&mut self, _tasks: &TaskTable, tid: Tid, _now: Time) {
        if let Some(slot) = self.ents.get_mut(tid.index()) {
            *slot = None;
        }
    }

    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        // Like the reference class: an idle CPU retries a steal each tick,
        // so work unpinned after it went idle is still picked up.
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
        if !self.occ.online().contains(cpu) {
            return false;
        }
        // Steal one waiting task from the online CPU with the most waiters.
        let Some(victim) = self.occ.busiest(cpu, stats) else {
            return false;
        };
        // First queued (earliest-deadline) task allowed on the thief; the
        // running task is never migrated.
        let stolen = self.rqs[victim.index()]
            .queue
            .take_first_where(|&(_, _, t)| tasks.get(t).allowed_on(cpu));
        let Some((_, _, tid)) = stolen else {
            return false;
        };
        self.depart(victim, tid, now);
        tasks.get_mut(tid).cpu = cpu;
        self.place(cpu, tid, true);
        let (v, d, w) = {
            let ent = self.ent(tid);
            (ent.vruntime, ent.deadline, ent.weight)
        };
        let rq = &mut self.rqs[cpu.index()];
        let fresh = rq.queue.insert((d, v, tid));
        debug_assert!(fresh);
        rq.account_add(v, w);
        self.sync(cpu);
        true
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        self.rqs[cpu.index()].nr
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        // A push loop: `extend` from the deque's iterator reserves first,
        // which costs more than the one or two pushes of a typical call.
        for &(_, _, t) in self.rqs[cpu.index()].queue.iter() {
            out.push(t);
        }
    }

    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        let Some(Some(ent)) = self.ents.get(tid.index()) else {
            return TaskSnapshot::default();
        };
        TaskSnapshot {
            vruntime_ns: Some(ent.vruntime.max(0) as u64),
            prio: Some(nice_to_prio(tasks.get(tid).nice)),
            timeslice_ns: Some(self.params.slice.as_nanos()),
            ..TaskSnapshot::default()
        }
    }

    /// EEVDF's SchedSan self-audit:
    ///
    /// 1. **Accounting consistency** — the incremental `Σ w` / `Σ v·w` /
    ///    `nr` exactly match a recomputation from the queue + curr.
    /// 2. **Deadline ordering** — the queue is in key order, every queued
    ///    entity's deadline lies at or beyond its vruntime, and its queue
    ///    key mirrors its entity state (a divergence would silently
    ///    corrupt pick order).
    /// 3. **Lag conservation** — `Σ lag = V·W − Σ v·w` stays within one
    ///    rounding unit of zero (`|Σ lag| < W`), the invariant that makes
    ///    "eligible iff v ≤ V" a fair admission test.
    /// 4. **Occupancy** — the index row that steers placement and stealing
    ///    matches the queue and `curr` ([`Occupancy::audit`]).
    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, _now: Time) -> Result<(), String> {
        let rq = &self.rqs[cpu.index()];
        let mut nr = 0usize;
        let mut wsum = 0u64;
        let mut vwsum = 0i128;
        rq.queue.audit_each(|&(d, v, tid)| {
            if !tasks.contains(tid) {
                return Err(format!("queued {tid} does not exist"));
            }
            if rq.curr == Some(tid) {
                return Err(format!("{tid} is both current and queued"));
            }
            let Some(Some(ent)) = self.ents.get(tid.index()) else {
                return Err(format!("queued {tid} has no entity state"));
            };
            if ent.vruntime != v || ent.deadline != d {
                return Err(format!(
                    "{tid} queue key ({d},{v}) diverged from entity (d={}, v={})",
                    ent.deadline, ent.vruntime
                ));
            }
            if d < v {
                return Err(format!(
                    "{tid} virtual deadline {d} precedes its vruntime {v}"
                ));
            }
            nr += 1;
            wsum += ent.weight;
            vwsum += v as i128 * ent.weight as i128;
            Ok(())
        })?;
        if let Some(curr) = rq.curr {
            let Some(Some(ent)) = self.ents.get(curr.index()) else {
                return Err(format!("running {curr} has no entity state"));
            };
            nr += 1;
            wsum += ent.weight;
            vwsum += ent.vruntime as i128 * ent.weight as i128;
        }
        if nr != rq.nr {
            return Err(format!("nr {} != recomputed {}", rq.nr, nr));
        }
        if wsum != rq.weight_sum {
            return Err(format!(
                "weight_sum {} != recomputed {}",
                rq.weight_sum, wsum
            ));
        }
        if vwsum != rq.vw_sum {
            return Err(format!("vw_sum {} != recomputed {}", rq.vw_sum, vwsum));
        }
        // Lag conservation: V is the floored average, so the total lag
        // V·W − Σ v·w is the division remainder — in [−(W−1), 0] exactly.
        if rq.weight_sum > 0 {
            let v = rq.vw_sum / rq.weight_sum as i128;
            let total_lag = v * rq.weight_sum as i128 - rq.vw_sum;
            if total_lag.unsigned_abs() >= rq.weight_sum as u128 {
                return Err(format!(
                    "lag conservation violated: Σ lag = {total_lag}, |Σ lag| must be < W = {}",
                    rq.weight_sum
                ));
            }
        }
        self.occ.audit(cpu, rq.queue.len(), rq.curr.is_some())
    }

    fn cpu_offline(&mut self, cpu: CpuId) {
        self.occ.set_online(cpu, false);
    }

    fn cpu_online(&mut self, cpu: CpuId) {
        self.occ.set_online(cpu, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_api::{GroupId, Task, TaskState};

    fn table_with(n: usize, nice: &[i32]) -> (TaskTable, Vec<Tid>) {
        let mut t = TaskTable::new();
        let tids = (0..n)
            .map(|i| {
                let tid = t.insert_with(|tid| Task::new(tid, format!("t{i}"), GroupId::ROOT));
                t.get_mut(tid).nice = nice.get(i).copied().unwrap_or(0);
                t.get_mut(tid).state = TaskState::Runnable;
                tid
            })
            .collect();
        (t, tids)
    }

    fn enq(s: &mut Eevdf, t: &mut TaskTable, tid: Tid, at: Time) {
        s.enqueue_task(t, CpuId(0), tid, EnqueueKind::New, at);
    }

    #[test]
    fn params_vector_roundtrip() {
        use sched_api::params::ParamSpace;
        let v = EevdfParams::default().to_vector();
        assert_eq!(v.quantized(&EevdfParams::dims()), v);
        let p = EevdfParams::from_vector(&v);
        assert_eq!(p.slice, Dur::millis(3));
        assert_eq!(p.lag_clamp_slices, 2);
        assert_eq!(p.to_vector(), v);
    }

    #[test]
    fn pick_is_earliest_eligible_deadline() {
        let topo = Topology::single_core();
        let mut s = Eevdf::new(&topo);
        let (mut t, tids) = table_with(3, &[0, 0, 0]);
        for &tid in &tids {
            enq(&mut s, &mut t, tid, Time::ZERO);
        }
        // Equal weights, zero lag: all placed at V with identical
        // deadlines — tid breaks the tie deterministically.
        let first = s.pick_next_task(&mut t, CpuId(0), Time::ZERO).unwrap();
        assert_eq!(first, tids[0]);
        assert_eq!(s.nr_queued(CpuId(0)), 3, "running task stays counted");
        s.audit(&t, CpuId(0), Time::ZERO).unwrap();
    }

    #[test]
    fn expired_current_gives_way_on_tick() {
        let topo = Topology::single_core();
        let mut s = Eevdf::new(&topo);
        let (mut t, tids) = table_with(2, &[0, 0]);
        enq(&mut s, &mut t, tids[0], Time::ZERO);
        enq(&mut s, &mut t, tids[1], Time::ZERO);
        let curr = s.pick_next_task(&mut t, CpuId(0), Time::ZERO).unwrap();
        // Run one full slice: the deadline expires and, with a waiter
        // queued, the tick demands a reschedule.
        let after = Time::ZERO + EevdfParams::default().slice;
        assert_eq!(
            s.task_tick(&mut t, CpuId(0), curr, after),
            Preempt::Yes(PreemptCause::SliceExpired)
        );
        s.put_prev_task(&mut t, CpuId(0), curr, after);
        let next = s.pick_next_task(&mut t, CpuId(0), after).unwrap();
        assert_ne!(next, curr, "the waiter must run after a full slice");
        s.audit(&t, CpuId(0), after).unwrap();
    }

    #[test]
    fn heavier_entity_runs_more() {
        let topo = Topology::single_core();
        let mut s = Eevdf::new(&topo);
        // nice −5 (weight 3121) vs nice 0 (weight 1024).
        let (mut t, tids) = table_with(2, &[-5, 0]);
        enq(&mut s, &mut t, tids[0], Time::ZERO);
        enq(&mut s, &mut t, tids[1], Time::ZERO);
        let mut service = [Dur::ZERO, Dur::ZERO];
        let mut now = Time::ZERO;
        let step = Dur::millis(1);
        let mut curr = s.pick_next_task(&mut t, CpuId(0), now).unwrap();
        for _ in 0..200 {
            now += step;
            service[if curr == tids[0] { 0 } else { 1 }] += step;
            if let Preempt::Yes(_) = s.task_tick(&mut t, CpuId(0), curr, now) {
                s.put_prev_task(&mut t, CpuId(0), curr, now);
                curr = s.pick_next_task(&mut t, CpuId(0), now).unwrap();
            }
            s.audit(&t, CpuId(0), now).unwrap();
        }
        let ratio = service[0].as_nanos() as f64 / service[1].as_nanos() as f64;
        // Ideal 3121/1024 ≈ 3.05; slice granularity leaves tolerance.
        assert!(
            (2.0..4.5).contains(&ratio),
            "service ratio {ratio} not near the 3.05 weight ratio \
             ({:?} vs {:?})",
            service[0],
            service[1]
        );
    }

    #[test]
    fn sleeper_lag_is_preserved_and_clamped() {
        let topo = Topology::single_core();
        let mut s = Eevdf::new(&topo);
        let (mut t, tids) = table_with(2, &[0, 0]);
        enq(&mut s, &mut t, tids[0], Time::ZERO);
        enq(&mut s, &mut t, tids[1], Time::ZERO);
        let curr = s.pick_next_task(&mut t, CpuId(0), Time::ZERO).unwrap();
        // The non-running task sleeps: it leaves with non-negative lag.
        let sleeper = if curr == tids[0] { tids[1] } else { tids[0] };
        let now = Time::ZERO + Dur::millis(2);
        s.dequeue_task(&mut t, CpuId(0), sleeper, DequeueKind::Sleep, now);
        let lag = s.ent(sleeper).vlag;
        assert!(lag >= 0, "a waiter that never ran cannot owe service");
        // On wakeup it is placed at V − lag, i.e. not behind where pure
        // re-initialisation would put it.
        s.enqueue_task(&mut t, CpuId(0), sleeper, EnqueueKind::Wakeup, now);
        let vslice = s.vslice(1024);
        let v = s.ent(sleeper).vruntime;
        let vt = s.rqs[0].vtime();
        assert!(v <= vt, "positive lag places the sleeper at or before V");
        assert!(vt - v <= 2 * vslice, "placement respects the lag clamp");
        s.audit(&t, CpuId(0), now).unwrap();
    }

    #[test]
    fn offline_cpu_receives_no_placements() {
        let topo = Topology::flat(2);
        let mut s = Eevdf::new(&topo);
        let (mut t, tids) = table_with(1, &[0]);
        s.cpu_offline(CpuId(1));
        let mut stats = SelectStats::default();
        let cpu = s.select_task_rq(&t, tids[0], WakeKind::New, CpuId(0), Time::ZERO, &mut stats);
        assert_eq!(cpu, Ok(CpuId(0)));
        assert_eq!(stats.cpus_scanned, 1, "offline CPU is not even scanned");
        s.cpu_online(CpuId(1));
        let cpu = s.select_task_rq(&t, tids[0], WakeKind::New, CpuId(0), Time::ZERO, &mut stats);
        let _ = cpu;
        assert_eq!(stats.cpus_scanned, 1 + 2);
        let _ = &mut t;
    }

    #[test]
    fn audit_catches_a_desynced_occupancy_row() {
        let topo = Topology::flat(2);
        let mut s = Eevdf::new(&topo);
        let (mut t, tids) = table_with(2, &[0, 0]);
        for &tid in &tids {
            enq(&mut s, &mut t, tid, Time::ZERO);
        }
        s.pick_next_task(&mut t, CpuId(0), Time::ZERO).unwrap();
        s.audit(&t, CpuId(0), Time::ZERO).unwrap();
        // CPU 0 runs one task with one waiting: every other row is a desync.
        for (waiting, running) in [(0, true), (2, true), (1, false), (0, false)] {
            s.occ.set(CpuId(0), waiting, running);
            let err = s.audit(&t, CpuId(0), Time::ZERO).unwrap_err();
            assert!(err.contains("occupancy"), "{err}");
        }
        s.occ.set(CpuId(0), 1, true);
        s.audit(&t, CpuId(0), Time::ZERO).unwrap();
        // Marked offline while it still holds work.
        s.occ.set_online(CpuId(0), false);
        let err = s.audit(&t, CpuId(0), Time::ZERO).unwrap_err();
        assert!(err.contains("offline"), "{err}");
    }

    #[test]
    fn idle_balance_steals_earliest_deadline_waiter() {
        let topo = Topology::flat(2);
        let mut s = Eevdf::new(&topo);
        let (mut t, tids) = table_with(3, &[0, 0, 0]);
        for &tid in &tids {
            s.enqueue_task(&mut t, CpuId(0), tid, EnqueueKind::New, Time::ZERO);
            t.get_mut(tid).cpu = CpuId(0);
        }
        let mut stats = SelectStats::default();
        assert!(s.idle_balance(&mut t, CpuId(1), Time::ZERO, &mut stats));
        assert_eq!(s.nr_queued(CpuId(0)), 2);
        assert_eq!(s.nr_queued(CpuId(1)), 1);
        s.audit(&t, CpuId(0), Time::ZERO).unwrap();
        s.audit(&t, CpuId(1), Time::ZERO).unwrap();
        let moved: Vec<Tid> = s.queued_tids(CpuId(1));
        assert_eq!(t.get(moved[0]).cpu, CpuId(1), "migration updates Task::cpu");
    }
}
