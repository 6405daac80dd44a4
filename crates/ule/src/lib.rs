//! The FreeBSD ULE scheduler, as ported to Linux by the paper (§2.2, §3).
//!
//! * **Per-core scheduling** — two runqueues per CPU: *interactive* and
//!   *batch*. Threads are classified by the interactivity penalty
//!   ([`interactivity`]); interactive threads get **absolute** priority:
//!   the batch queue is searched only when the interactive queue is empty,
//!   so batch threads can starve for an unbounded amount of time (§5.1).
//! * **Timeslices** — 10 stathz ticks (≈78 ms) divided by the CPU's load,
//!   floored at one tick (≈7.87 ms). No wakeup preemption: only kernel
//!   threads may preempt ("full preemption is disabled").
//! * **Placement** (`sched_pickcpu`) — cache-affinity shortcut, then a
//!   search for a CPU whose most-urgent waiting priority is lower than the
//!   thread's (first within the affine topology level, then machine-wide),
//!   finally the least-loaded CPU. The paper measures these scans costing
//!   up to 13 % of CPU cycles on sysbench (§6.3) — the simulated kernel
//!   charges per-CPU-scanned costs accordingly. The host does not repeat
//!   the scan: the searches answer from an index of CPUs by `tdq_lowpri`
//!   (`lowpri.rs`) and the occupancy index's load levels, while the
//!   modelled scan of every CPU of each span is still charged.
//! * **Balancing** — the load of a CPU is simply its number of runnable
//!   threads. Core 0 runs the periodic balancer every 0.5–1.5 s (random),
//!   each invocation migrating at most one thread from each donor to each
//!   receiver; idle CPUs steal at most one thread, walking up the topology.
//!
//! Port adaptations from §3 are faithfully reproduced: the running thread
//! remains accounted in the runqueue (`nr_queued` includes it), the load
//! balancer never migrates a running thread, and the balancing code uses
//! the kernel's (CFS-style) locking discipline — in the simulator, the same
//! single-threaded migration primitives CFS uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interactivity;
mod lowpri;
#[cfg(test)]
mod model_tests;
pub mod params;
pub mod runq;

use sched_api::{
    DequeueKind, EnqueueKind, Occupancy, Preempt, PreemptCause, Scheduler, SelectError,
    SelectStats, TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, SimRng, Time};
use topology::{CpuId, CpuMask, Topology};

use interactivity::{Interactivity, PctCpu};
use lowpri::LowpriIndex;
use params::{
    UleParams, BATCH_PRIO_LEVELS, BATCH_PRIO_MAX, BATCH_PRIO_MIN, IDLE_PRIO, INT_PRIO_LEVELS,
    RQ_NQS,
};
use runq::{BatchRunq, PrioRunq};

/// Per-task ULE state (`td_sched`).
struct UleTask {
    interact: Interactivity,
    pct: PctCpu,
    /// Current ULE priority (0 = most urgent interactive).
    prio: i32,
    /// Priority recorded when the task entered a queue (for removal).
    queued_prio: Option<i32>,
    /// Whether it was queued on the interactive runqueue.
    queued_interactive: bool,
    /// Start of the current timeslice.
    slice_start: Time,
    /// Last time run-time was folded into the interactivity history.
    last_acct: Time,
}

/// Map a batch (timeshare) priority onto its runqueue bucket:
/// `(prio − BATCH_PRIO_MIN) × RQ_NQS / BATCH_PRIO_LEVELS`, FreeBSD's
/// `tdq_runq_add` circular-queue scaling. The 88 batch priorities fold
/// into [`RQ_NQS`] buckets; the division keeps every result in
/// `[0, RQ_NQS)` including `BATCH_PRIO_MAX` (87·64/88 = 63), so no
/// clamp is needed — the boundary test in this crate pins that.
pub fn batch_bucket(prio: i32) -> usize {
    debug_assert!(
        (BATCH_PRIO_MIN..=BATCH_PRIO_MAX).contains(&prio),
        "batch priority {prio} out of range"
    );
    ((prio - BATCH_PRIO_MIN) as usize * RQ_NQS) / BATCH_PRIO_LEVELS as usize
}

/// Number of tracked priority slots (0..=[`BATCH_PRIO_MAX`]).
const PRIO_SLOTS: usize = BATCH_PRIO_MAX as usize + 1;
/// Words in the presence bitmap covering [`PRIO_SLOTS`] bits.
const PRIO_WORDS: usize = PRIO_SLOTS.div_ceil(64);

/// Multiset of priorities of queued + running threads (`tdq_lowpri`
/// backing store). Flat per-priority counts plus a presence bitmap: the
/// hot probes — `add`/`remove` on every enqueue/dequeue and `min` on
/// every placement scan — are an array bump and a couple of
/// `trailing_zeros` words instead of BTreeMap rebalancing walks.
struct PrioSet {
    counts: [u32; PRIO_SLOTS],
    bits: [u64; PRIO_WORDS],
}

impl PrioSet {
    fn new() -> PrioSet {
        PrioSet {
            counts: [0; PRIO_SLOTS],
            bits: [0; PRIO_WORDS],
        }
    }

    fn add(&mut self, p: i32) {
        debug_assert!(
            (0..=BATCH_PRIO_MAX).contains(&p),
            "priority {p} out of range"
        );
        let p = p as usize;
        self.counts[p] += 1;
        self.bits[p / 64] |= 1 << (p % 64);
    }

    fn remove(&mut self, p: i32) {
        debug_assert!(
            (0..=BATCH_PRIO_MAX).contains(&p),
            "priority {p} out of range"
        );
        let p = p as usize;
        match self.counts[p] {
            0 => debug_assert!(false, "priority {p} not tracked"),
            1 => {
                self.counts[p] = 0;
                self.bits[p / 64] &= !(1 << (p % 64));
            }
            ref mut c => *c -= 1,
        }
    }

    /// The smallest priority present, if any.
    fn min(&self) -> Option<i32> {
        for (w, &bits) in self.bits.iter().enumerate() {
            if bits != 0 {
                return Some((w * 64 + bits.trailing_zeros() as usize) as i32);
            }
        }
        None
    }

    /// Whether any thread with priority `p` is tracked.
    fn contains(&self, p: i32) -> bool {
        (0..=BATCH_PRIO_MAX).contains(&p) && self.counts[p as usize] > 0
    }

    /// Total threads tracked across all priorities, summed over the
    /// present ones only (the bitmap mirrors the counts).
    fn total(&self) -> u64 {
        self.present()
            .map(|p| u64::from(self.counts[p as usize]))
            .sum()
    }

    /// Priorities currently present, ascending.
    fn present(&self) -> impl Iterator<Item = i32> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some((w * 64 + b) as i32)
            })
        })
    }
}

/// Per-CPU queues (`struct tdq`). The CPU's load ("the load of a core is
/// simply defined as the number of threads currently runnable on it",
/// the running one included) is counted from them ([`Tdq::load`]); every
/// load read goes through it. [`Ule::occ`] indexes the loads of all CPUs
/// for placement and stealing, and holds the CPU's online flag.
struct Tdq {
    interactive: PrioRunq,
    batch: BatchRunq,
    curr: Option<Tid>,
    /// Multiset of priorities of queued + running threads (for
    /// `tdq_lowpri`).
    prios: PrioSet,
    /// Next calendar-clock advance (stathz cadence).
    next_stat: Time,
}

impl Tdq {
    fn new() -> Tdq {
        Tdq {
            interactive: PrioRunq::new(),
            batch: BatchRunq::new(),
            curr: None,
            prios: PrioSet::new(),
            next_stat: Time::ZERO,
        }
    }

    /// Threads queued, excluding the running one.
    fn waiting(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// The CPU's load, counted from the queues: queued plus running.
    fn load(&self) -> usize {
        self.waiting() + usize::from(self.curr.is_some())
    }

    fn add_prio(&mut self, p: i32) {
        self.prios.add(p);
    }

    fn remove_prio(&mut self, p: i32) {
        self.prios.remove(p);
    }

    /// The most urgent priority present (`tdq_lowpri`), or [`IDLE_PRIO`].
    fn lowpri(&self) -> i32 {
        self.prios.min().unwrap_or(IDLE_PRIO)
    }
}

/// The ULE scheduling class.
pub struct Ule {
    topo: Topology,
    p: UleParams,
    tstates: Vec<Option<UleTask>>,
    tdqs: Vec<Tdq>,
    rng: SimRng,
    /// Core 0's next periodic balance.
    next_balance: Time,
    /// Each CPU's queued and running counts, its load levels and the
    /// online mask, synced after every queue change ([`Ule::sync`]).
    /// Placement and idle stealing answer from it.
    occ: Occupancy,
    /// The CPUs by `tdq_lowpri`, for placement's passes 1 and 2. A change
    /// to a CPU's priority multiset marks the CPU stale ([`Ule::sync`],
    /// and the priority swap in `task_tick`); placement re-indexes the
    /// stale CPUs before it reads the levels.
    lowpri: LowpriIndex,
}

impl Ule {
    /// ULE with default parameters.
    pub fn new(topo: &Topology) -> Ule {
        Ule::with_params(topo, UleParams::default(), 0)
    }

    /// ULE with explicit parameters and a seed for the randomized
    /// balancing period.
    pub fn with_params(topo: &Topology, p: UleParams, seed: u64) -> Ule {
        Ule {
            topo: topo.clone(),
            p,
            tstates: Vec::new(),
            tdqs: (0..topo.nr_cpus()).map(|_| Tdq::new()).collect(),
            rng: SimRng::new(seed ^ 0xB41A_4CE0),
            next_balance: Time::ZERO,
            occ: Occupancy::new(topo.nr_cpus()),
            lowpri: LowpriIndex::new(topo.nr_cpus()),
        }
    }

    /// Bring `cpu`'s occupancy row up to date with its queues and mark
    /// its `tdq_lowpri` stale. Every site that changes a queue or the
    /// running thread calls it.
    fn sync(&mut self, cpu: CpuId) {
        let tdq = &self.tdqs[cpu.index()];
        self.occ.set(cpu, tdq.waiting(), tdq.curr.is_some());
        self.lowpri.mark(cpu);
    }

    /// The CPUs whose most urgent priority (`tdq_lowpri`) is less urgent
    /// than `prio`, idle CPUs included: the candidates of
    /// `sched_pickcpu`'s passes 1 and 2, built once for both. Re-indexes
    /// the stale CPUs first.
    fn lowpri_above(&mut self, prio: i32) -> CpuMask {
        let tdqs = &self.tdqs;
        self.lowpri.refresh(|c| tdqs[c.index()].lowpri());
        self.lowpri.above(prio)
    }

    /// Access to the parameters (for ablation benches).
    pub fn params(&self) -> &UleParams {
        &self.p
    }

    fn ts(&self, tid: Tid) -> &UleTask {
        self.tstates[tid.index()].as_ref().expect("ule state")
    }

    fn ts_mut(&mut self, tid: Tid) -> &mut UleTask {
        self.tstates[tid.index()].as_mut().expect("ule state")
    }

    /// `sched_priority`: interactive threads interpolate their score into
    /// the interactive range; batch threads derive priority from recent
    /// CPU usage plus niceness.
    fn compute_prio(&mut self, tasks: &TaskTable, tid: Tid, now: Time) -> i32 {
        let nice = tasks.get(tid).nice;
        let p = self.p.clone();
        let ts = self.ts_mut(tid);
        let score = ts.interact.score(nice);
        if score < p.interact_thresh {
            // Linear interpolation: penalty 0 → highest interactive
            // priority, penalty at the threshold → lowest (§2.2).
            ((score * INT_PRIO_LEVELS as i64) / p.interact_thresh.max(1)) as i32
        } else {
            // "The priority of batch threads depends on their runtime: the
            // more a thread runs, the lower its priority. The niceness is
            // added to get a linear effect on the priority."
            let usage = ts.pct.frac(now, &p); // 0..=1024
            let usage_span = (BATCH_PRIO_LEVELS - 40) as u64; // reserve nice span
            let pri = BATCH_PRIO_MIN + (usage * usage_span / 1024) as i32 + (nice + 20);
            pri.clamp(BATCH_PRIO_MIN, BATCH_PRIO_MAX)
        }
    }

    fn is_interactive_prio(prio: i32) -> bool {
        prio < BATCH_PRIO_MIN
    }

    /// Fold the running thread's recent CPU time into its histories.
    fn account_curr(&mut self, cpu: CpuId, now: Time) {
        let Some(tid) = self.tdqs[cpu.index()].curr else {
            return;
        };
        let p = self.p.clone();
        let ts = self.ts_mut(tid);
        let delta = now.saturating_since(ts.last_acct);
        if delta.is_zero() {
            return;
        }
        ts.last_acct = now;
        ts.interact.add_run(delta, &p);
        ts.pct.add_run(now, delta, &p);
    }

    /// Put a runnable task into `cpu`'s appropriate queue.
    fn runq_add(&mut self, cpu: CpuId, tid: Tid, prio: i32) {
        let tdq = &mut self.tdqs[cpu.index()];
        if Self::is_interactive_prio(prio) {
            tdq.interactive.push(prio as usize, tid);
        } else {
            tdq.batch.push(batch_bucket(prio), tid);
        }
        tdq.add_prio(prio);
        let ts = self.ts_mut(tid);
        ts.queued_prio = Some(prio);
        ts.queued_interactive = Self::is_interactive_prio(prio);
    }

    /// Remove a queued (non-running) task from `cpu`'s queues.
    fn runq_remove(&mut self, cpu: CpuId, tid: Tid) {
        let (prio, interactive) = {
            let ts = self.ts(tid);
            (
                ts.queued_prio.expect("queued task has a recorded prio"),
                ts.queued_interactive,
            )
        };
        let tdq = &mut self.tdqs[cpu.index()];
        let found = if interactive {
            tdq.interactive.remove(prio as usize, tid)
        } else {
            tdq.batch.remove(tid)
        };
        debug_assert!(found, "{tid} not found in {cpu} runq");
        tdq.remove_prio(prio);
        self.ts_mut(tid).queued_prio = None;
    }

    /// Is the thread still cache-affine on `cpu`?
    fn affine(&self, tasks: &TaskTable, tid: Tid, now: Time) -> bool {
        let t = tasks.get(tid);
        now.saturating_since(t.last_ran) <= self.p.affinity_window
    }

    /// Steal one transferable (queued, affinity-compatible) thread from
    /// `victim` for `thief`. Interactive threads first, as FreeBSD's
    /// `runq_steal` scans the realtime queue first.
    fn steal_one(&mut self, tasks: &mut TaskTable, victim: CpuId, thief: CpuId, now: Time) -> bool {
        let candidate = {
            let tdq = &mut self.tdqs[victim.index()];
            let from_int = tdq
                .interactive
                .iter()
                .find(|&t| tasks.get(t).allowed_on(thief));
            match from_int {
                Some(t) => Some(t),
                None => tdq.batch.iter().find(|&t| tasks.get(t).allowed_on(thief)),
            }
        };
        let Some(tid) = candidate else {
            return false;
        };
        self.runq_remove(victim, tid);
        self.sync(victim);
        tasks.get_mut(tid).cpu = thief;
        self.enqueue_task(tasks, thief, tid, EnqueueKind::Migrate, now);
        true
    }
}

impl Scheduler for Ule {
    fn name(&self) -> &'static str {
        "ule"
    }

    /// `sched_pickcpu` (§2.2): affinity shortcut; then look for a CPU where
    /// the thread would be the most urgent (first within the affine level,
    /// then machine-wide); finally the least-loaded CPU.
    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        _kind: WakeKind,
        _waking_cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        if self.topo.nr_cpus() == 1 {
            return Ok(CpuId(0));
        }
        let task = tasks.get(tid);
        let last = task.last_cpu;
        let prio = self.ts(tid).prio;

        // Shortcut: idle and cache-affine last CPU.
        stats.cpus_scanned += 1;
        let affine = self.affine(tasks, tid, now);
        if task.allowed_on(last)
            && affine
            && self.occ.online().contains(last)
            && self.tdqs[last.index()].load() == 0
        {
            return Ok(last);
        }

        // Passes 1 and 2 take the least-loaded CPU, lowest id among ties,
        // of their span whose most urgent priority is less urgent than the
        // thread's (an idle CPU wins outright: load 0, and `IDLE_PRIO` is
        // above every thread priority). Pass 1 searches the affine level
        // (the LLC of the last CPU if still affine, otherwise the whole
        // machine). Each pass charges the scan of its whole span.
        let allowed = task.affinity.as_ref();
        let n = self.topo.nr_cpus() as u32;
        let cand = self.lowpri_above(prio);
        let (span, size) = if affine {
            (
                self.topo.llc_mask(last),
                self.topo.llc_cpus(last).len() as u32,
            )
        } else {
            (self.topo.machine_mask(), n)
        };
        stats.cpus_scanned += size;
        if let Some(c) = self.occ.least_loaded_in(&span.and(&cand), allowed) {
            return Ok(c);
        }
        // Pass 2: the whole machine, which pass 1 already searched when the
        // thread is not affine.
        stats.cpus_scanned += n;
        if affine {
            if let Some(c) = self.occ.least_loaded_in(&cand, allowed) {
                return Ok(c);
            }
        }
        // Pass 3: "ULE simply picks the core with the lowest number of
        // running threads on the machine".
        stats.cpus_scanned += n;
        // No online CPU satisfies the affinity mask (hotplug raced a
        // pinned task): a structured error, never a panic — the kernel
        // turns it into a crash bundle with a replay line.
        self.occ
            .least_loaded_in(self.topo.machine_mask(), allowed)
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
        if kind == EnqueueKind::Wakeup {
            // `sched_wakeup`: credit the voluntary sleep and refresh the
            // classification.
            let slept = now.saturating_since(tasks.get(tid).sleep_start);
            let p = self.p.clone();
            self.ts_mut(tid).interact.add_sleep(slept, &p);
        }
        let prio = self.compute_prio(tasks, tid, now);
        self.ts_mut(tid).prio = prio;
        self.runq_add(cpu, tid, prio);
        self.sync(cpu);
        // "In ULE, full preemption is disabled, meaning that only kernel
        // threads can preempt others" (§2.2/§5.3).
        if tasks.get(tid).kernel_thread {
            Preempt::Yes(PreemptCause::KernelThread)
        } else {
            Preempt::No
        }
    }

    fn dequeue_task(
        &mut self,
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        now: Time,
    ) {
        let is_curr = self.tdqs[cpu.index()].curr == Some(tid);
        if is_curr {
            self.account_curr(cpu, now);
            let prio = self.ts(tid).prio;
            let tdq = &mut self.tdqs[cpu.index()];
            tdq.curr = None;
            tdq.remove_prio(prio);
        } else {
            self.runq_remove(cpu, tid);
        }
        self.sync(cpu);
    }

    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        if let Some(curr) = self.tdqs[cpu.index()].curr {
            self.put_prev_task(tasks, cpu, curr, now);
        }
    }

    fn pick_next_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        debug_assert!(self.tdqs[cpu.index()].curr.is_none());
        // "ULE first searches in the interactive runqueue (...). If the
        // interactive runqueue is empty, ULE searches in the batch
        // runqueue instead."
        let tdq = &mut self.tdqs[cpu.index()];
        let tid = tdq.interactive.pop().or_else(|| tdq.batch.pop())?;
        tdq.curr = Some(tid);
        self.sync(cpu);
        let ts = self.ts_mut(tid);
        ts.queued_prio = None;
        ts.slice_start = now;
        ts.last_acct = now;
        // Note: the priority stays tracked in `prios` while running (the
        // port keeps the current thread in the runqueue, §3).
        Some(tid)
    }

    fn put_prev_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        debug_assert_eq!(self.tdqs[cpu.index()].curr, Some(tid));
        self.account_curr(cpu, now);
        let old_prio = self.ts(tid).prio;
        let new_prio = self.compute_prio(tasks, tid, now);
        self.ts_mut(tid).prio = new_prio;
        let tdq = &mut self.tdqs[cpu.index()];
        tdq.curr = None;
        tdq.remove_prio(old_prio);
        // Re-added at the tail of its FIFO, preserving the FIFO property.
        self.runq_add(cpu, tid, new_prio);
        self.sync(cpu);
    }

    fn task_tick(&mut self, tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        self.account_curr(cpu, now);
        // Advance the batch calendar at stathz cadence (`sched_clock`).
        let stat = self.p.stat_tick;
        {
            let tdq = &mut self.tdqs[cpu.index()];
            if tdq.next_stat == Time::ZERO {
                tdq.next_stat = now + stat;
            }
            while now >= tdq.next_stat {
                tdq.batch.clock();
                tdq.next_stat += stat;
            }
        }
        // Refresh the running thread's priority/classification.
        let old_prio = self.ts(curr).prio;
        let new_prio = self.compute_prio(tasks, curr, now);
        if new_prio != old_prio {
            self.ts_mut(curr).prio = new_prio;
            let tdq = &mut self.tdqs[cpu.index()];
            tdq.remove_prio(old_prio);
            tdq.add_prio(new_prio);
            self.lowpri.mark(cpu);
        }
        // Timeslice check: the slice shrinks with the load. The counter
        // resets on expiry even when the thread is alone (`td_slice = 0`),
        // so a lone runner does not "owe" a huge overrun the moment a
        // second thread appears.
        let load = self.tdqs[cpu.index()].load();
        let slice = self.p.slice(load);
        let ts = self.ts_mut(curr);
        if now.saturating_since(ts.slice_start) >= slice {
            ts.slice_start = now;
            if load > 1 {
                return Preempt::Yes(PreemptCause::SliceExpired);
            }
        }
        Preempt::No
    }

    fn task_fork(&mut self, tasks: &TaskTable, child: Tid, parent: Option<Tid>, now: Time) {
        if child.index() >= self.tstates.len() {
            self.tstates.resize_with(child.index() + 1, || None);
        }
        // "When a thread is created, it inherits the runtime and sleeptime
        // (and thus the interactivity) of its parent."
        let p = self.p.clone();
        let interact = match parent {
            Some(par) if self.tstates.get(par.index()).is_some_and(|s| s.is_some()) => {
                Interactivity::fork_from(&self.ts(par).interact, &p)
            }
            _ => match tasks.get(child).inherit_history {
                Some((run, sleep)) => {
                    let synthetic = Interactivity {
                        runtime: run,
                        slptime: sleep,
                    };
                    Interactivity::fork_from(&synthetic, &p)
                }
                None => Interactivity::new(),
            },
        };
        self.tstates[child.index()] = Some(UleTask {
            interact,
            pct: PctCpu::new(now),
            prio: 0,
            queued_prio: None,
            queued_interactive: false,
            slice_start: now,
            last_acct: now,
        });
        let prio = self.compute_prio(tasks, child, now);
        self.ts_mut(child).prio = prio;
    }

    fn task_dead(&mut self, tasks: &TaskTable, tid: Tid, _now: Time) {
        // "When a thread dies, its runtime in the last 5 seconds is
        // returned to its parent."
        let runtime = self.ts(tid).interact.runtime;
        if let Some(par) = tasks.get(tid).parent {
            if par.index() < self.tstates.len() {
                if let Some(ps) = self.tstates[par.index()].as_mut() {
                    let p = self.p.clone();
                    ps.interact.add_run(runtime, &p);
                }
            }
        }
        self.tstates[tid.index()] = None;
    }

    /// Core 0's periodic balancer (`sched_balance`, with the paper's fix
    /// for the FreeBSD bug \[1\] so it actually runs periodically).
    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        // An idle CPU's idle thread keeps retrying `tdq_idled` when the
        // timer interrupt wakes it, so work that becomes stealable later
        // (e.g. unpinned threads) is still picked up.
        if self.tdqs[cpu.index()].load() == 0 {
            let mut stats = SelectStats::default();
            if self.idle_balance(tasks, cpu, now, &mut stats) {
                targets.push(cpu);
                return;
            }
        }
        if !self.p.periodic_balance || cpu != CpuId(0) {
            return;
        }
        if now < self.next_balance {
            return;
        }
        let span = self
            .rng
            .gen_range(self.p.balance_min.as_nanos(), self.p.balance_max.as_nanos());
        self.next_balance = now + Dur(span);

        // "a thread from the most loaded core (donor) is migrated to the
        // less loaded core (receiver). A core can only be a donor or a
        // receiver once, and the load balancer iterates until no donor or
        // receiver is found."
        let n = self.topo.nr_cpus();
        let mut used = vec![false; n];
        loop {
            let mut donor: Option<(usize, CpuId)> = None;
            let mut receiver: Option<(usize, CpuId)> = None;
            for c in self.topo.all_cpus() {
                if used[c.index()] || !self.occ.online().contains(c) {
                    continue;
                }
                let load = self.tdqs[c.index()].load();
                match donor {
                    None => donor = Some((load, c)),
                    Some((dl, dc)) if load > dl || (load == dl && c.0 < dc.0) => {
                        donor = Some((load, c))
                    }
                    _ => {}
                }
                match receiver {
                    None => receiver = Some((load, c)),
                    Some((rl, rc)) if load < rl || (load == rl && c.0 > rc.0) => {
                        receiver = Some((load, c))
                    }
                    _ => {}
                }
            }
            let (Some((dload, dc)), Some((rload, rc))) = (donor, receiver) else {
                break;
            };
            if dc == rc || dload <= rload + 1 {
                break; // balanced enough; nothing to gain
            }
            used[dc.index()] = true;
            used[rc.index()] = true;
            if self.steal_one(tasks, dc, rc, now) {
                targets.push(rc);
            }
        }
    }

    /// Idle stealing (`tdq_idled`): try the most loaded CPU sharing a
    /// cache, then walk up the topology; steal at most one thread.
    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        // Charge the *modeled* cost of scanning the whole span (a real
        // kernel inspects every tdq); the index answers from its levels.
        let llc = self.topo.llc_cpus(cpu).len() as u32;
        let spans = [
            (*self.topo.llc_mask(cpu), llc),
            (*self.topo.machine_mask(), self.topo.nr_cpus() as u32),
        ];
        for (span, size) in &spans {
            stats.cpus_scanned += size;
            // The most loaded CPU reaching steal_thresh, first among ties.
            let victim = self.occ.most_loaded(span, cpu, self.p.steal_thresh);
            if let Some(victim) = victim {
                if self.steal_one(tasks, victim, cpu, now) {
                    return true;
                }
            }
        }
        false
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        self.tdqs[cpu.index()].load()
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        let tdq = &self.tdqs[cpu.index()];
        out.extend(tdq.interactive.iter());
        out.extend(tdq.batch.iter());
    }

    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        let Some(ts) = self.tstates.get(tid.index()).and_then(|s| s.as_ref()) else {
            return TaskSnapshot::default();
        };
        let nice = tasks.get(tid).nice;
        let load = self.tdqs[tasks.get(tid).cpu.index()].load();
        TaskSnapshot {
            ule_penalty: Some(ts.interact.penalty() as u32),
            ule_score: Some(ts.interact.score(nice) as i32),
            interactive: Some(ts.interact.is_interactive(nice, &self.p)),
            prio: Some(ts.prio),
            timeslice_ns: Some(self.p.slice(load).as_nanos()),
            ..Default::default()
        }
    }

    fn audit(&mut self, _tasks: &TaskTable, cpu: CpuId, _now: Time) -> Result<(), String> {
        let tdq = &self.tdqs[cpu.index()];
        // The port convention (§3): the running thread counts in the load
        // and stays tracked in the priority multiset. The occupancy row
        // (the load placement and stealing read) must match the queues.
        self.occ.audit(cpu, tdq.waiting(), tdq.curr.is_some())?;
        let expect = tdq.load();
        let tracked = tdq.prios.total();
        if tracked != expect as u64 {
            return Err(format!(
                "prio multiset tracks {tracked} threads, load is {expect}"
            ));
        }
        // A clean CPU's `tdq_lowpri` level must be its queues'. A stale
        // one is re-indexed before placement reads it.
        if !self.lowpri.is_stale(cpu) {
            self.lowpri.audit(cpu, tdq.lowpri())?;
        }
        for p in tdq.prios.present() {
            if !(0..=BATCH_PRIO_MAX).contains(&p) {
                return Err(format!("tracked priority {p} out of range"));
            }
        }
        tdq.interactive
            .check()
            .map_err(|e| format!("interactive runq: {e}"))?;
        tdq.batch.check().map_err(|e| format!("batch runq: {e}"))?;
        for t in tdq.interactive.iter() {
            match self.ts(t).queued_prio {
                Some(p) if Self::is_interactive_prio(p) => {}
                Some(p) => return Err(format!("{t} on interactive runq with batch prio {p}")),
                None => return Err(format!("{t} on interactive runq without a recorded prio")),
            }
        }
        for t in tdq.batch.iter() {
            match self.ts(t).queued_prio {
                Some(p) if !Self::is_interactive_prio(p) => {}
                Some(p) => return Err(format!("{t} on batch runq with interactive prio {p}")),
                None => return Err(format!("{t} on batch runq without a recorded prio")),
            }
        }
        if let Some(curr) = tdq.curr {
            let p = self.ts(curr).prio;
            if !tdq.prios.contains(p) {
                return Err(format!("running {curr}'s prio {p} missing from multiset"));
            }
        }
        Ok(())
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

    /// A clean CPU whose priority multiset changes without the stale mark
    /// fails the audit, which names the CPU and both priorities; with the
    /// mark the audit skips the CPU until placement re-indexes it.
    #[test]
    fn audit_catches_a_lowpri_change_without_the_stale_mark() {
        let topo = Topology::flat(4);
        let (cpu, now) = (CpuId(2), Time::ZERO);
        let mut ule = Ule::new(&topo);
        let mut tasks = TaskTable::new();
        let tid = tasks.insert_with(|t| Task::new(t, "t", GroupId::ROOT));
        ule.task_fork(&tasks, tid, None, now);
        let t = tasks.get_mut(tid);
        (t.cpu, t.state, t.on_rq) = (cpu, TaskState::Runnable, true);
        ule.enqueue_task(&mut tasks, cpu, tid, EnqueueKind::New, now);
        ule.pick_next_task(&mut tasks, cpu, now);
        assert!(ule.lowpri.is_stale(cpu));
        ule.audit(&tasks, cpu, now).unwrap();
        // A placement re-indexes every stale CPU.
        ule.lowpri_above(0);
        ule.audit(&tasks, cpu, now).unwrap();
        // The running thread's priority swap, as `task_tick` makes it,
        // without the mark.
        let old = ule.ts(tid).prio;
        let new = if old == 10 { 20 } else { 10 };
        ule.ts_mut(tid).prio = new;
        let tdq = &mut ule.tdqs[cpu.index()];
        tdq.remove_prio(old);
        tdq.add_prio(new);
        let err = ule.audit(&tasks, cpu, now).unwrap_err();
        for part in [
            "cpu2".to_string(),
            format!("priority {old}"),
            format!("tdq_lowpri {new}"),
        ] {
            assert!(err.contains(&part), "{part} missing from: {err}");
        }
        ule.lowpri.mark(cpu);
        ule.audit(&tasks, cpu, now).unwrap();
        ule.lowpri_above(0);
        ule.audit(&tasks, cpu, now).unwrap();
    }

    /// Satellite bugfix pin: every batch priority maps into a valid
    /// bucket, the mapping is monotone, and the extremes land on the
    /// first/last bucket — i.e. `BATCH_PRIO_MAX` does not collapse out of
    /// range (the sched_4bsd-style off-by-one this guards against).
    #[test]
    fn batch_bucket_boundaries_and_monotonicity() {
        assert_eq!(batch_bucket(BATCH_PRIO_MIN), 0);
        assert_eq!(batch_bucket(BATCH_PRIO_MAX), RQ_NQS - 1);
        let mut prev = 0usize;
        for prio in BATCH_PRIO_MIN..=BATCH_PRIO_MAX {
            let b = batch_bucket(prio);
            assert!(b < RQ_NQS, "prio {prio} → bucket {b} out of range");
            assert!(b >= prev, "prio {prio} → bucket {b} < previous {prev}");
            prev = b;
        }
        // All buckets are reachable: 88 levels over 64 buckets leaves no
        // holes (⌈88/64⌉ = 2 levels per bucket at most, ⌊88/64⌋ ≥ 1 at
        // least ... verified exhaustively).
        let used: std::collections::BTreeSet<usize> = (BATCH_PRIO_MIN..=BATCH_PRIO_MAX)
            .map(batch_bucket)
            .collect();
        assert_eq!(used.len(), RQ_NQS, "every bucket must be reachable");
    }

    /// Satellite bugfix pin: removing the last thread at a priority level
    /// must clear the presence bit — a stale bit would make `min()` report
    /// an empty level and send the pick loop spinning into the livelock
    /// watchdog. Churn insert/remove right at the u64 word boundaries.
    #[test]
    fn prioset_remove_to_zero_clears_bits_across_word_boundaries() {
        let mut s = PrioSet::new();
        for &p in &[31, 32, 63, 64, 0, BATCH_PRIO_MAX] {
            // Two in, two out: the intermediate remove must keep the bit,
            // the final remove must clear it.
            s.add(p);
            s.add(p);
            assert!(s.contains(p));
            assert_eq!(s.min(), Some(p), "only {p} is tracked at this point");
            s.remove(p);
            assert!(s.contains(p), "count 2→1 must keep priority {p} present");
            s.remove(p);
            assert!(!s.contains(p), "count 1→0 must clear priority {p}");
        }
        assert_eq!(s.min(), None, "all bits cleared after churn");
        assert_eq!(s.total(), 0);

        // Neighbouring levels across a word boundary stay independent.
        s.add(63);
        s.add(64);
        s.remove(63);
        assert!(!s.contains(63));
        assert!(s.contains(64), "clearing bit 63 must not disturb bit 64");
        assert_eq!(s.min(), Some(64));
        assert_eq!(s.present().collect::<Vec<_>>(), vec![64]);
        s.remove(64);
        assert_eq!(s.min(), None);

        // Interleaved churn: presence always mirrors the counts exactly.
        for round in 0..3 {
            for p in [31, 32, 63, 64] {
                s.add(p + round);
            }
        }
        for round in 0..3 {
            for p in [31, 32, 63, 64] {
                s.remove(p + round);
            }
        }
        assert_eq!(s.total(), 0);
        assert_eq!(
            s.present().count(),
            0,
            "no stale bits after interleaved churn"
        );
    }
}
