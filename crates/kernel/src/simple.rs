//! A deliberately simple round-robin scheduling class.
//!
//! This is *not* one of the paper's schedulers. It exists to (a) test the
//! kernel's event machinery independently of CFS/ULE, and (b) demonstrate
//! how to implement a custom scheduling class against the Table 1 trait
//! (see `examples/custom_scheduler.rs`).
//!
//! Policy: per-CPU FIFO runqueues, fixed 10 ms timeslices, least-loaded
//! placement, single-task idle stealing, no periodic balancing. Placement
//! and stealing read the shared [`Occupancy`] index, which every queue
//! mutation keeps current, instead of scanning every CPU.

use std::collections::VecDeque;

use sched_api::{
    DequeueKind, EnqueueKind, Occupancy, Preempt, PreemptCause, Scheduler, SelectError,
    SelectStats, TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};

/// Fixed round-robin timeslice.
const SLICE: Dur = Dur::millis(10);

#[derive(Debug, Default)]
struct Rq {
    queue: VecDeque<Tid>,
    curr: Option<Tid>,
    slice_start: Time,
}

/// Round-robin scheduler; see module docs.
pub struct SimpleRR {
    rqs: Vec<Rq>,
    /// Waiting counts, running flags and online/idle/has-waiters masks,
    /// mirrored from `rqs` after every mutation.
    occ: Occupancy,
    /// The audit's duplicate marks, indexed by tid. Every audit clears the
    /// marks it set, so the buffer is all `false` between calls.
    audit_marks: Vec<bool>,
}

impl SimpleRR {
    /// One runqueue per CPU of `topo`.
    pub fn new(topo: &Topology) -> SimpleRR {
        SimpleRR {
            rqs: (0..topo.nr_cpus()).map(|_| Rq::default()).collect(),
            occ: Occupancy::new(topo.nr_cpus()),
            audit_marks: Vec::new(),
        }
    }

    fn rq(&mut self, cpu: CpuId) -> &mut Rq {
        &mut self.rqs[cpu.index()]
    }

    /// Mirror `cpu`'s queue length and running flag into the index.
    fn sync(&mut self, cpu: CpuId) {
        let rq = &self.rqs[cpu.index()];
        self.occ.set(cpu, rq.queue.len(), rq.curr.is_some());
    }
}

impl Scheduler for SimpleRR {
    fn name(&self) -> &'static str {
        "simple-rr"
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
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: EnqueueKind,
        _now: Time,
    ) -> Preempt {
        self.rq(cpu).queue.push_back(tid);
        self.sync(cpu);
        Preempt::No
    }

    fn dequeue_task(
        &mut self,
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        _now: Time,
    ) {
        let rq = self.rq(cpu);
        if rq.curr == Some(tid) {
            rq.curr = None;
        } else if let Some(i) = rq.queue.iter().position(|&t| t == tid) {
            rq.queue.remove(i);
        }
        self.sync(cpu);
    }

    fn yield_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, _now: Time) {
        let rq = self.rq(cpu);
        if let Some(curr) = rq.curr.take() {
            rq.queue.push_back(curr);
        }
        self.sync(cpu);
    }

    fn pick_next_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        let rq = self.rq(cpu);
        debug_assert!(rq.curr.is_none(), "pick with a current task");
        let next = rq.queue.pop_front()?;
        rq.curr = Some(next);
        rq.slice_start = now;
        self.sync(cpu);
        Some(next)
    }

    fn put_prev_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, tid: Tid, _now: Time) {
        let rq = self.rq(cpu);
        debug_assert_eq!(rq.curr, Some(tid));
        rq.curr = None;
        rq.queue.push_back(tid);
        self.sync(cpu);
    }

    fn task_tick(&mut self, _tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        let rq = self.rq(cpu);
        debug_assert_eq!(rq.curr, Some(curr));
        if !rq.queue.is_empty() && now.saturating_since(rq.slice_start) >= SLICE {
            Preempt::Yes(PreemptCause::SliceExpired)
        } else {
            Preempt::No
        }
    }

    fn task_fork(&mut self, _tasks: &TaskTable, _child: Tid, _parent: Option<Tid>, _now: Time) {}

    fn task_dead(&mut self, _tasks: &TaskTable, _tid: Tid, _now: Time) {}

    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        // An idle CPU re-attempts a steal on every tick, so work unpinned
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
        _now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        // Steal one waiting task from the online CPU with the most waiters.
        let Some(victim) = self.occ.busiest(cpu, stats) else {
            return false;
        };
        let queue = &mut self.rqs[victim.index()].queue;
        let Some(tid) = queue
            .iter()
            .position(|&t| tasks.get(t).allowed_on(cpu))
            .and_then(|pos| queue.remove(pos))
        else {
            return false;
        };
        tasks.get_mut(tid).cpu = cpu;
        self.rq(cpu).queue.push_back(tid);
        self.sync(victim);
        self.sync(cpu);
        true
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        let rq = &self.rqs[cpu.index()];
        rq.queue.len() + usize::from(rq.curr.is_some())
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        out.extend(self.rqs[cpu.index()].queue.iter().copied());
    }

    fn snapshot(&self, _tasks: &TaskTable, _tid: Tid) -> TaskSnapshot {
        TaskSnapshot::default()
    }

    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, _now: Time) -> Result<(), String> {
        let rq = &self.rqs[cpu.index()];
        let marks = &mut self.audit_marks;
        // One walk marks each queued tid, so a second occurrence is found
        // in O(n); the marks are cleared before returning either way. Only
        // tids of the task table are marked, which bounds the buffer.
        let walk = rq.queue.iter().try_for_each(|&t| {
            if rq.curr == Some(t) {
                return Err(format!("{t} is both current and queued"));
            }
            if !tasks.contains(t) {
                return Err(format!("queued {t} does not exist"));
            }
            if marks.len() <= t.index() {
                marks.resize(t.index() + 1, false);
            }
            if std::mem::replace(&mut marks[t.index()], true) {
                return Err(format!("{t} queued twice"));
            }
            Ok(())
        });
        for &t in &rq.queue {
            if let Some(m) = marks.get_mut(t.index()) {
                *m = false;
            }
        }
        walk?;
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

    #[test]
    fn audit_catches_a_desynced_occupancy_row() {
        let topo = Topology::flat(2);
        let mut s = SimpleRR::new(&topo);
        let mut t = TaskTable::new();
        let cpu = CpuId(0);
        for i in 0..2 {
            let tid = t.insert_with(|tid| Task::new(tid, format!("t{i}"), GroupId::ROOT));
            t.get_mut(tid).state = TaskState::Runnable;
            s.enqueue_task(&mut t, cpu, tid, EnqueueKind::New, Time::ZERO);
        }
        s.pick_next_task(&mut t, cpu, Time::ZERO).unwrap();
        s.audit(&t, cpu, Time::ZERO).unwrap();
        // CPU 0 runs one task with one waiting: every other row is a desync.
        for (waiting, running) in [(0, true), (2, true), (1, false), (0, false)] {
            s.occ.set(cpu, waiting, running);
            let err = s.audit(&t, cpu, Time::ZERO).unwrap_err();
            assert!(err.contains("occupancy"), "{err}");
        }
        s.occ.set(cpu, 1, true);
        s.audit(&t, cpu, Time::ZERO).unwrap();
        // Marked offline while it still holds work.
        s.occ.set_online(cpu, false);
        let err = s.audit(&t, cpu, Time::ZERO).unwrap_err();
        assert!(err.contains("offline"), "{err}");
    }

    #[test]
    fn audit_fails_on_a_tid_queued_twice() {
        let topo = Topology::flat(1);
        let cpu = CpuId(0);
        let mut t = TaskTable::new();
        let tids: Vec<Tid> = (0..3)
            .map(|i| t.insert_with(|tid| Task::new(tid, format!("t{i}"), GroupId::ROOT)))
            .collect();
        // Queued twice side by side, then with another task between.
        for order in [[0, 0, 1], [0, 1, 0]] {
            let mut s = SimpleRR::new(&topo);
            for i in order {
                s.enqueue_task(&mut t, cpu, tids[i], EnqueueKind::New, Time::ZERO);
            }
            let err = s.audit(&t, cpu, Time::ZERO).unwrap_err();
            assert_eq!(err, format!("{} queued twice", tids[0]));
            // The failed audit left no marks behind: once the copy is
            // gone, the same tids audit clean.
            s.dequeue_task(&mut t, cpu, tids[0], DequeueKind::Sleep, Time::ZERO);
            s.enqueue_task(&mut t, cpu, tids[2], EnqueueKind::New, Time::ZERO);
            s.audit(&t, cpu, Time::ZERO).unwrap();
        }
    }

    #[test]
    fn idle_steal_takes_the_first_allowed_waiter_of_the_busiest_cpu() {
        let topo = Topology::flat(3);
        let mut s = SimpleRR::new(&topo);
        let mut t = TaskTable::new();
        let mut tids = Vec::new();
        for (i, cpu) in [0u32, 1, 1, 1].into_iter().enumerate() {
            let tid = t.insert_with(|tid| Task::new(tid, format!("t{i}"), GroupId::ROOT));
            t.get_mut(tid).cpu = CpuId(cpu);
            s.enqueue_task(&mut t, CpuId(cpu), tid, EnqueueKind::New, Time::ZERO);
            tids.push(tid);
        }
        // The head waiter on CPU 1 may not run on CPU 2.
        t.get_mut(tids[1]).affinity = Some(topology::CpuMask::single(CpuId(1)));
        let mut stats = SelectStats::default();
        assert!(s.idle_balance(&mut t, CpuId(2), Time::ZERO, &mut stats));
        assert_eq!(stats.cpus_scanned, 3, "the modelled scan covers every CPU");
        assert_eq!(s.queued_tids(CpuId(2)), vec![tids[2]]);
        assert_eq!(t.get(tids[2]).cpu, CpuId(2));
        for cpu in topo.all_cpus() {
            s.audit(&t, cpu, Time::ZERO).unwrap();
        }
        // CPU 1's two waiters still beat CPU 2's one: a steal to CPU 0
        // skips the pinned head again and takes the last waiter.
        assert!(s.idle_balance(&mut t, CpuId(0), Time::ZERO, &mut stats));
        assert_eq!(s.queued_tids(CpuId(1)), vec![tids[1]]);
        assert_eq!(s.queued_tids(CpuId(0)), vec![tids[0], tids[3]]);
    }
}
