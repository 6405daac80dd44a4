//! Property tests of ULE's interactivity machinery and runqueues.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;
use sched_api::Tid;
use simcore::Dur;
use ule::interactivity::Interactivity;
use ule::params::{UleParams, INT_PRIO_LEVELS, RQ_NQS};
use ule::runq::{BatchRunq, PrioRunq};

/// FIFOs in the interactive runqueue.
const INT_FIFOS: usize = INT_PRIO_LEVELS as usize;

proptest! {
    /// The penalty is always within [0, 100] and the history window stays
    /// bounded, for any interleaving of run/sleep updates.
    #[test]
    fn penalty_bounds_and_window(ops in prop::collection::vec((any::<bool>(), 1u64..500), 1..200)) {
        let p = UleParams::default();
        let mut i = Interactivity::new();
        for (is_run, ms) in ops {
            if is_run {
                i.add_run(Dur::millis(ms), &p);
            } else {
                i.add_sleep(Dur::millis(ms), &p);
            }
            prop_assert!(i.penalty() <= 100);
            // The decaying window keeps the history bounded near its max.
            prop_assert!(i.runtime + i.slptime <= p.slp_run_max * 2 + Dur::millis(500));
        }
    }

    /// More sleeping never *raises* the penalty (monotonicity in s).
    #[test]
    fn penalty_monotone_in_sleep(r in 1u64..5000, s in 1u64..5000, extra in 1u64..1000) {
        let base = Interactivity { runtime: Dur::millis(r), slptime: Dur::millis(s) };
        let more = Interactivity { runtime: Dur::millis(r), slptime: Dur::millis(s + extra) };
        prop_assert!(more.penalty() <= base.penalty(),
            "sleep must not increase the penalty: {} vs {}", more.penalty(), base.penalty());
    }

    /// Fork preserves the classification direction: a child of an
    /// interactive parent starts interactive.
    #[test]
    fn fork_preserves_classification(r in 0u64..4000, s in 0u64..4000) {
        let p = UleParams::default();
        let parent = Interactivity { runtime: Dur::millis(r), slptime: Dur::millis(s) };
        let child = Interactivity::fork_from(&parent, &p);
        prop_assert_eq!(child.penalty(), parent.penalty());
    }

    /// The interactive priority runqueue matches the full-scan reference
    /// op for op under random push/pop/remove sequences, and is
    /// conservation-safe: everything pushed leaves exactly once, highest
    /// priority first.
    #[test]
    fn prio_runq_conservation(ops in prop::collection::vec(runq_op(INT_FIFOS), 1..300)) {
        let mut q = PrioRunq::new();
        let mut model = ScanRunq::new(INT_FIFOS);
        let mut prio_of = Vec::new();
        let mut inside = HashSet::new();
        for op in ops {
            match op {
                Op::Push(pri) => {
                    let t = Tid(prio_of.len() as u32);
                    q.push(pri, t);
                    model.push(pri, t);
                    prio_of.push(pri);
                    inside.insert(t);
                }
                Op::Pop => {
                    let t = q.pop();
                    prop_assert_eq!(t, model.pop_from(0));
                    if let Some(t) = t {
                        prop_assert!(inside.remove(&t), "popped unknown task");
                    }
                }
                Op::Remove(k) if !prio_of.is_empty() => {
                    let t = Tid((k % prio_of.len()) as u32);
                    let found = q.remove(prio_of[t.0 as usize], t);
                    prop_assert_eq!(found, model.remove(t));
                    prop_assert_eq!(found, inside.remove(&t));
                }
                Op::Remove(_) | Op::Clock(_) => {}
            }
            prop_assert_eq!(q.iter().collect::<Vec<_>>(), model.iter_from(0));
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.len(), inside.len());
            prop_assert_eq!(q.check(), Ok(()));
        }
        let mut last_pri = 0usize;
        while let Some(t) = q.pop() {
            let pri = prio_of[t.0 as usize];
            prop_assert!(pri >= last_pri, "priority order violated");
            last_pri = pri;
            prop_assert!(inside.remove(&t));
        }
        prop_assert!(inside.is_empty());
    }

    /// The batch calendar matches the full-scan reference op for op under
    /// random push/pop/remove/clock sequences, and never loses or
    /// duplicates tasks. Each case first clocks the empty calendar `spin`
    /// times, which moves `idx`/`ridx` to `spin % 64` (wrapping past bucket
    /// 63 when `spin ≥ 64`), so pushes wrap around the calendar and pops
    /// walk the status bits rotated.
    #[test]
    fn batch_runq_conservation(
        spin in 0usize..200,
        ops in prop::collection::vec(runq_op(64), 1..300),
    ) {
        let mut q = BatchRunq::new();
        let mut model = CalendarModel::new();
        for _ in 0..spin {
            q.clock();
            model.clock();
        }
        let mut next = 0u32;
        let mut inside = HashSet::new();
        for op in ops {
            match op {
                Op::Push(pri) => {
                    q.push(pri, Tid(next));
                    model.push(pri, Tid(next));
                    inside.insert(Tid(next));
                    next += 1;
                }
                Op::Pop => {
                    let t = q.pop();
                    prop_assert_eq!(t, model.pop());
                    if let Some(t) = t {
                        prop_assert!(inside.remove(&t), "popped unknown task");
                    }
                }
                Op::Remove(k) if next > 0 => {
                    let t = Tid(k as u32 % next);
                    let found = q.remove(t);
                    prop_assert_eq!(found, model.fifos.remove(t));
                    prop_assert_eq!(found, inside.remove(&t));
                }
                Op::Remove(_) => {}
                Op::Clock(n) => {
                    for _ in 0..n {
                        q.clock();
                        model.clock();
                    }
                }
            }
            prop_assert_eq!(q.iter().collect::<Vec<_>>(), model.fifos.iter_from(model.ridx));
            prop_assert_eq!(q.len(), model.fifos.len());
            prop_assert_eq!(q.len(), inside.len());
            prop_assert_eq!(q.check(), Ok(()));
        }
        while let Some(t) = q.pop() {
            prop_assert_eq!(Some(t), model.pop());
            prop_assert!(inside.remove(&t));
        }
        prop_assert!(inside.is_empty());
    }
}

/// One runqueue operation. `Remove` names a tid by index into those pushed
/// so far, so it also hits tasks already popped or removed.
#[derive(Debug, Clone)]
enum Op {
    Push(usize),
    Pop,
    Remove(usize),
    Clock(usize),
}

fn runq_op(fifos: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..fifos).prop_map(Op::Push),
        3 => Just(Op::Pop),
        2 => (0usize..1000).prop_map(Op::Remove),
        1 => (1usize..8).prop_map(Op::Clock),
    ]
}

/// Reference model: the runqueues as full scans over every FIFO, with no
/// status bitmap.
struct ScanRunq {
    queues: Vec<VecDeque<Tid>>,
}

impl ScanRunq {
    fn new(fifos: usize) -> ScanRunq {
        ScanRunq {
            queues: (0..fifos).map(|_| VecDeque::new()).collect(),
        }
    }

    fn push(&mut self, i: usize, tid: Tid) {
        self.queues[i].push_back(tid);
    }

    /// FIFO indices in pick order: from `start`, wrapping around.
    fn order(&self, start: usize) -> impl Iterator<Item = usize> {
        let n = self.queues.len();
        (0..n).map(move |off| (start + off) % n)
    }

    fn pop_from(&mut self, start: usize) -> Option<Tid> {
        let i = self.order(start).find(|&i| !self.queues[i].is_empty())?;
        self.queues[i].pop_front()
    }

    fn remove(&mut self, tid: Tid) -> bool {
        for q in &mut self.queues {
            if let Some(i) = q.iter().position(|&t| t == tid) {
                q.remove(i);
                return true;
            }
        }
        false
    }

    fn iter_from(&self, start: usize) -> Vec<Tid> {
        self.order(start)
            .flat_map(|i| self.queues[i].iter().copied())
            .collect()
    }

    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Reference model of the batch calendar: `tdq_idx`/`tdq_ridx` rotation
/// over a full-scan runqueue.
struct CalendarModel {
    fifos: ScanRunq,
    idx: usize,
    ridx: usize,
}

impl CalendarModel {
    fn new() -> CalendarModel {
        CalendarModel {
            fifos: ScanRunq::new(RQ_NQS),
            idx: 0,
            ridx: 0,
        }
    }

    fn push(&mut self, scaled: usize, tid: Tid) {
        let mut pos = (scaled + self.idx) % RQ_NQS;
        if self.ridx != self.idx && pos == self.ridx {
            pos = pos.checked_sub(1).unwrap_or(RQ_NQS - 1);
        }
        self.fifos.push(pos, tid);
    }

    fn pop(&mut self) -> Option<Tid> {
        self.fifos.pop_from(self.ridx)
    }

    fn clock(&mut self) {
        if self.idx == self.ridx {
            self.idx = (self.idx + 1) % RQ_NQS;
            if self.fifos.queues[self.ridx].is_empty() {
                self.ridx = self.idx;
            }
        }
    }
}
