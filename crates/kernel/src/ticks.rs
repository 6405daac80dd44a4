//! Per-CPU timer lanes: batched tick delivery and pending run completions.
//!
//! Two kinds of event have exactly one instance per CPU in flight, so they
//! stay out of the general event queue and live in per-CPU lanes that the
//! kernel's event loop merges with the queue by the `(time, seq)` key the
//! queue orders by.
//!
//! **Ticks.** Ticks are by far the most common event in a simulation (one
//! per CPU per millisecond), and they are perfectly periodic. The
//! [`TickLane`] keeps the armed ticks in a deque sorted by `(deadline,
//! seq)`. A tick re-armed as it fires lands one period after the current
//! time, at or after every tick still armed, so the common insert is a
//! plain `push_back`. Only a deadline that undercuts the back walks forward
//! from it: a jittered tick landing before the back, or a CPU brought back
//! online while others carry jitter or a missed tick.
//!
//! **Run completions.** Each CPU running a task has one pending completion:
//! the instant its current run segment finishes. The kernel re-arms it
//! later whenever overhead is charged to the segment, and disarms it when
//! the task is preempted, blocks, yields, exits or starts spinning. The
//! [`RunLane`] is a tournament tree over the CPUs: every CPU owns a leaf,
//! and every inner node holds the earliest key of the leaves below it.
//! Arming, re-arming or disarming a CPU rewrites its leaf and replays the
//! matches on the path to the root, stopping at the first node whose winner
//! does not change, so each costs O(log n); the earliest completion is the
//! root. A re-arm overwrites the CPU's leaf, so no completion is ever
//! cancelled out of the event queue, and the queue supports no
//! cancellation.
//!
//! Determinism: each armed tick or completion reserves a sequence number
//! from the event queue's counter ([`simcore::EventQueue::alloc_seq`]) when
//! it is armed, so the merged order (and therefore every decision digest)
//! is the order the queue would give the same ticks and completions pushed
//! as events, including the per-CPU tick stagger and fault-injected jitter.

use std::collections::VecDeque;

use simcore::Time;
use topology::CpuId;

/// The armed ticks of every CPU, earliest first. See the module docs.
#[derive(Debug)]
pub struct TickLane {
    /// `(deadline, seq, cpu)`, sorted ascending by `(deadline, seq)`.
    armed: VecDeque<(Time, u64, CpuId)>,
}

impl TickLane {
    /// An empty lane with room for one armed tick per CPU.
    pub fn new(ncpu: usize) -> TickLane {
        TickLane {
            armed: VecDeque::with_capacity(ncpu),
        }
    }

    /// Arm `cpu`'s next tick at `at` with an order key of `seq`. The caller
    /// keeps at most one tick armed per CPU.
    pub fn arm(&mut self, cpu: CpuId, at: Time, seq: u64) {
        let before = |e: &(Time, u64, CpuId)| (at, seq) < (e.0, e.1);
        if !self.armed.back().is_some_and(before) {
            self.armed.push_back((at, seq, cpu));
            return;
        }
        let mut i = self.armed.len() - 1;
        while i > 0 && before(&self.armed[i - 1]) {
            i -= 1;
        }
        self.armed.insert(i, (at, seq, cpu));
    }

    /// The earliest armed tick, if any, as `(deadline, seq, cpu)`.
    pub fn peek(&self) -> Option<(Time, u64, CpuId)> {
        self.armed.front().copied()
    }

    /// Remove and return the earliest armed tick (the one that fires).
    pub fn pop(&mut self) -> Option<(Time, u64, CpuId)> {
        self.armed.pop_front()
    }
}

/// Leaf key of a CPU with no completion armed. Its seq is never handed out
/// by [`simcore::EventQueue::alloc_seq`], and it sorts after every real key.
const DISARMED: Entry = Entry {
    at: Time::MAX,
    seq: u64::MAX,
    cpu: u32::MAX,
};

/// One node of the [`RunLane`] tree: a completion key and its CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: Time,
    seq: u64,
    cpu: u32,
}

impl Entry {
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }

    #[inline]
    fn is_armed(&self) -> bool {
        self.seq != DISARMED.seq
    }
}

/// The pending run completion of every CPU, earliest first. See the module
/// docs.
#[derive(Debug)]
pub struct RunLane {
    /// Tournament tree in heap layout: node 1 is the root, node `i` has
    /// children `2i` and `2i + 1`, and the leaf of CPU `c` is node
    /// `base + c`. Every node holds the earliest entry among its leaves.
    tree: Vec<Entry>,
    /// Index of CPU 0's leaf: the CPU count rounded up to a power of two.
    base: usize,
    /// Number of CPUs with a completion armed.
    armed: usize,
}

impl RunLane {
    /// An empty lane with one slot per CPU.
    pub fn new(ncpu: usize) -> RunLane {
        let base = ncpu.max(1).next_power_of_two();
        RunLane {
            tree: vec![DISARMED; 2 * base],
            base,
            armed: 0,
        }
    }

    /// Arm `cpu`'s completion at `at` with an order key of `seq`, replacing
    /// any completion it already had armed (earlier or later).
    pub fn arm(&mut self, cpu: CpuId, at: Time, seq: u64) {
        debug_assert!(seq != DISARMED.seq, "that seq marks a disarmed leaf");
        let leaf = self.base + cpu.index();
        if !self.tree[leaf].is_armed() {
            self.armed += 1;
        }
        self.tree[leaf] = Entry {
            at,
            seq,
            cpu: cpu.0,
        };
        self.replay(leaf);
    }

    /// Disarm `cpu`'s completion; a no-op if none is armed.
    pub fn disarm(&mut self, cpu: CpuId) {
        let leaf = self.base + cpu.index();
        if self.tree[leaf].is_armed() {
            self.armed -= 1;
            self.tree[leaf] = DISARMED;
            self.replay(leaf);
        }
    }

    /// `true` if `cpu` has a completion armed.
    pub fn is_armed(&self, cpu: CpuId) -> bool {
        self.tree[self.base + cpu.index()].is_armed()
    }

    /// Number of CPUs with a completion armed.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// `true` if no completion is armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// The earliest armed completion, if any, as `(deadline, seq, cpu)`.
    #[inline]
    pub fn peek(&self) -> Option<(Time, u64, CpuId)> {
        let e = self.tree[1];
        e.is_armed().then_some((e.at, e.seq, CpuId(e.cpu)))
    }

    /// Remove and return the earliest armed completion (the one that fires).
    pub fn pop(&mut self) -> Option<(Time, u64, CpuId)> {
        let head = self.peek()?;
        self.disarm(head.2);
        Some(head)
    }

    /// Replay the matches on the path from `leaf` to the root, stopping at
    /// the first node whose winner does not change.
    fn replay(&mut self, leaf: usize) {
        let mut i = leaf;
        while i > 1 {
            let (l, r) = (self.tree[i & !1], self.tree[i | 1]);
            let win = if r.before(&l) { r } else { l };
            i /= 2;
            if self.tree[i] == win {
                return;
            }
            self.tree[i] = win;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_returns_earliest_by_time_then_seq() {
        let mut lane = TickLane::new(3);
        lane.arm(CpuId(0), Time(100), 7);
        lane.arm(CpuId(1), Time(50), 9);
        lane.arm(CpuId(2), Time(50), 8);
        assert_eq!(lane.peek(), Some((Time(50), 8, CpuId(2))));
        assert_eq!(lane.pop(), Some((Time(50), 8, CpuId(2))));
        assert_eq!(lane.pop(), Some((Time(50), 9, CpuId(1))));
        assert_eq!(lane.pop(), Some((Time(100), 7, CpuId(0))));
        assert_eq!(lane.peek(), None);
    }

    /// Arm in the lane and in a sorted model; the lane must hold the
    /// model's order.
    fn arm(lane: &mut TickLane, model: &mut Vec<(Time, u64, CpuId)>, e: (Time, u64, CpuId)) {
        lane.arm(e.2, e.0, e.1);
        model.push(e);
        model.sort_by_key(|&(at, seq, _)| (at, seq));
        assert!(lane.armed.iter().eq(model.iter()), "{:?}", lane.armed);
    }

    #[test]
    fn rearm_cycles_stay_sorted() {
        let mut lane = TickLane::new(4);
        let mut model = Vec::new();
        for c in 0..4u64 {
            arm(&mut lane, &mut model, (Time(10 + c), c, CpuId(c as u32)));
        }
        for round in 0..400u64 {
            let fired = lane.pop().expect("armed");
            assert_eq!(fired, model.remove(0), "round {round}");
            let (t, _, cpu) = fired;
            let seq = 4 + round;
            let next = match round % 4 {
                // Re-arm one tick later, like the kernel's on_tick does:
                // the append.
                0 => (t + simcore::Dur(10), seq),
                // Fault jitter of up to ±4 around the period, which can
                // land before ticks still armed.
                1 => (t + simcore::Dur(6 + round * 7 % 9), seq),
                // A late re-arm, before every other armed tick.
                2 => (t + simcore::Dur(1), seq),
                // Out of order: the deadline just fired with the lowest
                // seq, so the new key sorts before the front.
                _ => (t, 0),
            };
            arm(&mut lane, &mut model, (next.0, next.1, cpu));
        }
    }
}
