//! Batched per-CPU tick delivery.
//!
//! Ticks are by far the most common event in a simulation (one per CPU per
//! millisecond), and they are perfectly periodic, so they stay out of the
//! general event queue, whose heap would sift every one of them. The
//! [`TickLane`] keeps the armed ticks in a deque sorted by `(deadline,
//! seq)`, and the kernel's event loop merges its front with the event
//! queue by the same key the queue orders by.
//!
//! A tick re-armed as it fires lands one period after the current time,
//! at or after every tick still armed, so the common insert is a plain
//! `push_back`. Only a deadline that undercuts the back walks forward from
//! it: a jittered tick landing before the back, or a CPU brought back
//! online while others carry jitter or a missed tick.
//!
//! Determinism: each armed tick reserves a sequence number from the event
//! queue's counter ([`simcore::EventQueue::alloc_seq`]) when it is armed,
//! so the merged order (and therefore every decision digest) is the order
//! the queue would give the same ticks pushed as events, including the
//! per-CPU tick stagger and fault-injected jitter.

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
        let mut i = self.armed.len();
        while i > 0 && (at, seq) < (self.armed[i - 1].0, self.armed[i - 1].1) {
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

    #[test]
    fn rearm_cycles_stay_sorted() {
        let mut lane = TickLane::new(2);
        lane.arm(CpuId(0), Time(10), 0);
        lane.arm(CpuId(1), Time(11), 1);
        for round in 0..100u64 {
            let (t, _, cpu) = lane.pop().expect("armed");
            // Re-arm one tick later, like the kernel's on_tick does.
            lane.arm(cpu, t + simcore::Dur(10), 2 + round);
            let (t2, _, _) = lane.peek().expect("armed");
            assert!(t2 >= t, "lane went backwards");
        }
    }
}
