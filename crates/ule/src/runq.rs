//! ULE's runqueues.
//!
//! §2.2: "Inside the interactive and batch runqueues, threads are further
//! sorted by priority. (...) there is one FIFO per priority. To add a
//! thread, the scheduler inserts it at the end of the FIFO indexed by the
//! thread's priority. Picking a thread is simply done by taking the first
//! thread in the highest-priority non-empty FIFO."
//!
//! The batch runqueue additionally uses FreeBSD's *calendar* rotation
//! (`tdq_idx`/`tdq_ridx`): insertion indices rotate over time so that every
//! batch thread periodically reaches the head regardless of priority —
//! "ULE tries to be fair among batch threads by minimizing the difference
//! of runtime between threads".
//!
//! Both runqueues keep FreeBSD's status bitmap (`rq_status`): bit `i` is
//! set exactly when FIFO `i` is non-empty, so finding the next thread is a
//! `trailing_zeros` (`runq_findbit`, or `runq_findbit_from` for the
//! calendar) and every walk visits only occupied FIFOs, never all 48 + 64.

use std::collections::VecDeque;

use sched_api::Tid;

use crate::params::{INT_PRIO_LEVELS, RQ_NQS};

/// Indices of the set bits of `status`: ascending from `start`, then
/// wrapping around to the ones below it (`runq_findbit_from`'s order).
fn occupied(status: u64, start: usize) -> impl Iterator<Item = usize> {
    let mut word = status & (!0 << start);
    let mut wrapped = status ^ word;
    std::iter::from_fn(move || {
        if word == 0 {
            word = std::mem::take(&mut wrapped);
        }
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// `N` FIFOs and their status bitmap (`struct runq`): bit `i` of `status`
/// is set exactly when `queues[i]` is non-empty.
#[derive(Debug)]
struct Fifos<const N: usize> {
    /// Boxed to keep each `Tdq` small: inline FIFOs make the per-CPU
    /// `Vec<Tdq>` one ~4 KiB-per-CPU block, which raises peak RSS by
    /// about 9 % on a 256-CPU scenario.
    queues: Box<[VecDeque<Tid>; N]>,
    status: u64,
    len: usize,
}

impl<const N: usize> Fifos<N> {
    fn new() -> Self {
        const { assert!(N <= 64, "the status bitmap is one u64 word") };
        Fifos {
            queues: Box::new(std::array::from_fn(|_| VecDeque::new())),
            status: 0,
            len: 0,
        }
    }

    fn push(&mut self, i: usize, tid: Tid) {
        self.queues[i].push_back(tid);
        self.status |= 1 << i;
        self.len += 1;
    }

    /// Take the thread at `pos` in FIFO `i`, clearing the FIFO's bit when
    /// it drains (`runq_remove` + `runq_clrbit`).
    fn take(&mut self, i: usize, pos: usize) -> Option<Tid> {
        let q = &mut self.queues[i];
        let tid = q.remove(pos)?;
        if q.is_empty() {
            self.status &= !(1 << i);
        }
        self.len -= 1;
        Some(tid)
    }

    /// Pop the head of the first occupied FIFO at or after `start`,
    /// wrapping around.
    fn pop_from(&mut self, start: usize) -> Option<Tid> {
        let i = occupied(self.status, start).next()?;
        self.take(i, 0)
    }

    /// Remove `tid` from FIFO `i`. Returns `true` if it was there.
    fn remove(&mut self, i: usize, tid: Tid) -> bool {
        let pos = self.queues[i].iter().position(|&t| t == tid);
        pos.and_then(|pos| self.take(i, pos)).is_some()
    }

    /// Queued tids in pick order from `start`.
    fn iter(&self, start: usize) -> impl Iterator<Item = Tid> + '_ {
        occupied(self.status, start).flat_map(move |i| self.queues[i].iter().copied())
    }

    /// Every set bit's FIFO is non-empty, and the FIFOs under set bits
    /// hold `len` threads between them — together, bit set ⇔ FIFO
    /// non-empty, checked in O(set bits) without visiting empty FIFOs.
    fn check(&self) -> Result<(), String> {
        let mut held = 0;
        for i in occupied(self.status, 0) {
            match self.queues.get(i).map_or(0, VecDeque::len) {
                0 => return Err(format!("status bit {i} set but FIFO {i} is empty")),
                n => held += n,
            }
        }
        if held != self.len {
            return Err(format!(
                "FIFOs under set status bits hold {held} threads, len is {}",
                self.len
            ));
        }
        Ok(())
    }
}

/// A strict priority-FIFO runqueue (the interactive queue): one FIFO per
/// interactive priority, 0 = most urgent.
#[derive(Debug)]
pub struct PrioRunq {
    fifos: Fifos<{ INT_PRIO_LEVELS as usize }>,
}

impl Default for PrioRunq {
    fn default() -> Self {
        Self::new()
    }
}

impl PrioRunq {
    /// Empty runqueue with `INT_PRIO_LEVELS` priority FIFOs.
    pub fn new() -> PrioRunq {
        PrioRunq {
            fifos: Fifos::new(),
        }
    }

    /// Append at the tail of the FIFO for `prio`.
    pub fn push(&mut self, prio: usize, tid: Tid) {
        self.fifos.push(prio, tid);
    }

    /// Pop from the highest-priority (lowest index) non-empty FIFO: the
    /// lowest set status bit (`runq_findbit`).
    pub fn pop(&mut self) -> Option<Tid> {
        self.fifos.pop_from(0)
    }

    /// Remove a specific task queued at `prio`. Returns `true` if found.
    pub fn remove(&mut self, prio: usize, tid: Tid) -> bool {
        self.fifos.remove(prio, tid)
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.fifos.len
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.fifos.len == 0
    }

    /// Iterate over queued tids, in pick order.
    pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
        self.fifos.iter(0)
    }

    /// Verify the status bitmap against the FIFOs (SchedSan's audit).
    pub fn check(&self) -> Result<(), String> {
        self.fifos.check()
    }
}

/// The batch calendar runqueue (`tdq_timeshare` + `tdq_idx`/`tdq_ridx`).
#[derive(Debug)]
pub struct BatchRunq {
    fifos: Fifos<RQ_NQS>,
    /// Insertion rotation index (`tdq_idx`).
    idx: usize,
    /// Removal index — the oldest non-drained queue (`tdq_ridx`).
    ridx: usize,
}

impl Default for BatchRunq {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunq {
    /// Empty calendar with `RQ_NQS` buckets.
    pub fn new() -> BatchRunq {
        BatchRunq {
            fifos: Fifos::new(),
            idx: 0,
            ridx: 0,
        }
    }

    /// Insert a batch thread whose priority maps to `scaled` ∈
    /// `[0, RQ_NQS)`: lower-priority threads land further from the head
    /// (`tdq_runq_add` for the timeshare queue).
    pub fn push(&mut self, scaled: usize, tid: Tid) {
        debug_assert!(scaled < RQ_NQS);
        let mut pos = (scaled + self.idx) % RQ_NQS;
        // "This queue contains only priorities between MIN and MAX
        // realtime. Use the whole queue to represent these values."
        // Avoid landing exactly on ridx from behind, which would make the
        // thread wait a full rotation.
        if self.ridx != self.idx && pos == self.ridx {
            pos = pos.checked_sub(1).unwrap_or(RQ_NQS - 1);
        }
        self.fifos.push(pos, tid);
    }

    /// Pop the next batch thread: the first set status bit from `ridx`
    /// forward, wrapping around (`runq_choose_from`).
    pub fn pop(&mut self) -> Option<Tid> {
        self.fifos.pop_from(self.ridx)
    }

    /// Calendar clock (`sched_clock`): once per scheduler tick, advance the
    /// insertion index when it has caught up with the removal index, and
    /// let the removal index follow when its bucket drained.
    pub fn clock(&mut self) {
        if self.idx == self.ridx {
            self.idx = (self.idx + 1) % RQ_NQS;
            if self.fifos.status & (1 << self.ridx) == 0 {
                self.ridx = self.idx;
            }
        }
    }

    /// Remove a specific task. Returns `true` if found.
    pub fn remove(&mut self, tid: Tid) -> bool {
        let bucket = occupied(self.fifos.status, 0).find(|&i| self.fifos.queues[i].contains(&tid));
        bucket.is_some_and(|i| self.fifos.remove(i, tid))
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.fifos.len
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.fifos.len == 0
    }

    /// Iterate over queued tids in pick order.
    pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
        self.fifos.iter(self.ridx)
    }

    /// Verify the status bitmap against the buckets (SchedSan's audit).
    pub fn check(&self) -> Result<(), String> {
        self.fifos.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prio_runq_orders_by_priority_then_fifo() {
        let mut q = PrioRunq::new();
        q.push(3, Tid(1));
        q.push(1, Tid(2));
        q.push(3, Tid(3));
        q.push(1, Tid(4));
        assert_eq!(q.pop(), Some(Tid(2)));
        assert_eq!(q.pop(), Some(Tid(4)));
        assert_eq!(q.pop(), Some(Tid(1)));
        assert_eq!(q.pop(), Some(Tid(3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn prio_runq_remove() {
        let mut q = PrioRunq::new();
        q.push(0, Tid(1));
        q.push(2, Tid(2));
        assert!(q.remove(0, Tid(1)));
        assert!(!q.remove(0, Tid(1)));
        // Stealing is a pick-order search followed by a removal.
        assert_eq!(q.iter().find(|&t| t == Tid(2)), Some(Tid(2)));
        assert!(q.remove(2, Tid(2)));
        assert!(q.is_empty());
        assert_eq!(q.check(), Ok(()));
    }

    #[test]
    fn batch_runq_round_trip() {
        let mut q = BatchRunq::new();
        q.push(0, Tid(1));
        q.push(0, Tid(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(Tid(1)));
        assert_eq!(q.pop(), Some(Tid(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn batch_calendar_gives_lower_priority_later() {
        let mut q = BatchRunq::new();
        q.push(10, Tid(1)); // lower priority → further out
        q.push(0, Tid(2)); // higher priority → at the head
        assert_eq!(q.pop(), Some(Tid(2)));
        assert_eq!(q.pop(), Some(Tid(1)));
    }

    #[test]
    fn batch_calendar_rotation_prevents_starvation() {
        // A low-priority thread queued once must be reachable even while
        // high-priority threads keep being requeued, because the rotation
        // eventually brings its bucket to the removal index.
        let mut q = BatchRunq::new();
        q.push(RQ_NQS - 1, Tid(99)); // worst batch priority
        let mut popped_low = false;
        for _tick in 0..(4 * RQ_NQS) {
            q.push(0, Tid(1));
            let t = q.pop().unwrap();
            if t == Tid(99) {
                popped_low = true;
                break;
            }
            // Requeue the high-priority thread (it "ran"), tick the clock.
            q.clock();
        }
        assert!(popped_low, "calendar rotation must reach the low-prio task");
    }

    #[test]
    fn batch_runq_remove() {
        let mut q = BatchRunq::new();
        q.push(5, Tid(7));
        q.push(6, Tid(8));
        assert!(q.remove(Tid(7)));
        assert!(!q.remove(Tid(7)));
        // Stealing is a pick-order search followed by a removal.
        assert_eq!(q.iter().next(), Some(Tid(8)));
        assert!(q.remove(Tid(8)));
        assert!(q.is_empty());
        assert_eq!(q.check(), Ok(()));
    }

    #[test]
    fn iter_matches_pick_order() {
        let mut q = BatchRunq::new();
        q.push(2, Tid(1));
        q.push(1, Tid(2));
        q.push(2, Tid(3));
        let order: Vec<Tid> = q.iter().collect();
        let mut popped = Vec::new();
        while let Some(t) = q.pop() {
            popped.push(t);
        }
        assert_eq!(order, popped);
    }

    #[test]
    fn occupied_walks_set_bits_rotated_from_start() {
        let status = (1 << 0) | (1 << 5) | (1 << 40) | (1 << 63);
        assert_eq!(occupied(status, 0).collect::<Vec<_>>(), [0, 5, 40, 63]);
        assert_eq!(occupied(status, 5).collect::<Vec<_>>(), [5, 40, 63, 0]);
        assert_eq!(occupied(status, 41).collect::<Vec<_>>(), [63, 0, 5, 40]);
        assert_eq!(occupied(status, 63).collect::<Vec<_>>(), [63, 0, 5, 40]);
        assert_eq!(occupied(0, 17).count(), 0);
    }

    /// A status bit set over an empty FIFO, or cleared over a non-empty
    /// one, fails the self-check.
    #[test]
    fn check_catches_a_flipped_status_bit() {
        let mut q = PrioRunq::new();
        q.push(3, Tid(1));
        q.push(47, Tid(2));
        assert_eq!(q.check(), Ok(()));
        q.fifos.status ^= 1 << 10;
        assert!(q.check().unwrap_err().contains("FIFO 10 is empty"));
        q.fifos.status ^= 1 << 10;
        q.fifos.status ^= 1 << 47;
        assert!(q.check().unwrap_err().contains("hold 1 threads, len is 2"));
        q.fifos.status ^= 1 << 47;
        // A bit past the last FIFO has no FIFO under it.
        q.fifos.status ^= 1 << 60;
        assert!(q.check().is_err());

        let mut b = BatchRunq::new();
        b.push(0, Tid(3));
        b.push(63, Tid(4));
        assert_eq!(b.check(), Ok(()));
        b.fifos.status ^= 1 << 1;
        assert!(b.check().unwrap_err().contains("FIFO 1 is empty"));
        b.fifos.status ^= 1 << 1;
        b.fifos.status ^= 1 << 63;
        assert!(b.check().unwrap_err().contains("hold 1 threads, len is 2"));
    }
}
