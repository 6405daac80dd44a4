//! The simulation event queue.
//!
//! Events are pushed with a firing [`Time`] and popped in (time,
//! insertion-order) order, so that events scheduled for the same instant
//! fire in FIFO order — a property the kernel relies on for determinism.
//!
//! The queue has two sides that share one sequence counter:
//!
//! - a binary min-heap of compact `(time, seq, slot)` keys, for events due
//!   later ([`EventQueue::push`]); payloads live in a recycled slab beside
//!   it, so a sift moves 24-byte keys and never the payloads;
//! - a FIFO for events due at the caller's current instant
//!   ([`EventQueue::push_now`]). The kernel's reschedules and spinner
//!   continuations are such zero-delay events, and a wakeup burst queues
//!   hundreds of them at one instant. They arrive in `(time, seq)` order
//!   already, so appending them costs O(1) where the heap would sift each
//!   through every level.
//!
//! [`EventQueue::peek_key`] and [`EventQueue::pop`] take the earlier of the
//! heap's root and the FIFO's front, so the merged order is exactly what
//! pushing every event through the heap would give. [`EventQueue::len`]
//! counts both sides.
//!
//! Events cannot be cancelled. The kernel's one event that is re-armed and
//! disarmed, a CPU's run completion, lives in its per-CPU run lane
//! (`kernel::ticks::RunLane`), merged with this queue by the same `(time,
//! seq)` key via [`EventQueue::alloc_seq`].

use std::collections::VecDeque;

use crate::time::Time;

/// One heap entry: the order key plus the slab slot holding the payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

impl Key {
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// A time-ordered event queue with stable same-time ordering. See the
/// module docs.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Binary min-heap of keys ordered by `(at, seq)`.
    heap: Vec<Key>,
    /// Events pushed through [`EventQueue::push_now`], in `(at, seq)`
    /// order: their times never decrease and their seqs always grow.
    fifo: VecDeque<(Time, u64, E)>,
    /// Payload slab, `None` in free slots.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Monotonic sequence number providing same-time FIFO order (also
    /// drawn from by [`EventQueue::alloc_seq`] for externally merged
    /// event sources, e.g. the kernel's tick and run lanes).
    next_seq: u64,
    /// Time of the most recently popped event; pops are monotone.
    last_pop: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            fifo: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            last_pop: Time::ZERO,
        }
    }

    /// Claim the next FIFO sequence number without storing an event.
    ///
    /// For event sources kept *outside* the queue but merged with it by
    /// (time, seq) key — the kernel's tick and run lanes reserve their seq
    /// here at arm time, so the merged order is byte-identical to what
    /// pushing the same events would have produced.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` to fire at `at`. Events at equal times fire in
    /// insertion order, whichever of `push` and [`EventQueue::push_now`]
    /// queued them.
    pub fn push(&mut self, at: Time, payload: E) {
        let seq = self.alloc_seq();
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(payload);
                s
            }
            None => {
                self.slab.push(Some(payload));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Key { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedule `payload` to fire at `at`, the caller's current instant,
    /// without a trip through the heap. It pops exactly where
    /// [`EventQueue::push`] would put it: it takes its seq from the same
    /// counter, and the FIFO and the heap are merged by `(time, seq)`.
    ///
    /// `at` must be no earlier than the latest pop or any event pushed
    /// through `push_now` before, so the FIFO stays in `(time, seq)`
    /// order; a debug build asserts both. An event due later belongs on
    /// the heap: once it is queued here, `push_now` can queue nothing
    /// earlier than it.
    pub fn push_now(&mut self, at: Time, payload: E) {
        debug_assert!(
            at >= self.last_pop && self.fifo.back().is_none_or(|&(last, _, _)| last <= at),
            "push_now went back in time"
        );
        let seq = self.alloc_seq();
        self.fifo.push_back((at, seq, payload));
    }

    /// `true` if the earliest event sits at the FIFO's front rather than
    /// at the heap's root. Seqs are unique, so there are no ties.
    #[inline]
    fn fifo_first(&self) -> bool {
        match (self.fifo.front(), self.heap.first()) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(&(at, seq, _)), Some(k)) => (at, seq) < (k.at, k.seq),
        }
    }

    /// Remove and return the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.fifo_first() {
            let (at, _, payload) = self.fifo.pop_front()?;
            debug_assert!(at >= self.last_pop, "event queue went back in time");
            self.last_pop = at;
            return Some((at, payload));
        }
        let key = *self.heap.first()?;
        debug_assert!(key.at >= self.last_pop, "event queue went back in time");
        self.last_pop = key.at;
        let last = self.heap.pop().expect("the heap has a root");
        if !self.heap.is_empty() {
            // Walk a hole from the root down to a leaf along the smaller
            // children, then drop the former last key into it and sift it
            // up: it was pushed recently, so it usually belongs near the
            // bottom, and this costs one comparison per level on the way
            // down instead of two.
            let hole = self.sink_hole(0);
            self.heap[hole] = last;
            self.sift_up(hole);
        }
        self.free.push(key.slot);
        let payload = self.slab[key.slot as usize]
            .take()
            .expect("a heap key always owns a live slot");
        Some((key.at, payload))
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.peek_key().map(|(at, _)| at)
    }

    /// The (time, seq) key of the earliest event without removing it. The
    /// seq shares [`EventQueue::alloc_seq`]'s number space, so an external
    /// event source holding reserved seqs can merge against this key
    /// deterministically.
    #[inline]
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        if self.fifo_first() {
            self.fifo.front().map(|&(at, seq, _)| (at, seq))
        } else {
            self.heap.first().map(|k| (k.at, k.seq))
        }
    }

    /// Number of pending (pushed, not yet popped) events, on both sides.
    pub fn len(&self) -> usize {
        self.heap.len() + self.fifo.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.fifo.is_empty()
    }

    /// Move the key at `pos` toward the root until its parent precedes it.
    fn sift_up(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if !key.before(&p) {
                break;
            }
            self.heap[pos] = p;
            pos = parent;
        }
        self.heap[pos] = key;
    }

    /// Move a hole at `pos` down to a leaf, pulling the smaller child up
    /// at each level; returns the leaf position the hole ends at.
    fn sink_hole(&mut self, mut pos: usize) -> usize {
        let n = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                return pos;
            }
            if child + 1 < n && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            self.heap[pos] = self.heap[child];
            pos = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(30), "c");
        q.push(Time(10), "a");
        q.push(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(5), i)));
        }
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..32 {
                q.push(Time(round * 100 + i), i);
            }
            // Drain half, refill, then drain: the slab never outgrows the
            // peak number of pending events.
            for _ in 0..16 {
                q.pop();
            }
            for i in 0..16 {
                q.push(Time(round * 100 + 50 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.slab.len() <= 32,
            "slab grew past peak occupancy: {}",
            q.slab.len()
        );
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.push(Time(1), ());
        q.push(Time(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn alloc_seq_interleaves_with_pushes() {
        let mut q = EventQueue::new();
        q.push(Time(9), "x");
        let s = q.alloc_seq();
        q.push(Time(9), "y");
        assert!(q.peek_key().unwrap().1 < s, "first push precedes the seq");
        q.pop();
        assert!(q.peek_key().unwrap().1 > s, "second push follows the seq");
        q.pop();
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn push_before_the_peeked_head_still_pops_in_order() {
        let mut q = EventQueue::new();
        q.push(Time(5_000_000), "late");
        assert_eq!(q.peek_time(), Some(Time(5_000_000)));
        // A caller may still schedule work before the peeked head.
        q.push(Time(1_000), "early2");
        q.push(Time(999), "early1");
        assert_eq!(q.pop(), Some((Time(999), "early1")));
        assert_eq!(q.peek_time(), Some(Time(1_000)));
        assert_eq!(q.pop(), Some((Time(1_000), "early2")));
        assert_eq!(q.pop(), Some((Time(5_000_000), "late")));
    }

    #[test]
    fn push_and_push_now_at_one_instant_pop_in_seq_order() {
        let mut q = EventQueue::new();
        q.push(Time(3), 100u64);
        for i in 0..8u64 {
            if i % 2 == 0 {
                q.push(Time(5), i);
            } else {
                q.push_now(Time(5), i);
            }
        }
        assert_eq!(q.len(), 9);
        assert_eq!(q.heap.len(), 5);
        assert_eq!(q.fifo.len(), 4);
        assert_eq!(q.pop(), Some((Time(3), 100)));
        for i in 0..8 {
            assert_eq!(q.peek_key().map(|(at, _)| at), Some(Time(5)));
            assert_eq!(q.pop(), Some((Time(5), i)));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_heap_event_before_the_fifo_front_pops_first() {
        let mut q = EventQueue::new();
        q.push_now(Time(10), "now");
        // Pushed later with a larger seq, but due earlier.
        q.push(Time(4), "timer");
        assert_eq!(q.peek_time(), Some(Time(4)));
        assert_eq!(q.pop(), Some((Time(4), "timer")));
        assert_eq!(q.pop(), Some((Time(10), "now")));
    }

    #[test]
    fn same_instant_push_while_draining_stays_fifo() {
        let mut q = EventQueue::new();
        q.push(Time(7), 0u64);
        q.push(Time(7), 1);
        assert_eq!(q.pop(), Some((Time(7), 0)));
        // A handler pushes more work for the instant being drained.
        q.push(Time(7), 2);
        q.push(Time(8), 9);
        q.push(Time(7), 3);
        assert_eq!(q.pop(), Some((Time(7), 1)));
        assert_eq!(q.pop(), Some((Time(7), 2)));
        assert_eq!(q.pop(), Some((Time(7), 3)));
        assert_eq!(q.pop(), Some((Time(8), 9)));
    }
}
