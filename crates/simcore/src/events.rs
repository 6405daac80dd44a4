//! The simulation event queue.
//!
//! Events are pushed with a firing [`Time`] and popped in (time,
//! insertion-order) order, so that events scheduled for the same instant
//! fire in FIFO order — a property the kernel relies on for determinism.
//!
//! The queue is an indexed binary min-heap. The heap array holds only
//! compact `(time, seq, slot)` keys; payloads live in a recycled slot
//! table, and every slot records where its key sits in the heap. So
//! [`EventQueue::cancel`] removes the key at once (O(log n)): there are no
//! tombstones to skip on pop, [`EventQueue::len`] is exact, and
//! [`EventQueue::peek_key`] is an O(1) read of the root. The kernel cancels
//! a task's pending run-completion event whenever the task is preempted,
//! migrated, or charged overhead.
//!
//! An [`EventId`] packs `(generation, slot)`. A slot's generation is bumped
//! each time it is recycled, so a stale id (cancel after fire) simply
//! fails its generation check.

use crate::time::Time;

/// Opaque handle to a scheduled event, used for cancellation.
///
/// Packs `(generation << 32) | slot`. The generation is bumped each time a
/// slot is recycled, so a handle kept after its event fired can never alias
/// a newer event (until a single slot sees 2³² reuses, which at simulator
/// event rates is out of reach).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(gen: u32, slot: u32) -> EventId {
        EventId((u64::from(gen) << 32) | u64::from(slot))
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }
}

/// One heap entry: the order key plus the slot holding the payload.
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

/// One entry of the recycled slot table.
#[derive(Debug)]
struct Slot<E> {
    /// Current generation; an [`EventId`] is live iff its stamp matches
    /// (releasing a slot bumps it past every id handed out for it).
    gen: u32,
    /// Heap index of this slot's key while the slot is live.
    pos: u32,
    /// The event, `None` while the slot is free.
    payload: Option<E>,
}

/// A time-ordered event queue with stable same-time ordering and O(log n)
/// cancellation. See the module docs.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Binary min-heap of keys ordered by `(at, seq)`.
    heap: Vec<Key>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Monotonic sequence number providing same-time FIFO order (also
    /// drawn from by [`EventQueue::alloc_seq`] for externally merged
    /// event sources, e.g. the kernel's tick lane).
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
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            last_pop: Time::ZERO,
        }
    }

    /// Claim the next FIFO sequence number without storing an event.
    ///
    /// For event sources kept *outside* the queue but merged with it by
    /// (time, seq) key — the kernel's tick lane reserves its seq here at
    /// arm time, so the merged order is byte-identical to what pushing a
    /// tick event would have produced.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` to fire at `at`. Events at equal times fire in
    /// insertion order.
    pub fn push(&mut self, at: Time, payload: E) -> EventId {
        let seq = self.alloc_seq();
        let pos = self.heap.len() as u32;
        let (slot, gen) = match self.free.pop() {
            Some(s) => {
                let e = &mut self.slots[s as usize];
                e.pos = pos;
                e.payload = Some(payload);
                (s, e.gen)
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    pos,
                    payload: Some(payload),
                });
                ((self.slots.len() - 1) as u32, 0)
            }
        };
        self.heap.push(Key { at, seq, slot });
        self.sift_up(pos as usize);
        EventId::new(gen, slot)
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// fired (or was already cancelled) is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) {
        let s = &self.slots[id.slot() as usize];
        if s.gen == id.gen() {
            let pos = s.pos as usize;
            self.remove_at(pos);
        }
    }

    /// Remove and return the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let at = self.heap.first()?.at;
        debug_assert!(at >= self.last_pop, "event queue went back in time");
        self.last_pop = at;
        Some((at, self.remove_at(0)))
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|k| k.at)
    }

    /// The (time, seq) key of the earliest event without removing it. The
    /// seq shares [`EventQueue::alloc_seq`]'s number space, so an external
    /// event source holding reserved seqs can merge against this key
    /// deterministically.
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        self.heap.first().map(|k| (k.at, k.seq))
    }

    /// Number of pending (pushed, not yet popped or cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Take the key at heap index `pos` out of the heap, recycle its slot
    /// and return its payload.
    fn remove_at(&mut self, pos: usize) -> E {
        let key = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            // The former last key now sits at `pos`. Walk a hole from `pos`
            // down to a leaf along the smaller children, then drop that key
            // into it and sift it up: it was pushed recently, so it usually
            // belongs near the bottom, and this costs one comparison per
            // level on the way down instead of two.
            let last = self.heap[pos];
            let hole = self.sink_hole(pos);
            self.heap[hole] = last;
            self.sift_up(hole);
        }
        let s = &mut self.slots[key.slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(key.slot);
        s.payload
            .take()
            .expect("a heap key always owns a live slot")
    }

    /// Record that the key now at heap index `pos` lives there.
    #[inline]
    fn place(&mut self, pos: usize, key: Key) {
        self.heap[pos] = key;
        self.slots[key.slot as usize].pos = pos as u32;
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
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, key);
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
            let c = self.heap[child];
            self.place(pos, c);
            pos = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

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
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.push(Time(1), "a");
        q.push(Time(2), "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((Time(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(Time(1), "a");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        q.cancel(a); // must not disturb later events
        q.push(Time(2), "b");
        assert_eq!(q.pop(), Some((Time(2), "b")));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(Time(1), "a");
        q.push(Time(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Time(5)));
        assert_eq!(q.pop(), Some((Time(5), "b")));
    }

    #[test]
    fn is_empty_accounts_for_cancellation() {
        let mut q = EventQueue::new();
        let a = q.push(Time::ZERO + Dur::millis(1), ());
        assert!(!q.is_empty());
        q.cancel(a);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_id_cannot_cancel_a_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.push(Time(1), "a");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        // "b" reuses a's slot (single-slot table); the stale handle must
        // fail its generation check rather than kill the new event.
        let b = q.push(Time(2), "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((Time(2), "b")));
        // And a live handle still cancels normally after recycling.
        let c = q.push(Time(3), "c");
        q.cancel(c);
        q.cancel(b); // stale again: no-op
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..16 {
                q.push(Time(round * 100 + i), i);
            }
            let cancel_every_other: Vec<_> = (0..16)
                .map(|i| q.push(Time(round * 100 + 50 + i), i))
                .collect();
            for id in cancel_every_other.iter().step_by(2) {
                q.cancel(*id);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.slots.len() <= 32,
            "slot table grew past peak occupancy: {}",
            q.slots.len()
        );
    }

    #[test]
    fn len_counts_live_events_only() {
        let mut q = EventQueue::new();
        let a = q.push(Time(1), ());
        q.push(Time(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.heap.len(), 1, "a cancelled key leaves the heap at once");
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn alloc_seq_interleaves_with_pushes() {
        let mut q = EventQueue::new();
        q.push(Time(9), "x");
        let s = q.alloc_seq();
        let id = q.push(Time(9), "y");
        assert!(q.peek_key().unwrap().1 < s, "first push precedes the seq");
        q.pop();
        assert!(q.peek_key().unwrap().1 > s, "second push follows the seq");
        q.cancel(id);
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
        let dead = q.push(Time(998), "dead");
        q.cancel(dead);
        assert_eq!(q.pop(), Some((Time(999), "early1")));
        assert_eq!(q.peek_time(), Some(Time(1_000)));
        assert_eq!(q.pop(), Some((Time(1_000), "early2")));
        assert_eq!(q.pop(), Some((Time(5_000_000), "late")));
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
