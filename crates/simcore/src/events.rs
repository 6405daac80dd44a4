//! The simulation event queue.
//!
//! Events are pushed with a firing [`Time`] and popped in (time,
//! insertion-order) order, so that events scheduled for the same instant
//! fire in FIFO order — a property the kernel relies on for determinism.
//!
//! Cancellation is O(1): [`EventQueue::push`] returns an [`EventId`] and
//! [`EventQueue::cancel`] marks it dead; dead entries are skipped lazily on
//! pop. The kernel uses this to invalidate a task's pending run-completion
//! event whenever the task is preempted, migrated, or charged overhead.
//!
//! Ids are generation-stamped slot indices rather than entries in a hash
//! set: every stored event owns one slot in a recycled slot table, and an
//! [`EventId`] packs `(generation, slot)`. The per-pop liveness check is a
//! single indexed load instead of a `HashSet` lookup — this queue is the
//! innermost loop of the whole simulator — and a stale id (cancel after
//! fire) simply fails its generation check.
//!
//! # Backends
//!
//! Two interchangeable backends implement the same (time, seq) total
//! order, selectable at construction with [`EventQueue::with_backend`]:
//!
//! * [`Backend::Wheel`] (default) — a hierarchical timer wheel tuned for
//!   the simulator's tick-dominated event mix: O(1) pushes into one of
//!   7 levels of 64 slots each (1 ns granularity at level 0, ×64 per
//!   level, ~73 simulated minutes of horizon; rare farther events go to a
//!   small overflow heap). Pops advance a cursor directly to the next
//!   occupied slot via per-level occupancy bitmaps, cascading coarser
//!   slots down as the cursor crosses them. Every entry descends at most
//!   once per level, so the amortized cost per event is a handful of
//!   indexed moves — no comparison-heap churn on the hot path.
//! * [`Backend::Heap`] — the classic binary-heap calendar, kept as the
//!   reference implementation for differential testing (see
//!   `crates/simcore/tests/backend_equiv.rs`). A kernel runs on it only
//!   when its `SimConfig::event_queue` asks for it.
//!
//! Both backends produce byte-identical pop sequences for any push/cancel
//! history; the scenario-level determinism digests are pinned equal in
//! `crates/experiments/tests/wheel_equiv.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Which data structure orders the events. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Hierarchical timer wheel (default; fastest for tick-heavy mixes).
    Wheel,
    /// Binary heap (the differential-testing reference).
    Heap,
}

/// Liveness state of one slot in the recycled slot table.
#[derive(Debug, Clone)]
struct Slot {
    /// Current generation; an [`EventId`] is live iff its stamp matches.
    gen: u32,
    /// Set by [`EventQueue::cancel`]; checked (and the slot freed) on pop.
    cancelled: bool,
}

/// The recycled cancellation table shared by both backends.
#[derive(Debug, Default)]
struct SlotTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl SlotTable {
    /// Claim a slot for a new entry (recycling a freed one if available).
    fn acquire(&mut self) -> (u32, u32) {
        match self.free.pop() {
            Some(s) => (s, self.slots[s as usize].gen),
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    cancelled: false,
                });
                ((self.slots.len() - 1) as u32, 0)
            }
        }
    }

    /// Whether the entry owning `slot` has been cancelled.
    fn cancelled(&self, slot: u32) -> bool {
        self.slots[slot as usize].cancelled
    }

    /// Recycle `slot` once its entry has been removed: bump the generation
    /// so outstanding ids go stale, clear the cancel mark. Returns whether
    /// the entry had been cancelled.
    fn release(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        let was_cancelled = s.cancelled;
        s.gen = s.gen.wrapping_add(1);
        s.cancelled = false;
        self.free.push(slot);
        was_cancelled
    }
}

/// One stored event: firing time, FIFO tiebreak sequence, cancellation
/// slot, payload.
#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    slot: u32,
    payload: E,
}

/// Heap adapter giving [`Entry`] the min-first (time, seq) order without
/// requiring `E: Ord`.
#[derive(Debug)]
struct HeapEnt<E>(Entry<E>);

impl<E> HeapEnt<E> {
    fn key(&self) -> Reverse<(Time, u64)> {
        Reverse((self.0.at, self.0.seq))
    }
}
impl<E> PartialEq for HeapEnt<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for HeapEnt<E> {}
impl<E> PartialOrd for HeapEnt<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEnt<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

// ---------------------------------------------------------------------
// Hierarchical timer wheel
// ---------------------------------------------------------------------

/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Bitmask extracting one level's slot index.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Number of levels. Level `l` buckets 64^l ns per slot, so the whole
/// wheel spans 64^7 ns ≈ 73 simulated minutes of *delta from the cursor*;
/// farther events wait in the overflow heap.
const LEVELS: usize = 7;
/// Size of the top-level window. Placement is XOR-based, so entries
/// outside the cursor's `WHEEL_SPAN`-aligned window go to the overflow
/// heap (the common case being deltas of ≥ ~73 simulated minutes).
const WHEEL_SPAN: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// The level an event at `at` belongs to when the cursor is at `cursor`:
/// the highest 6-bit digit in which the two times differ (`None` =
/// overflow). Same-or-lower digits than the cursor's are impossible for
/// future times, so each level's occupied slots always sit strictly ahead
/// of the cursor's digit (level 0: at-or-ahead), which is what lets
/// [`Wheel::candidate`] use plain `trailing_zeros`.
fn level_of(cursor: u64, at: u64) -> Option<usize> {
    let x = cursor ^ at;
    if x == 0 {
        return Some(0);
    }
    let level = (63 - x.leading_zeros()) as usize / LEVEL_BITS as usize;
    (level < LEVELS).then_some(level)
}

/// The hierarchical-wheel backend. See the module docs for the shape.
///
/// Ordering invariants:
///
/// * `cursor` never exceeds the firing time of any stored entry except
///   those in `early`.
/// * every lane entry's [`level_of`]`(cursor, at)` equals its lane's level
///   (maintained by cascading whenever the cursor advances).
/// * `staged` holds the (single-instant) contents of the level-0 slot the
///   cursor points at, in reverse-seq order so pops come off the back in
///   FIFO order.
/// * `early` (reverse-sorted) holds entries pushed *behind* the cursor:
///   legal when a caller peeks (which advances the cursor to the next
///   event) and then schedules something before that next event fires.
#[derive(Debug)]
struct Wheel<E> {
    cursor: u64,
    /// Per-level occupancy bitmap; bit `s` set iff `lanes[l*SLOTS + s]`
    /// is non-empty.
    occupied: [u64; LEVELS],
    /// `LEVELS × SLOTS` buckets, flattened.
    lanes: Vec<Vec<Entry<E>>>,
    /// Contents of the current level-0 slot, reverse-seq; pop from back.
    staged: Vec<Entry<E>>,
    /// Entries pushed before the cursor, sorted by (time, seq) descending;
    /// pop from back. Always drained before anything in the wheel.
    early: Vec<Entry<E>>,
    /// Entries outside the cursor's top-level window; re-seeded into the
    /// wheel as the cursor approaches.
    overflow: BinaryHeap<HeapEnt<E>>,
    /// Total entries stored (including cancelled-but-unskipped).
    stored: usize,
}

impl<E> Wheel<E> {
    fn new() -> Wheel<E> {
        Wheel {
            cursor: 0,
            occupied: [0; LEVELS],
            lanes: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            staged: Vec::new(),
            early: Vec::new(),
            overflow: BinaryHeap::new(),
            stored: 0,
        }
    }

    /// File a new or cascaded entry whose time is at or after the cursor.
    fn place(&mut self, e: Entry<E>) {
        debug_assert!(e.at.0 >= self.cursor);
        match level_of(self.cursor, e.at.0) {
            Some(l) => {
                debug_assert_eq!(
                    e.at.0 & !(WHEEL_SPAN - 1),
                    self.cursor & !(WHEEL_SPAN - 1),
                    "a placed entry must share the cursor's wheel window"
                );
                let slot = ((e.at.0 >> (LEVEL_BITS * l as u32)) & SLOT_MASK) as usize;
                self.occupied[l] |= 1 << slot;
                self.lanes[l * SLOTS + slot].push(e);
            }
            None => self.overflow.push(HeapEnt(e)),
        }
    }

    /// Accept a brand-new entry (which, uniquely, may be behind the
    /// cursor — see the `early` field docs).
    fn insert(&mut self, e: Entry<E>) {
        self.stored += 1;
        if e.at.0 < self.cursor {
            // Reverse-sorted insert; `early` is tiny and short-lived.
            let key = (e.at, e.seq);
            let pos = self.early.partition_point(|x| (x.at, x.seq) > key);
            self.early.insert(pos, e);
        } else if !self.staged.is_empty() && e.at.0 == self.cursor {
            // Joins the instant currently being drained: same time, larger
            // seq than everything staged, so it fires last — the front of
            // the reversed buffer.
            self.staged.insert(0, e);
        } else {
            self.place(e);
        }
    }

    /// The earliest possible next event in the wheel proper: `(time,
    /// level, slot)` where `time` is exact for level 0 and the slot's
    /// window start for coarser levels. Lower levels always precede
    /// higher ones, so the first occupied level wins.
    fn candidate(&self) -> Option<(u64, usize, usize)> {
        for l in 0..LEVELS {
            let occ = self.occupied[l];
            if occ == 0 {
                continue;
            }
            let s = occ.trailing_zeros() as u64;
            let shift = LEVEL_BITS * l as u32;
            let t = if l == 0 {
                (self.cursor & !SLOT_MASK) | s
            } else {
                let low_mask = (1u64 << (shift + LEVEL_BITS)) - 1;
                (self.cursor & !low_mask) | (s << shift)
            };
            debug_assert!(t >= self.cursor, "wheel candidate behind cursor");
            return Some((t, l, s as usize));
        }
        None
    }
}

// ---------------------------------------------------------------------
// The queue
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Core<E> {
    Heap(BinaryHeap<HeapEnt<E>>),
    Wheel(Wheel<E>),
}

/// A time-ordered event queue with stable same-time ordering and lazy
/// cancellation. See the module docs for the backend story.
#[derive(Debug)]
pub struct EventQueue<E> {
    core: Core<E>,
    /// Monotonic sequence number providing same-time FIFO order (also
    /// drawn from by [`EventQueue::alloc_seq`] for externally merged
    /// event sources, e.g. the kernel's tick lane).
    next_seq: u64,
    table: SlotTable,
    /// Stored entries that are not cancelled.
    live: usize,
    /// Time of the most recently popped event; pops are monotone.
    last_pop: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue on the timer wheel.
    pub fn new() -> Self {
        Self::with_backend(Backend::Wheel)
    }

    /// An empty queue on an explicit backend.
    pub fn with_backend(backend: Backend) -> Self {
        EventQueue {
            core: match backend {
                Backend::Heap => Core::Heap(BinaryHeap::new()),
                Backend::Wheel => Core::Wheel(Wheel::new()),
            },
            next_seq: 0,
            table: SlotTable::default(),
            live: 0,
            last_pop: Time::ZERO,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> Backend {
        match self.core {
            Core::Heap(_) => Backend::Heap,
            Core::Wheel(_) => Backend::Wheel,
        }
    }

    /// Claim the next FIFO sequence number without storing an event.
    ///
    /// For event sources kept *outside* the queue but merged with it by
    /// (time, seq) key — the kernel's per-CPU tick lane reserves its seq
    /// here at arm time, so the merged order is byte-identical to what
    /// pushing a tick event would have produced.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` to fire at `at`. Events at equal times fire in
    /// insertion order.
    pub fn push(&mut self, at: Time, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = self.table.acquire();
        let e = Entry {
            at,
            seq,
            slot,
            payload,
        };
        match &mut self.core {
            Core::Heap(h) => h.push(HeapEnt(e)),
            Core::Wheel(w) => w.insert(e),
        }
        self.live += 1;
        EventId::new(gen, slot)
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// fired (or was already cancelled) is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) {
        let slot = &mut self.table.slots[id.slot() as usize];
        if slot.gen == id.gen() && !slot.cancelled {
            slot.cancelled = true;
            self.live -= 1;
        }
    }

    /// Position the next live entry at the backend's head, dropping
    /// cancelled ones along the way, and return its (time, seq) key.
    fn ensure_head(&mut self) -> Option<(Time, u64)> {
        let EventQueue { core, table, .. } = self;
        match core {
            Core::Heap(h) => loop {
                let head = h.peek()?;
                if table.cancelled(head.0.slot) {
                    let e = h.pop().expect("peeked").0;
                    table.release(e.slot);
                } else {
                    return Some((head.0.at, head.0.seq));
                }
            },
            Core::Wheel(w) => loop {
                // Drop cancelled heads of the two pop-side buffers.
                while let Some(e) = w.early.last() {
                    if !table.cancelled(e.slot) {
                        break;
                    }
                    let e = w.early.pop().expect("peeked");
                    table.release(e.slot);
                    w.stored -= 1;
                }
                while let Some(e) = w.staged.last() {
                    if !table.cancelled(e.slot) {
                        break;
                    }
                    let e = w.staged.pop().expect("peeked");
                    table.release(e.slot);
                    w.stored -= 1;
                }
                // `early` times precede the cursor, hence everything
                // staged or still in the wheel.
                if let Some(e) = w.early.last() {
                    return Some((e.at, e.seq));
                }
                if let Some(e) = w.staged.last() {
                    return Some((e.at, e.seq));
                }
                // Refill: advance to the next occupied slot, cascading
                // coarse slots and pulling due overflow entries in.
                let cand = w.candidate();
                if let Some(o) = w.overflow.peek() {
                    let due = match cand {
                        // An overflow entry at/before the next wheel
                        // window must be filed first so it sorts into
                        // that window's slots.
                        Some((t, _, _)) => o.0.at.0 <= t,
                        None => true,
                    };
                    if due {
                        let e = w.overflow.pop().expect("peeked").0;
                        if table.cancelled(e.slot) {
                            table.release(e.slot);
                            w.stored -= 1;
                            continue;
                        }
                        if cand.is_none() {
                            // Wheel empty: leap the cursor straight to the
                            // entry so it always files as the next level-0
                            // slot. (Placement is XOR-based, so an entry
                            // just across a top-level window boundary
                            // cannot be filed from the old cursor even
                            // when its delta is within the wheel span.)
                            w.cursor = e.at.0;
                        }
                        w.place(e);
                        continue;
                    }
                }
                let (t, l, s) = cand?;
                w.cursor = t;
                w.occupied[l] &= !(1 << s);
                if l == 0 {
                    // The slot holds exactly one instant; stage it for
                    // FIFO pops (reverse so we pop from the back).
                    debug_assert!(w.staged.is_empty());
                    std::mem::swap(&mut w.staged, &mut w.lanes[s]);
                    // Insertion order is seq order except when overflow
                    // re-seeding interleaved old entries; restore it then.
                    if w.staged.windows(2).any(|p| p[0].seq > p[1].seq) {
                        w.staged.sort_unstable_by_key(|e| e.seq);
                    }
                    w.staged.reverse();
                } else {
                    // Cascade the coarse slot down one or more levels.
                    let mut v = std::mem::take(&mut w.lanes[l * SLOTS + s]);
                    for e in v.drain(..) {
                        if table.cancelled(e.slot) {
                            table.release(e.slot);
                            w.stored -= 1;
                        } else {
                            w.place(e);
                        }
                    }
                    // Hand the emptied bucket's capacity back to its lane.
                    w.lanes[l * SLOTS + s] = v;
                }
            },
        }
    }

    /// Remove and return the earliest live event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.ensure_head()?;
        let EventQueue { core, table, .. } = self;
        let e = match core {
            Core::Heap(h) => h.pop().expect("head ensured").0,
            Core::Wheel(w) => {
                w.stored -= 1;
                if !w.early.is_empty() {
                    w.early.pop().expect("head ensured")
                } else {
                    w.staged.pop().expect("head ensured")
                }
            }
        };
        let was_cancelled = table.release(e.slot);
        debug_assert!(!was_cancelled, "ensure_head yielded a cancelled entry");
        debug_assert!(e.at >= self.last_pop, "event queue went back in time");
        self.last_pop = e.at;
        self.live -= 1;
        Some((e.at, e.payload))
    }

    /// The firing time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.ensure_head().map(|(at, _)| at)
    }

    /// The (time, seq) key of the earliest live event without removing
    /// it. The seq shares [`EventQueue::alloc_seq`]'s number space, so an
    /// external event source holding reserved seqs can merge against this
    /// key deterministically.
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        self.ensure_head()
    }

    /// Number of entries currently stored, including not-yet-skipped
    /// cancelled ones. Useful only as a rough size signal.
    pub fn raw_len(&self) -> usize {
        match &self.core {
            Core::Heap(h) => h.len(),
            Core::Wheel(w) => w.stored,
        }
    }

    /// Number of live (not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    /// Run `f` against a fresh queue on each backend.
    fn on_both(f: impl Fn(EventQueue<&'static str>)) {
        f(EventQueue::with_backend(Backend::Heap));
        f(EventQueue::with_backend(Backend::Wheel));
    }

    #[test]
    fn default_is_wheel() {
        assert_eq!(EventQueue::<u8>::new().backend(), Backend::Wheel);
        assert_eq!(
            EventQueue::<u8>::with_backend(Backend::Heap).backend(),
            Backend::Heap
        );
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|mut q| {
            q.push(Time(30), "c");
            q.push(Time(10), "a");
            q.push(Time(20), "b");
            assert_eq!(q.pop(), Some((Time(10), "a")));
            assert_eq!(q.pop(), Some((Time(20), "b")));
            assert_eq!(q.pop(), Some((Time(30), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn same_time_is_fifo() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..100 {
                q.push(Time(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((Time(5), i)));
            }
        }
    }

    #[test]
    fn cancellation_skips_events() {
        on_both(|mut q| {
            let a = q.push(Time(1), "a");
            q.push(Time(2), "b");
            q.cancel(a);
            assert_eq!(q.pop(), Some((Time(2), "b")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        on_both(|mut q| {
            let a = q.push(Time(1), "a");
            assert_eq!(q.pop(), Some((Time(1), "a")));
            q.cancel(a); // must not disturb later events
            q.push(Time(2), "b");
            assert_eq!(q.pop(), Some((Time(2), "b")));
        });
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        on_both(|mut q| {
            let a = q.push(Time(1), "a");
            q.push(Time(5), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(Time(5)));
            assert_eq!(q.pop(), Some((Time(5), "b")));
        });
    }

    #[test]
    fn is_empty_accounts_for_cancellation() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            let a = q.push(Time::ZERO + Dur::millis(1), ());
            assert!(!q.is_empty());
            q.cancel(a);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn stale_id_cannot_cancel_a_recycled_slot() {
        on_both(|mut q| {
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
        });
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
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
                q.table.slots.len() <= 32,
                "slot table grew past peak occupancy: {}",
                q.table.slots.len()
            );
        }
    }

    #[test]
    fn len_counts_live_events_only() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            let a = q.push(Time(1), ());
            q.push(Time(2), ());
            assert_eq!(q.len(), 2);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert_eq!(q.raw_len(), 2, "cancelled entry still buffered");
            q.pop();
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn alloc_seq_interleaves_with_pushes() {
        let mut q = EventQueue::with_backend(Backend::Wheel);
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
    fn far_future_events_overflow_and_return() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            // Beyond the 2^42 ns wheel span: simulated hours/days.
            let far = Time(WHEEL_SPAN * 3 + 17);
            let farther = Time(WHEEL_SPAN * 900 + 1);
            q.push(far, "far");
            q.push(Time(5), "near");
            let dead = q.push(farther, "cancelled");
            q.push(farther, "farther");
            q.cancel(dead);
            assert_eq!(q.pop(), Some((Time(5), "near")));
            assert_eq!(q.pop(), Some((far, "far")));
            assert_eq!(q.pop(), Some((farther, "farther")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn push_behind_a_peeked_cursor_still_pops_in_order() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            q.push(Time(5_000_000), "late");
            // Peeking may advance the wheel cursor to 5 ms...
            assert_eq!(q.peek_time(), Some(Time(5_000_000)));
            // ...but a driver may still schedule work before that.
            q.push(Time(1_000), "early2");
            q.push(Time(999), "early1");
            let dead = q.push(Time(998), "dead");
            q.cancel(dead);
            assert_eq!(q.pop(), Some((Time(999), "early1")));
            assert_eq!(q.peek_time(), Some(Time(1_000)));
            assert_eq!(q.pop(), Some((Time(1_000), "early2")));
            assert_eq!(q.pop(), Some((Time(5_000_000), "late")));
        }
    }

    #[test]
    fn same_instant_push_while_draining_stays_fifo() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            q.push(Time(7), 0u64);
            q.push(Time(7), 1);
            assert_eq!(q.pop(), Some((Time(7), 0)));
            // Queue is mid-instant (entry 1 staged); a handler pushes more
            // work for the same instant.
            q.push(Time(7), 2);
            q.push(Time(8), 9);
            q.push(Time(7), 3);
            assert_eq!(q.pop(), Some((Time(7), 1)));
            assert_eq!(q.pop(), Some((Time(7), 2)));
            assert_eq!(q.pop(), Some((Time(7), 3)));
            assert_eq!(q.pop(), Some((Time(8), 9)));
        }
    }

    /// The wheel must produce exactly the heap's pop sequence for a messy
    /// interleaved workload (the cheap in-crate differential check; the
    /// property-based one lives in `tests/backend_equiv.rs`).
    #[test]
    fn wheel_matches_heap_on_interleaved_mix() {
        let mut heap = EventQueue::with_backend(Backend::Heap);
        let mut wheel = EventQueue::with_backend(Backend::Wheel);
        let mut rng = crate::rng::SimRng::new(0xD1FF);
        let mut ids = Vec::new();
        let mut now = 0u64;
        for step in 0..5_000u64 {
            match rng.gen_below(10) {
                0..=5 => {
                    let horizon = match rng.gen_below(4) {
                        0 => 64,             // same few ns
                        1 => 1_000_000,      // within a tick
                        2 => 50_000_000,     // tens of ms
                        _ => WHEEL_SPAN * 2, // overflow territory
                    };
                    let at = Time(now + rng.gen_below(horizon));
                    let payload = step;
                    let a = heap.push(at, payload);
                    let b = wheel.push(at, payload);
                    ids.push((a, b));
                }
                6..=7 => {
                    if !ids.is_empty() {
                        let i = rng.gen_below(ids.len() as u64) as usize;
                        let (a, b) = ids[i];
                        heap.cancel(a);
                        wheel.cancel(b);
                    }
                }
                _ => {
                    let h = heap.pop();
                    let w = wheel.pop();
                    assert_eq!(h, w, "backends diverged at step {step}");
                    if let Some((at, _)) = h {
                        now = at.0;
                    }
                }
            }
            assert_eq!(heap.len(), wheel.len());
        }
        loop {
            let h = heap.pop();
            let w = wheel.pop();
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }
}
