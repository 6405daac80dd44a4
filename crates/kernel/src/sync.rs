//! Simulated synchronisation objects.
//!
//! Mutexes, counting semaphores, barriers (with MG-style spin-then-sleep
//! arrival) and bounded queues (modelling pipes and request queues). All
//! blocking is *voluntary sleep* from the scheduler's point of view — that is
//! what feeds ULE's interactivity metric and CFS's load decay.
//!
//! The objects are pure data structures: they never touch the scheduler.
//! Each operation returns an [`OpOutcome`] telling the kernel whether the
//! caller blocks or spins, and pushes the tasks it wakes and the spinners
//! it releases into two buffers owned by the [`SyncTable`]. The kernel
//! drains both after every operation, woken tasks first. The buffers (and
//! a barrier's member lists) keep their capacity, so a steady-state
//! hand-off allocates nothing.

use std::collections::VecDeque;

use sched_api::Tid;
use simcore::Time;

use crate::behavior::{BarrierId, MutexId, PoolId, QueueId, SemId};

/// What a sleeping task is blocked on. Recorded by the kernel whenever a
/// task blocks so fault injection can spuriously wake it: the waiter record
/// is removed from the synchronisation object and the task *retries* the
/// incomplete operation at its next dispatch (re-blocking if it is still
/// unavailable). This is exactly the contract POSIX condition variables
/// give real schedulers, and it is what makes spurious-wakeup injection
/// sound: no lock acquisition or queue value is ever skipped or lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// Timed sleep until `deadline`. The original timer event stays armed;
    /// a spuriously woken sleeper that retries before the deadline simply
    /// goes back to sleep.
    Timer {
        /// Absolute wake deadline.
        deadline: Time,
    },
    /// Waiting for mutex ownership.
    Mutex(MutexId),
    /// Waiting for a semaphore count.
    Sem(SemId),
    /// Waiting at a barrier. `generation` is the barrier generation at
    /// arrival: if it advanced, the barrier already released and the retry
    /// proceeds without re-arriving.
    Barrier {
        /// The barrier waited on.
        barrier: BarrierId,
        /// Barrier generation observed at arrival.
        generation: u64,
    },
    /// Blocked putting `value` into a full queue.
    QueuePut {
        /// The full queue.
        queue: QueueId,
        /// The value that still has to be delivered.
        value: u64,
    },
    /// Blocked getting from an empty queue.
    QueueGet(QueueId),
}

/// What a synchronisation operation means for its caller, interpreted by
/// the kernel. The tasks it wakes or releases are in the [`SyncTable`]'s
/// buffers, not here.
#[derive(Debug, Default)]
pub struct OpOutcome {
    /// The calling task must block (voluntary sleep).
    pub block: bool,
    /// The calling task spins at a barrier (keeps burning CPU).
    pub spin: bool,
    /// Value delivered to the caller (queue get that succeeded).
    pub value: Option<u64>,
}

impl OpOutcome {
    fn done() -> OpOutcome {
        OpOutcome::default()
    }
    fn blocked() -> OpOutcome {
        OpOutcome {
            block: true,
            ..Default::default()
        }
    }
    fn spinning() -> OpOutcome {
        OpOutcome {
            spin: true,
            ..Default::default()
        }
    }
}

#[derive(Debug, Default)]
struct Mutex {
    owner: Option<Tid>,
    waiters: VecDeque<Tid>,
}

#[derive(Debug, Default)]
struct Sem {
    count: u64,
    waiters: VecDeque<Tid>,
}

/// A cyclic barrier for `parties` tasks. Arrivals may sleep immediately or
/// spin first (the kernel enforces the spin timeout; the barrier just tracks
/// membership).
#[derive(Debug)]
struct Barrier {
    parties: usize,
    blocked: Vec<Tid>,
    spinning: Vec<Tid>,
    /// Incremented on every release; stale spin-timeout events compare this.
    generation: u64,
}

#[derive(Debug)]
struct Queue {
    capacity: usize,
    items: VecDeque<u64>,
    getters: VecDeque<Tid>,
    putters: VecDeque<(Tid, u64)>,
}

/// Table of all synchronisation objects of a simulation.
#[derive(Debug, Default)]
pub struct SyncTable {
    mutexes: Vec<Mutex>,
    sems: Vec<Sem>,
    barriers: Vec<Barrier>,
    queues: Vec<Queue>,
    pools: Vec<u64>,
    /// Sleeping tasks woken by the last operation, in wake order, each with
    /// the value handed to it (a put that met a waiting getter).
    pub(crate) woken: Vec<(Tid, Option<u64>)>,
    /// Spinning tasks released by the last barrier release. They are
    /// *running or runnable*, not sleeping; the kernel lets them continue
    /// to their next action.
    pub(crate) released: Vec<Tid>,
}

impl SyncTable {
    /// Empty table.
    pub fn new() -> SyncTable {
        SyncTable::default()
    }

    /// Create a mutex.
    pub fn new_mutex(&mut self) -> MutexId {
        self.mutexes.push(Mutex::default());
        MutexId(self.mutexes.len() as u32 - 1)
    }

    /// Create a counting semaphore with an initial count.
    pub fn new_sem(&mut self, initial: u64) -> SemId {
        self.sems.push(Sem {
            count: initial,
            waiters: VecDeque::new(),
        });
        SemId(self.sems.len() as u32 - 1)
    }

    /// Create a cyclic barrier for `parties` tasks.
    pub fn new_barrier(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0);
        self.barriers.push(Barrier {
            parties,
            blocked: Vec::new(),
            spinning: Vec::new(),
            generation: 0,
        });
        BarrierId(self.barriers.len() as u32 - 1)
    }

    /// Create a bounded queue (capacity 0 is treated as 1).
    pub fn new_queue(&mut self, capacity: usize) -> QueueId {
        self.queues.push(Queue {
            capacity: capacity.max(1),
            items: VecDeque::new(),
            getters: VecDeque::new(),
            putters: VecDeque::new(),
        });
        QueueId(self.queues.len() as u32 - 1)
    }

    /// Create a work pool holding `items` units of work.
    pub fn new_pool(&mut self, items: u64) -> PoolId {
        self.pools.push(items);
        PoolId(self.pools.len() as u32 - 1)
    }

    /// Take one item from a pool; returns `1` on success, `0` if drained.
    pub fn pool_take(&mut self, p: PoolId) -> u64 {
        let left = &mut self.pools[p.0 as usize];
        if *left > 0 {
            *left -= 1;
            1
        } else {
            0
        }
    }

    /// Lock `m` for `tid`; blocks if held.
    pub fn mutex_lock(&mut self, m: MutexId, tid: Tid) -> OpOutcome {
        let mx = &mut self.mutexes[m.0 as usize];
        match mx.owner {
            None => {
                mx.owner = Some(tid);
                OpOutcome::done()
            }
            Some(owner) => {
                assert_ne!(owner, tid, "recursive lock of mutex {m:?} by {tid}");
                mx.waiters.push_back(tid);
                OpOutcome::blocked()
            }
        }
    }

    /// Unlock `m`; ownership passes to the first waiter, which is woken.
    pub fn mutex_unlock(&mut self, m: MutexId, tid: Tid) -> OpOutcome {
        let mx = &mut self.mutexes[m.0 as usize];
        assert_eq!(
            mx.owner,
            Some(tid),
            "unlock of mutex {m:?} not held by {tid}"
        );
        mx.owner = mx.waiters.pop_front();
        if let Some(next) = mx.owner {
            self.woken.push((next, None));
        }
        OpOutcome::done()
    }

    /// Semaphore wait: decrement or block.
    pub fn sem_wait(&mut self, s: SemId, tid: Tid) -> OpOutcome {
        let sem = &mut self.sems[s.0 as usize];
        if sem.count > 0 {
            sem.count -= 1;
            OpOutcome::done()
        } else {
            sem.waiters.push_back(tid);
            OpOutcome::blocked()
        }
    }

    /// Semaphore post: wake the first waiter or increment.
    pub fn sem_post(&mut self, s: SemId) -> OpOutcome {
        let sem = &mut self.sems[s.0 as usize];
        match sem.waiters.pop_front() {
            Some(next) => self.woken.push((next, None)),
            None => sem.count += 1,
        }
        OpOutcome::done()
    }

    /// Arrive at a barrier. If this is the last party, everyone is released
    /// (sleepers woken, spinners released, both in arrival order; the
    /// barrier's lists keep their capacity for the next generation);
    /// otherwise the caller blocks (`spin == false`) or starts spinning.
    pub fn barrier_arrive(&mut self, b: BarrierId, tid: Tid, spin: bool) -> OpOutcome {
        let bar = &mut self.barriers[b.0 as usize];
        let arrived = bar.blocked.len() + bar.spinning.len() + 1;
        if arrived == bar.parties {
            bar.generation += 1;
            self.woken.extend(bar.blocked.drain(..).map(|t| (t, None)));
            self.released.append(&mut bar.spinning);
            OpOutcome::done()
        } else if spin {
            bar.spinning.push(tid);
            OpOutcome::spinning()
        } else {
            bar.blocked.push(tid);
            OpOutcome::blocked()
        }
    }

    /// A spinner's budget expired: it converts into a blocked waiter.
    /// Returns `false` if the task is no longer spinning there (already
    /// released), in which case nothing changed.
    pub fn barrier_spin_timeout(&mut self, b: BarrierId, tid: Tid, generation: u64) -> bool {
        let bar = &mut self.barriers[b.0 as usize];
        if bar.generation != generation {
            return false;
        }
        match bar.spinning.iter().position(|&t| t == tid) {
            Some(i) => {
                bar.spinning.remove(i);
                bar.blocked.push(tid);
                true
            }
            None => false,
        }
    }

    /// Current generation of a barrier (for stale-timeout detection).
    pub fn barrier_generation(&self, b: BarrierId) -> u64 {
        self.barriers[b.0 as usize].generation
    }

    /// Push `v` into queue `q`. Delivers directly to a waiting getter if
    /// any; blocks the caller while the queue is full.
    pub fn queue_put(&mut self, q: QueueId, tid: Tid, v: u64) -> OpOutcome {
        let qu = &mut self.queues[q.0 as usize];
        if let Some(getter) = qu.getters.pop_front() {
            debug_assert!(qu.items.is_empty());
            self.woken.push((getter, Some(v)));
            return OpOutcome::done();
        }
        if qu.items.len() < qu.capacity {
            qu.items.push_back(v);
            OpOutcome::done()
        } else {
            qu.putters.push_back((tid, v));
            OpOutcome::blocked()
        }
    }

    /// Pop from queue `q`. Blocks while empty; unblocks the oldest waiting
    /// putter if the queue was full.
    pub fn queue_get(&mut self, q: QueueId, tid: Tid) -> OpOutcome {
        let qu = &mut self.queues[q.0 as usize];
        match qu.items.pop_front() {
            Some(v) => {
                if let Some((putter, pv)) = qu.putters.pop_front() {
                    qu.items.push_back(pv);
                    self.woken.push((putter, None));
                }
                OpOutcome {
                    value: Some(v),
                    ..Default::default()
                }
            }
            None => {
                qu.getters.push_back(tid);
                OpOutcome::blocked()
            }
        }
    }

    /// Remove `tid`'s waiter record from the object it is blocked on, in
    /// preparation for a spurious wakeup. Returns `false` if the task is no
    /// longer registered there (e.g. it was just granted mutex ownership in
    /// the same instant, or the barrier already released) — in that case
    /// the spurious wake must not be injected.
    pub fn remove_waiter(&mut self, op: BlockedOn, tid: Tid) -> bool {
        match op {
            BlockedOn::Timer { .. } => true,
            BlockedOn::Mutex(m) => {
                let mx = &mut self.mutexes[m.0 as usize];
                match mx.waiters.iter().position(|&t| t == tid) {
                    Some(i) => {
                        mx.waiters.remove(i);
                        true
                    }
                    None => false,
                }
            }
            BlockedOn::Sem(s) => {
                let sem = &mut self.sems[s.0 as usize];
                match sem.waiters.iter().position(|&t| t == tid) {
                    Some(i) => {
                        sem.waiters.remove(i);
                        true
                    }
                    None => false,
                }
            }
            BlockedOn::Barrier {
                barrier,
                generation,
            } => {
                let bar = &mut self.barriers[barrier.0 as usize];
                if bar.generation != generation {
                    return false;
                }
                match bar.blocked.iter().position(|&t| t == tid) {
                    Some(i) => {
                        bar.blocked.remove(i);
                        true
                    }
                    None => false,
                }
            }
            BlockedOn::QueuePut { queue, .. } => {
                let qu = &mut self.queues[queue.0 as usize];
                match qu.putters.iter().position(|&(t, _)| t == tid) {
                    Some(i) => {
                        qu.putters.remove(i);
                        true
                    }
                    None => false,
                }
            }
            BlockedOn::QueueGet(q) => {
                let qu = &mut self.queues[q.0 as usize];
                match qu.getters.iter().position(|&t| t == tid) {
                    Some(i) => {
                        qu.getters.remove(i);
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Number of items currently buffered in `q`.
    pub fn queue_len(&self, q: QueueId) -> usize {
        self.queues[q.0 as usize].items.len()
    }

    /// Number of tasks blocked waiting to get from `q`.
    pub fn queue_waiting_getters(&self, q: QueueId) -> usize {
        self.queues[q.0 as usize].getters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain the wake buffer, as the kernel does after every operation.
    fn woken(s: &mut SyncTable) -> Vec<(Tid, Option<u64>)> {
        std::mem::take(&mut s.woken)
    }

    /// Drain the released-spinner buffer.
    fn released(s: &mut SyncTable) -> Vec<Tid> {
        std::mem::take(&mut s.released)
    }

    #[test]
    fn mutex_uncontended_and_handoff() {
        let mut s = SyncTable::new();
        let m = s.new_mutex();
        let a = Tid(1);
        let b = Tid(2);
        assert!(!s.mutex_lock(m, a).block);
        let r = s.mutex_lock(m, b);
        assert!(r.block);
        assert!(!s.mutex_unlock(m, a).block);
        assert_eq!(woken(&mut s), vec![(b, None)]); // ownership handed to b
        s.mutex_unlock(m, b);
        assert!(woken(&mut s).is_empty());
        // now free again
        assert!(!s.mutex_lock(m, a).block);
        assert!(woken(&mut s).is_empty() && released(&mut s).is_empty());
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn mutex_unlock_by_non_owner_panics() {
        let mut s = SyncTable::new();
        let m = s.new_mutex();
        s.mutex_lock(m, Tid(1));
        s.mutex_unlock(m, Tid(2));
    }

    #[test]
    fn sem_counts_and_wakes_fifo() {
        let mut s = SyncTable::new();
        let sem = s.new_sem(1);
        assert!(!s.sem_wait(sem, Tid(1)).block);
        assert!(s.sem_wait(sem, Tid(2)).block);
        assert!(s.sem_wait(sem, Tid(3)).block);
        s.sem_post(sem);
        assert_eq!(woken(&mut s), vec![(Tid(2), None)]);
        s.sem_post(sem);
        assert_eq!(woken(&mut s), vec![(Tid(3), None)]);
        s.sem_post(sem);
        assert!(woken(&mut s).is_empty()); // count back to 1
        assert!(!s.sem_wait(sem, Tid(4)).block);
    }

    #[test]
    fn barrier_releases_all_on_last_arrival() {
        let mut s = SyncTable::new();
        let b = s.new_barrier(3);
        assert!(s.barrier_arrive(b, Tid(1), false).block);
        let r = s.barrier_arrive(b, Tid(2), true);
        assert!(r.spin && !r.block);
        assert!(woken(&mut s).is_empty() && released(&mut s).is_empty());
        let r = s.barrier_arrive(b, Tid(3), false);
        assert!(!r.block && !r.spin);
        assert_eq!(woken(&mut s), vec![(Tid(1), None)]);
        assert_eq!(released(&mut s), vec![Tid(2)]);
        assert_eq!(s.barrier_generation(b), 1);
    }

    #[test]
    fn barrier_is_cyclic() {
        let mut s = SyncTable::new();
        let b = s.new_barrier(2);
        assert!(s.barrier_arrive(b, Tid(1), false).block);
        s.barrier_arrive(b, Tid(2), false);
        assert_eq!(woken(&mut s).len(), 1);
        // second round works identically, in the first round's storage
        let kept = s.barriers[b.0 as usize].blocked.capacity();
        assert!(kept > 0);
        assert!(s.barrier_arrive(b, Tid(1), false).block);
        s.barrier_arrive(b, Tid(2), false);
        assert_eq!(woken(&mut s).len(), 1);
        assert_eq!(s.barrier_generation(b), 2);
        assert_eq!(s.barriers[b.0 as usize].blocked.capacity(), kept);
    }

    #[test]
    fn spin_timeout_converts_to_blocked() {
        let mut s = SyncTable::new();
        let b = s.new_barrier(2);
        let gen = s.barrier_generation(b);
        assert!(s.barrier_arrive(b, Tid(1), true).spin);
        assert!(s.barrier_spin_timeout(b, Tid(1), gen));
        // Now Tid(1) is a blocked waiter; last arrival wakes it.
        s.barrier_arrive(b, Tid(2), false);
        assert_eq!(woken(&mut s), vec![(Tid(1), None)]);
        assert!(released(&mut s).is_empty());
    }

    #[test]
    fn stale_spin_timeout_is_rejected() {
        let mut s = SyncTable::new();
        let b = s.new_barrier(2);
        let gen = s.barrier_generation(b);
        assert!(s.barrier_arrive(b, Tid(1), true).spin);
        s.barrier_arrive(b, Tid(2), false);
        assert!(woken(&mut s).is_empty());
        assert_eq!(released(&mut s), vec![Tid(1)]);
        // Timeout that raced with the release must be a no-op.
        assert!(!s.barrier_spin_timeout(b, Tid(1), gen));
    }

    #[test]
    fn remove_waiter_for_spurious_wakeups() {
        let mut s = SyncTable::new();
        let m = s.new_mutex();
        s.mutex_lock(m, Tid(1));
        s.mutex_lock(m, Tid(2));
        // Tid(2) is a waiter: removable once, then gone.
        assert!(s.remove_waiter(BlockedOn::Mutex(m), Tid(2)));
        assert!(!s.remove_waiter(BlockedOn::Mutex(m), Tid(2)));
        // Unlock now finds no waiter; the retry path must re-acquire.
        s.mutex_unlock(m, Tid(1));
        assert!(woken(&mut s).is_empty());
        assert!(!s.mutex_lock(m, Tid(2)).block);

        let b = s.new_barrier(2);
        let generation = s.barrier_generation(b);
        s.barrier_arrive(b, Tid(3), false);
        assert!(s.remove_waiter(
            BlockedOn::Barrier {
                barrier: b,
                generation
            },
            Tid(3)
        ));
        // Stale generation (barrier already released) is rejected.
        s.barrier_arrive(b, Tid(3), false);
        s.barrier_arrive(b, Tid(4), false);
        assert_eq!(woken(&mut s).len(), 1);
        assert!(!s.remove_waiter(
            BlockedOn::Barrier {
                barrier: b,
                generation
            },
            Tid(3)
        ));

        let q = s.new_queue(1);
        s.queue_put(q, Tid(5), 7);
        s.queue_put(q, Tid(6), 8); // blocks: queue full
        assert!(s.remove_waiter(BlockedOn::QueuePut { queue: q, value: 8 }, Tid(6)));
        // The removed putter's value left with it: only item 7 remains.
        assert_eq!(s.queue_get(q, Tid(5)).value, Some(7));
        assert!(woken(&mut s).is_empty());
        assert!(s.queue_get(q, Tid(5)).block);
        assert!(s.remove_waiter(BlockedOn::QueueGet(q), Tid(5)));

        // Timer waits have no object-side record.
        assert!(s.remove_waiter(BlockedOn::Timer { deadline: Time(9) }, Tid(1)));
    }

    #[test]
    fn queue_put_get_direct_handoff() {
        let mut s = SyncTable::new();
        let q = s.new_queue(2);
        // getter first: blocks, then receives directly from put
        assert!(s.queue_get(q, Tid(1)).block);
        let r = s.queue_put(q, Tid(2), 99);
        assert!(!r.block && r.value.is_none());
        assert_eq!(woken(&mut s), vec![(Tid(1), Some(99))]);
        assert_eq!(s.queue_len(q), 0);
    }

    #[test]
    fn queue_buffers_until_full_then_blocks_putters() {
        let mut s = SyncTable::new();
        let q = s.new_queue(2);
        assert!(!s.queue_put(q, Tid(1), 1).block);
        assert!(!s.queue_put(q, Tid(1), 2).block);
        assert!(s.queue_put(q, Tid(1), 3).block); // full
        assert!(woken(&mut s).is_empty());
        let r = s.queue_get(q, Tid(2));
        assert_eq!(r.value, Some(1));
        // blocked putter's item entered the queue; putter woken
        assert_eq!(woken(&mut s), vec![(Tid(1), None)]);
        assert_eq!(s.queue_len(q), 2);
        assert_eq!(s.queue_get(q, Tid(2)).value, Some(2));
        assert_eq!(s.queue_get(q, Tid(2)).value, Some(3));
        assert!(s.queue_get(q, Tid(2)).block);
        assert!(woken(&mut s).is_empty());
        assert_eq!(s.queue_waiting_getters(q), 1);
    }
}
