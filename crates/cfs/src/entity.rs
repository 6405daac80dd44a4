//! Scheduling entities and the time-ordered runqueue.
//!
//! CFS queues *entities* — tasks or cgroup nodes — ordered by virtual
//! runtime. Linux uses a red-black tree with a cached leftmost node
//! (`rb_root_cached`); we use a [`Timeline`] keyed by `(vruntime, entity)`,
//! a sorted deque whose two ends are O(1) reads, so the pick, the
//! `min_vruntime` update and the fork placement's maximum vruntime never
//! search, and the entity breaks vruntime ties deterministically.

use sched_api::{GroupId, Tid, Timeline};
use simcore::{Dur, Time};

use crate::pelt::Pelt;

/// Key identifying an entity in a runqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EntKey {
    /// A task entity.
    Task(Tid),
    /// A cgroup entity (one per group per CPU).
    Group(GroupId),
}

/// Common entity state (vruntime, weight, load).
#[derive(Debug, Clone)]
pub struct Entity {
    /// Load weight (from nice for tasks; computed shares for groups).
    pub weight: u64,
    /// Virtual runtime in ns. Absolute while the entity is queued or
    /// running; stored *relative to its rq's `min_vruntime`* while dequeued
    /// so it transfers across CPUs (Linux renormalises the same way).
    pub vruntime: u64,
    /// When the entity last started executing (for `update_curr`).
    pub exec_start: Time,
    /// Total execution time of the entity.
    pub sum_exec: Dur,
    /// Decaying runnable average.
    pub pelt: Pelt,
    /// This entity's last pushed contribution to its CPU's load sum.
    pub load_contrib: u64,
}

impl Entity {
    /// Entity with the given weight; PELT starts at max so new tasks are
    /// immediately visible to the balancer (as in Linux).
    pub fn new(weight: u64, now: Time) -> Entity {
        Entity {
            weight,
            vruntime: 0,
            exec_start: now,
            sum_exec: Dur::ZERO,
            pelt: Pelt::new_max(now),
            load_contrib: 0,
        }
    }

    /// vruntime delta for `delta` of real execution at this weight:
    /// `delta × NICE_0_LOAD / weight` (the shared helper keeps the nice-0
    /// fast path bit-identical to the exact division for all weights).
    pub fn calc_delta_fair(&self, delta: Dur) -> u64 {
        sched_api::weights::calc_delta_fair(delta.as_nanos(), self.weight)
    }
}

/// One CFS runqueue: a vruntime-ordered timeline plus `min_vruntime`
/// tracking.
#[derive(Debug, Default)]
pub struct CfsRq {
    queue: Timeline<(u64, EntKey)>,
    /// Monotonic lower bound on the vruntime of entities in this rq.
    pub min_vruntime: u64,
    /// The entity currently executing out of this rq (removed from the
    /// queue while it runs, as in Linux's `set_next_entity`).
    pub curr: Option<EntKey>,
    /// Sum of queued weights, including the running entity.
    pub weight_sum: u64,
    /// Number of entities, including the running one.
    pub nr: usize,
}

impl CfsRq {
    /// Insert an entity (by key/vruntime/weight) into the queue.
    pub fn insert(&mut self, key: EntKey, vruntime: u64, weight: u64) {
        let fresh = self.queue.insert((vruntime, key));
        debug_assert!(fresh, "{key:?} already queued");
        self.weight_sum += weight;
        self.nr += 1;
    }

    /// Remove a queued (non-running) entity.
    pub fn remove(&mut self, key: EntKey, vruntime: u64, weight: u64) {
        let had = self.queue.remove(&(vruntime, key));
        debug_assert!(had, "{key:?} not queued at {vruntime}");
        self.weight_sum -= weight;
        self.nr -= 1;
    }

    /// The entity with the smallest vruntime, if any.
    pub fn leftmost(&self) -> Option<(u64, EntKey)> {
        self.queue.first().copied()
    }

    /// The largest queued vruntime (the paper's fork placement rule reads
    /// "the maximum vruntime of the threads waiting in the runqueue").
    pub fn max_vruntime(&self) -> Option<u64> {
        self.queue.last().map(|&(v, _)| v)
    }

    /// Take the leftmost entity out of the queue and make it `curr`.
    /// The caller accounts weight: the running entity stays counted.
    pub fn pick(&mut self) -> Option<(u64, EntKey)> {
        debug_assert!(self.curr.is_none(), "pick with running entity");
        let e = self.queue.pop_first()?;
        self.curr = Some(e.1);
        Some(e)
    }

    /// Reinsert the running entity after it stops running.
    pub fn put_prev(&mut self, key: EntKey, vruntime: u64) {
        debug_assert_eq!(self.curr, Some(key));
        self.curr = None;
        let fresh = self.queue.insert((vruntime, key));
        debug_assert!(fresh);
    }

    /// The running entity leaves the rq entirely (sleep/exit/migration).
    pub fn clear_curr(&mut self, key: EntKey, weight: u64) {
        debug_assert_eq!(self.curr, Some(key));
        self.curr = None;
        self.weight_sum -= weight;
        self.nr -= 1;
    }

    /// `true` if no entities are queued or running here.
    pub fn is_empty(&self) -> bool {
        self.nr == 0
    }

    /// Advance `min_vruntime` monotonically toward the smallest live
    /// vruntime (running entity's vruntime passed by the caller).
    pub fn refresh_min_vruntime(&mut self, curr_vruntime: Option<u64>) {
        let left = self.leftmost().map(|(v, _)| v);
        let candidate = match (curr_vruntime, left) {
            (Some(c), Some(l)) => Some(c.min(l)),
            (Some(c), None) => Some(c),
            (None, l) => l,
        };
        if let Some(c) = candidate {
            self.min_vruntime = self.min_vruntime.max(c);
        }
    }

    /// Iterate over queued entities in vruntime order.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, EntKey)> {
        self.queue.iter()
    }

    /// Hand every queued entity to `f` in vruntime order, failing as well
    /// if the order is broken ([`Timeline::audit_each`]).
    pub fn audit_each(
        &self,
        f: impl FnMut(&(u64, EntKey)) -> Result<(), String>,
    ) -> Result<(), String> {
        self.queue.audit_each(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> EntKey {
        EntKey::Task(Tid(i))
    }

    #[test]
    fn leftmost_order_and_ties() {
        let mut rq = CfsRq::default();
        rq.insert(t(3), 100, 1024);
        rq.insert(t(1), 50, 1024);
        rq.insert(t(2), 50, 1024);
        assert_eq!(rq.leftmost(), Some((50, t(1)))); // tid breaks the tie
        assert_eq!(rq.max_vruntime(), Some(100));
        assert_eq!(rq.nr, 3);
        assert_eq!(rq.weight_sum, 3 * 1024);
    }

    #[test]
    fn pick_and_put_prev_round_trip() {
        let mut rq = CfsRq::default();
        rq.insert(t(1), 10, 1024);
        rq.insert(t(2), 20, 512);
        let (v, k) = rq.pick().unwrap();
        assert_eq!((v, k), (10, t(1)));
        assert_eq!(rq.curr, Some(t(1)));
        assert_eq!(rq.nr, 2, "running entity stays counted");
        rq.put_prev(t(1), 35);
        assert_eq!(rq.leftmost(), Some((20, t(2))));
        assert_eq!(rq.curr, None);
    }

    #[test]
    fn clear_curr_removes_from_accounting() {
        let mut rq = CfsRq::default();
        rq.insert(t(1), 10, 1024);
        rq.pick().unwrap();
        rq.clear_curr(t(1), 1024);
        assert!(rq.is_empty());
        assert_eq!(rq.weight_sum, 0);
    }

    #[test]
    fn min_vruntime_is_monotonic() {
        let mut rq = CfsRq::default();
        rq.insert(t(1), 100, 1024);
        rq.refresh_min_vruntime(None);
        assert_eq!(rq.min_vruntime, 100);
        rq.insert(t(2), 50, 1024);
        rq.refresh_min_vruntime(None);
        assert_eq!(rq.min_vruntime, 100, "never goes backward");
        rq.remove(t(2), 50, 1024);
        rq.remove(t(1), 100, 1024);
        rq.insert(t(3), 500, 1024);
        rq.refresh_min_vruntime(None);
        assert_eq!(rq.min_vruntime, 500);
    }

    #[test]
    fn calc_delta_fair_scales_inverse_to_weight() {
        let now = Time::ZERO;
        let heavy = Entity::new(2048, now);
        let light = Entity::new(512, now);
        let d = Dur::millis(10);
        assert_eq!(heavy.calc_delta_fair(d) * 4, light.calc_delta_fair(d));
    }
}
