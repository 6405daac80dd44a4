//! The ordered runqueue behind CFS, EEVDF and the scx dispatch queues.
//!
//! Linux keeps CFS's runnable entities in a red-black tree and caches its
//! leftmost node (`rb_root_cached`), so a pick reads one pointer and only
//! inserts and removes walk the tree. [`Timeline`] gives the same answers
//! from one sorted `VecDeque` of unique keys:
//!
//! * [`Timeline::first`], [`Timeline::last`] and [`Timeline::pop_first`]
//!   read or take an end in O(1);
//! * [`Timeline::insert`] appends a key past the back or prepends one
//!   before the front without a search (a FIFO's rising arrival numbers, a
//!   put-back running task with the largest vruntime), and otherwise
//!   binary-searches and shifts the shorter side, min(i, n − i) entries;
//! * [`Timeline::remove`] binary-searches and shifts the shorter side;
//! * [`Timeline::take_first_where`] finds the first key a predicate
//!   accepts and removes it in the same walk (EEVDF's eligible pick, the
//!   idle steals' first task allowed on the thief).
//!
//! The runqueues this serves hold from one to a few hundred keys (the
//! deepest in the corpus is fig6's 512 spinners on one CPU). At 2, 80 and
//! 512 queued tasks the `runqueue_depth` micro-benches run a wakeup,
//! put-back and pick cycle faster on the deque than on the `BTreeSet` it
//! replaced.
//!
//! A `BTreeSet` keeps its order by construction; this code keeps it by
//! hand, so the class audits walk their timelines through
//! [`Timeline::audit_each`], which also fails on two adjacent keys that do
//! not strictly ascend.

use std::collections::{vec_deque, VecDeque};
use std::fmt::Debug;

/// A set of keys kept in ascending order, with O(1) access to both ends.
/// See the module docs for the cost of each operation.
#[derive(Debug, Clone)]
pub struct Timeline<K> {
    /// Strictly ascending: sorted, no duplicates.
    keys: VecDeque<K>,
}

impl<K> Default for Timeline<K> {
    fn default() -> Timeline<K> {
        Timeline {
            keys: VecDeque::new(),
        }
    }
}

impl<K: Ord> Timeline<K> {
    /// An empty timeline; allocates nothing until the first insert.
    pub fn new() -> Timeline<K> {
        Timeline::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no key is held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The smallest key.
    pub fn first(&self) -> Option<&K> {
        self.keys.front()
    }

    /// The largest key.
    pub fn last(&self) -> Option<&K> {
        self.keys.back()
    }

    /// Take the smallest key out.
    pub fn pop_first(&mut self) -> Option<K> {
        self.keys.pop_front()
    }

    /// Add `key`; `false` (and no change) if it is already held.
    pub fn insert(&mut self, key: K) -> bool {
        match (self.keys.front(), self.keys.back()) {
            (None, _) => self.keys.push_back(key),
            (_, Some(back)) if *back < key => self.keys.push_back(key),
            (Some(front), _) if key < *front => self.keys.push_front(key),
            _ => match self.keys.binary_search(&key) {
                Ok(_) => return false,
                Err(i) => self.keys.insert(i, key),
            },
        }
        true
    }

    /// Take `key` out; `false` if it was not held.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.keys.binary_search(key) {
            Ok(i) => self.keys.remove(i).is_some(),
            Err(_) => false,
        }
    }

    /// Take out the first key, in order, that `pred` accepts.
    pub fn take_first_where(&mut self, pred: impl FnMut(&K) -> bool) -> Option<K> {
        let i = self.keys.iter().position(pred)?;
        self.keys.remove(i)
    }

    /// The keys in ascending order.
    pub fn iter(&self) -> vec_deque::Iter<'_, K> {
        self.keys.iter()
    }

    /// Hand every key to `f` in order, stopping at its first error. Fails
    /// as well on a key that does not strictly follow the one before it: a
    /// broken order would silently change every later pick.
    // Inlined into the audits: SchedSan runs one for every CPU a strict
    // event touches, mostly on queues of one or two keys.
    #[inline]
    pub fn audit_each(&self, mut f: impl FnMut(&K) -> Result<(), String>) -> Result<(), String>
    where
        K: Debug,
    {
        let mut prev: Option<&K> = None;
        for key in &self.keys {
            if let Some(p) = prev.filter(|p| *p >= key) {
                return Err(format!("runqueue out of order: {p:?} before {key:?}"));
            }
            f(key)?;
            prev = Some(key);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(keys: &[u32]) -> Timeline<u32> {
        let mut t = Timeline::new();
        for &k in keys {
            assert!(t.insert(k), "{k} inserted twice");
        }
        t
    }

    #[test]
    fn inserts_keep_order_at_both_ends_and_in_the_middle() {
        let mut t = timeline(&[50, 60, 40, 55, 10, 70]);
        assert!(!t.insert(55), "duplicate in the middle");
        assert!(!t.insert(10), "duplicate at the front");
        assert!(!t.insert(70), "duplicate at the back");
        assert_eq!(
            t.iter().copied().collect::<Vec<_>>(),
            [10, 40, 50, 55, 60, 70]
        );
        assert_eq!((t.first(), t.last(), t.len()), (Some(&10), Some(&70), 6));
        assert!(t.remove(&55) && !t.remove(&55) && !t.remove(&0));
        assert_eq!(t.take_first_where(|&k| k > 40), Some(50));
        assert_eq!(t.take_first_where(|&k| k > 70), None);
        assert_eq!(t.pop_first(), Some(10));
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), [40, 60, 70]);
        t.audit_each(|_| Ok(())).unwrap();
    }

    #[test]
    fn audit_each_fails_on_keys_out_of_order() {
        let ok = timeline(&[1, 2, 3]);
        let mut seen = Vec::new();
        ok.audit_each(|&k| {
            seen.push(k);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [1, 2, 3]);
        let err = ok
            .audit_each(|&k| if k == 2 { Err("two".into()) } else { Ok(()) })
            .unwrap_err();
        assert_eq!(err, "two", "the caller's check reports through the walk");

        for (keys, bad) in [(vec![1, 3, 2], "3 before 2"), (vec![1, 2, 2], "2 before 2")] {
            let broken = Timeline {
                keys: VecDeque::from(keys),
            };
            let err = broken.audit_each(|_| Ok(())).unwrap_err();
            assert!(err.contains("out of order") && err.contains(bad), "{err}");
        }
    }
}
