//! Model-based property test of [`Timeline`]: random operation sequences
//! run against the timeline and a `BTreeSet` reference, the type the
//! CFS, EEVDF and scx runqueues used before. Keys are drawn from the
//! model's current contents, so inserts land before the front, past the
//! back and in the middle, as duplicates of held keys, and removes hit
//! both held and absent keys; bulk inserts of uniformly placed keys grow
//! the set to a few thousand entries. After every step the two must hold
//! the same keys in the same order, with the same length and ends, and
//! [`Timeline::audit_each`] must visit exactly those keys and find them in
//! order.

use std::collections::BTreeSet;

use proptest::prelude::*;
use sched_api::Timeline;

/// Keys are drawn below this, so a set of a few thousand is dense enough
/// for uniformly drawn keys to collide with held ones.
const SPAN: u64 = 1 << 13;

/// Where a key is drawn, relative to what the model holds.
#[derive(Debug, Clone)]
enum Pos {
    /// Below the first key, by the given gap (saturating at 0).
    Front(u64),
    /// Above the last key, by the given gap.
    Back(u64),
    /// Uniform between the first and the last key (often a held one when
    /// the set is dense).
    Middle(u64),
    /// The held key at this index (modulo the length).
    Held(usize),
    /// Uniform over the whole span.
    Anywhere(u64),
}

impl Pos {
    fn key(&self, model: &BTreeSet<u64>) -> u64 {
        let (Some(&first), Some(&last)) = (model.first(), model.last()) else {
            return match *self {
                Pos::Front(v) | Pos::Back(v) | Pos::Middle(v) | Pos::Anywhere(v) => v % SPAN,
                Pos::Held(i) => i as u64 % SPAN,
            };
        };
        match *self {
            Pos::Front(gap) => first.saturating_sub(1 + gap),
            Pos::Back(gap) => last + 1 + gap,
            Pos::Middle(v) => first + v % (last - first + 1),
            Pos::Held(i) => *model
                .iter()
                .nth(i % model.len())
                .expect("index is below the length"),
            Pos::Anywhere(v) => v % SPAN,
        }
    }
}

/// One step against the timeline and the model.
#[derive(Debug, Clone)]
enum Op {
    Insert(Pos),
    Remove(Pos),
    /// Insert every key of the list (bulk growth, uniformly placed).
    Grow(Vec<u64>),
    PopFirst,
    /// Take the first key `k` with `k % m == r`.
    TakeFirstWhere(u64, u64),
}

fn pos_strategy() -> impl Strategy<Value = Pos> {
    prop_oneof![
        2 => (0u64..4).prop_map(Pos::Front),
        2 => (0u64..4).prop_map(Pos::Back),
        3 => any::<u64>().prop_map(Pos::Middle),
        2 => any::<usize>().prop_map(Pos::Held),
        1 => any::<u64>().prop_map(Pos::Anywhere),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => pos_strategy().prop_map(Op::Insert),
        4 => pos_strategy().prop_map(Op::Remove),
        1 => prop::collection::vec(0u64..SPAN, 1..1000).prop_map(Op::Grow),
        2 => Just(Op::PopFirst),
        2 => (1u64..8, 0u64..8).prop_map(|(m, r)| Op::TakeFirstWhere(m, r % m)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn timeline_matches_a_btreeset(ops in prop::collection::vec(op_strategy(), 1..160)) {
        let mut timeline = Timeline::new();
        let mut model = BTreeSet::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(pos) => {
                    let k = pos.key(&model);
                    prop_assert_eq!(timeline.insert(k), model.insert(k), "step {} insert {}", step, k);
                }
                Op::Remove(pos) => {
                    let k = pos.key(&model);
                    prop_assert_eq!(timeline.remove(&k), model.remove(&k), "step {} remove {}", step, k);
                }
                Op::Grow(keys) => {
                    for &k in keys {
                        prop_assert_eq!(timeline.insert(k), model.insert(k), "step {} grow {}", step, k);
                    }
                }
                Op::PopFirst => {
                    prop_assert_eq!(timeline.pop_first(), model.pop_first(), "step {}", step);
                }
                Op::TakeFirstWhere(m, r) => {
                    let want = model.iter().find(|&&k| k % m == *r).copied();
                    if let Some(k) = want {
                        model.remove(&k);
                    }
                    prop_assert_eq!(
                        timeline.take_first_where(|&k| k % m == *r),
                        want,
                        "step {} take_first_where(% {} == {})", step, m, r
                    );
                }
            }
            prop_assert_eq!(timeline.len(), model.len(), "step {}", step);
            prop_assert_eq!(timeline.is_empty(), model.is_empty(), "step {}", step);
            prop_assert_eq!(timeline.first(), model.first(), "step {}", step);
            prop_assert_eq!(timeline.last(), model.last(), "step {}", step);
            prop_assert!(timeline.iter().eq(model.iter()), "step {}: contents differ", step);
            let mut walked = Vec::with_capacity(model.len());
            let audit = timeline.audit_each(|&k| {
                walked.push(k);
                Ok(())
            });
            prop_assert_eq!(audit, Ok(()), "step {}", step);
            prop_assert!(walked.iter().eq(model.iter()), "step {}: audit walk differs", step);
        }
    }
}
