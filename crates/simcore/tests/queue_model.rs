//! Model-based property test of [`EventQueue`]: under any interleaving of
//! near and far-future pushes, zero-delay pushes through `push_now`, clock
//! advances, pops, peeks and sequence burns, the queue behaves exactly like
//! a `BTreeMap` keyed by `(time, seq)`, and `len()` is exact after every
//! operation.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::{EventQueue, Time};

/// One operation of a generated sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + delta`: same-instant ties, near-term deltas and
    /// far-future ones.
    Push(u64),
    /// Push at `now` through `push_now`, as the kernel queues a
    /// reschedule or a spinner's continuation.
    PushNow,
    /// Move `now` forward without a pop, as a tick or a run completion
    /// (merged from outside the queue) moves the kernel's clock.
    Advance(u64),
    /// Pop one event; advances `now` to the popped time.
    Pop,
    /// Burn a sequence number, as the kernel's tick and run lanes do.
    AllocSeq,
    /// Peek the head key and time.
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u64..4).prop_map(Op::Push),
        5 => (0u64..200_000).prop_map(Op::Push),
        1 => (0u64..(1 << 44)).prop_map(Op::Push),
        4 => Just(Op::PushNow),
        1 => (0u64..4).prop_map(Op::Advance),
        1 => (0u64..200_000).prop_map(Op::Advance),
        4 => Just(Op::Pop),
        1 => Just(Op::AllocSeq),
        2 => Just(Op::Peek),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn queue_matches_a_sorted_map(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(Time, u64), u32> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut now = 0u64;
        let mut payload = 0u32;
        for op in ops {
            match op {
                Op::Push(delta) => {
                    let key = (Time(now.saturating_add(delta)), next_seq);
                    next_seq += 1;
                    q.push(key.0, payload);
                    model.insert(key, payload);
                    payload += 1;
                }
                Op::PushNow => {
                    let key = (Time(now), next_seq);
                    next_seq += 1;
                    q.push_now(key.0, payload);
                    model.insert(key, payload);
                    payload += 1;
                }
                Op::Advance(delta) => {
                    // The clock never passes a pending event: the kernel
                    // steps to the earliest of its sources.
                    let next = model.keys().next().map_or(u64::MAX, |&(at, _)| at.0);
                    now = now.saturating_add(delta).min(next);
                }
                Op::Pop => {
                    let want = model.pop_first().map(|((at, _), p)| (at, p));
                    prop_assert_eq!(q.pop(), want, "pop mismatch");
                    if let Some((at, _)) = want {
                        now = at.0;
                    }
                }
                Op::AllocSeq => {
                    prop_assert_eq!(q.alloc_seq(), next_seq);
                    next_seq += 1;
                }
                Op::Peek => {
                    let want = model.keys().next().copied();
                    prop_assert_eq!(q.peek_key(), want);
                    prop_assert_eq!(q.peek_time(), want.map(|(at, _)| at));
                }
            }
            prop_assert_eq!(q.len(), model.len(), "len diverged");
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }

        // Drain to the end: the tails must match event for event.
        while let Some(((at, _), p)) = model.pop_first() {
            prop_assert_eq!(q.pop(), Some((at, p)), "drain mismatch");
        }
        prop_assert_eq!(q.pop(), None);
    }
}
