//! Model-based property test of [`RunLane`]: run completions armed,
//! re-armed and disarmed the way the kernel does it — a dispatch arms a
//! CPU, charged overhead re-arms it later, a new segment re-arms it at any
//! deadline, a preemption or block disarms it, and the earliest completion
//! fires — always fire in the `(deadline, seq)` order of a sorted model,
//! with `len()`, `is_armed()` and `peek()` exact after every operation.

use std::collections::BTreeSet;

use kernel::ticks::RunLane;
use proptest::prelude::*;
use simcore::Time;
use topology::CpuId;

/// One operation on the CPU at index `cpu % ncpu` (or on the lane head).
#[derive(Debug, Clone)]
enum Op {
    /// Arm a completion `delta` ns from now (a dispatch). Re-arms the CPU
    /// if it already has one, like a new run segment.
    Arm(u32, u64),
    /// Postpone an armed completion by `delta` ns (charged overhead).
    Later(u32, u64),
    /// Re-arm an armed completion at `now + delta`, possibly earlier than
    /// before (a short segment replacing a long one).
    Earlier(u32, u64),
    /// Disarm (preemption, block, yield, exit or a spin segment).
    Disarm(u32),
    /// Fire the earliest completion; advances `now` to its deadline.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u32>(), 0u64..5_000_000).prop_map(|(c, d)| Op::Arm(c, d)),
        // Equal deadlines on several CPUs, so only the seq breaks the tie.
        2 => (any::<u32>(), 0u64..3).prop_map(|(c, d)| Op::Arm(c, d)),
        2 => (any::<u32>(), 0u64..50_000).prop_map(|(c, d)| Op::Later(c, d)),
        1 => (any::<u32>(), 0u64..200_000).prop_map(|(c, d)| Op::Earlier(c, d)),
        2 => any::<u32>().prop_map(Op::Disarm),
        4 => Just(Op::Pop),
    ]
}

fn ncpu_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => 1usize..=48,
        1 => Just(512usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn lane_fires_in_sorted_model_order(
        ncpu in ncpu_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut lane = RunLane::new(ncpu);
        let mut model: BTreeSet<(Time, u64, u32)> = BTreeSet::new();
        let mut armed: Vec<Option<(Time, u64)>> = vec![None; ncpu];
        let mut seq = 0u64;
        let mut now = Time(0);
        for op in ops {
            // The new deadline for the chosen CPU, or `None` to disarm.
            let (cpu, at) = match op {
                Op::Pop => {
                    let want = model.pop_first();
                    prop_assert_eq!(lane.pop().map(|(at, s, c)| (at, s, c.0)), want, "fire order");
                    if let Some((at, _, cpu)) = want {
                        prop_assert!(at >= now, "lane went back in time");
                        now = at;
                        armed[cpu as usize] = None;
                    }
                    check(&lane, &model, &armed)?;
                    continue;
                }
                Op::Arm(c, d) | Op::Earlier(c, d) => {
                    let cpu = c as usize % ncpu;
                    if matches!(op, Op::Earlier(..)) && armed[cpu].is_none() {
                        continue;
                    }
                    (cpu, Some(Time(now.0 + d)))
                }
                Op::Later(c, d) => {
                    let cpu = c as usize % ncpu;
                    let Some((at, _)) = armed[cpu] else {
                        continue;
                    };
                    (cpu, Some(Time(at.0 + d)))
                }
                Op::Disarm(c) => (c as usize % ncpu, None),
            };
            if let Some((old_at, old_seq)) = armed[cpu].take() {
                model.remove(&(old_at, old_seq, cpu as u32));
            }
            match at {
                Some(at) => {
                    lane.arm(CpuId(cpu as u32), at, seq);
                    model.insert((at, seq, cpu as u32));
                    armed[cpu] = Some((at, seq));
                    seq += 1;
                }
                None => lane.disarm(CpuId(cpu as u32)),
            }
            check(&lane, &model, &armed)?;
        }
        while let Some(want) = model.pop_first() {
            prop_assert_eq!(lane.pop().map(|(at, s, c)| (at, s, c.0)), Some(want), "drain");
        }
        prop_assert_eq!(lane.pop(), None);
        prop_assert!(lane.is_empty());
    }
}

/// `len()`, `is_armed()` and `peek()` agree with the model.
fn check(
    lane: &RunLane,
    model: &BTreeSet<(Time, u64, u32)>,
    armed: &[Option<(Time, u64)>],
) -> Result<(), String> {
    prop_assert_eq!(lane.len(), model.len(), "len");
    prop_assert_eq!(
        lane.peek().map(|(at, s, c)| (at, s, c.0)),
        model.first().copied(),
        "peek"
    );
    for (cpu, a) in armed.iter().enumerate() {
        prop_assert_eq!(lane.is_armed(CpuId(cpu as u32)), a.is_some(), "is_armed");
    }
    Ok(())
}
