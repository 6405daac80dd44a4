//! Model-based property test of [`TickLane`]: ticks armed and re-armed the
//! way the kernel does it — a staggered start, then in-order, jittered and
//! missed-tick re-arms of each fired CPU, plus CPUs dropping out and coming
//! back online one period later — always fire in the `(deadline, seq)`
//! order of a sorted model.

use std::collections::BTreeSet;

use kernel::ticks::TickLane;
use proptest::prelude::*;
use simcore::Time;
use topology::CpuId;

const TICK: u64 = 1_000_000;

/// What happens to the CPU whose tick just fired.
#[derive(Debug, Clone)]
enum Op {
    /// Re-arm one period later (a plain `push_back`).
    InOrder,
    /// Re-arm one period plus up to `jitter` ns later.
    Jittered(u64),
    /// The next tick is lost: re-arm two periods (plus jitter) later.
    Missed(u64),
    /// Hotplug off: the tick chain dies.
    Offline,
    /// Hotplug on: re-arm the longest-offline CPU one period from now,
    /// possibly ahead of jittered or missed ticks already armed.
    Online,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::InOrder),
        3 => (0u64..300_000).prop_map(Op::Jittered),
        1 => (0u64..300_000).prop_map(Op::Missed),
        1 => Just(Op::Offline),
        1 => Just(Op::Online),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn lane_fires_in_sorted_model_order(
        ncpu in 1usize..48,
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut lane = TickLane::new(ncpu);
        let mut model: BTreeSet<(Time, u64, u32)> = BTreeSet::new();
        let mut seq = 0u64;
        let mut arm = |lane: &mut TickLane, model: &mut BTreeSet<_>, cpu: u32, at: Time| {
            lane.arm(CpuId(cpu), at, seq);
            model.insert((at, seq, cpu));
            seq += 1;
        };
        for cpu in 0..ncpu as u32 {
            let stagger = TICK * u64::from(cpu) / ncpu as u64;
            arm(&mut lane, &mut model, cpu, Time(TICK + stagger));
        }
        let mut offline: Vec<u32> = Vec::new();
        let mut now = Time(0);
        for op in ops {
            if let Op::Online = op {
                if !offline.is_empty() {
                    let cpu = offline.remove(0);
                    arm(&mut lane, &mut model, cpu, Time(now.0 + TICK));
                }
                continue;
            }
            let want = model.pop_first();
            let got = lane.pop();
            prop_assert_eq!(got.map(|(at, s, c)| (at, s, c.0)), want, "fire order");
            let Some((at, _, cpu)) = want else {
                continue;
            };
            prop_assert!(at >= now, "lane went back in time");
            now = at;
            let next = match op {
                Op::InOrder => now.0 + TICK,
                Op::Jittered(j) => now.0 + TICK + j,
                Op::Missed(j) => now.0 + 2 * TICK + j,
                Op::Offline => {
                    offline.push(cpu);
                    continue;
                }
                Op::Online => unreachable!("handled above"),
            };
            arm(&mut lane, &mut model, cpu, Time(next));
            prop_assert_eq!(
                lane.peek().map(|(at, s, c)| (at, s, c.0)),
                model.first().copied(),
                "front after re-arm"
            );
        }
        while let Some(want) = model.pop_first() {
            prop_assert_eq!(lane.pop().map(|(at, s, c)| (at, s, c.0)), Some(want), "drain");
        }
        prop_assert_eq!(lane.pop(), None);
    }
}
