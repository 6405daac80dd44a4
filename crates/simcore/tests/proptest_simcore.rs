//! Property tests of the simulation substrate.

use proptest::prelude::*;
use simcore::{Dur, EventQueue, SimRng, Time};

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// insertion order, and same-time events keep FIFO order.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time(t), i);
        }
        let mut last: Option<(Time, usize)> = None;
        let mut popped = 0;
        while let Some((at, idx)) = q.pop() {
            popped += 1;
            prop_assert_eq!(Time(times[idx]), at, "event payload matches its time");
            if let Some((lt, lidx)) = last {
                prop_assert!(at >= lt, "time ordering violated");
                if at == lt {
                    prop_assert!(idx > lidx, "FIFO violated for equal times");
                }
            }
            last = Some((at, idx));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// gen_range stays in bounds for arbitrary (lo, hi).
    #[test]
    fn rng_range_in_bounds(seed: u64, lo in 0u64..1_000_000, span in 0u64..1_000_000) {
        let hi = lo + span;
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let v = rng.gen_range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    /// Time/Dur arithmetic round-trips.
    #[test]
    fn time_arithmetic_round_trip(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = Time(a);
        let dur = Dur(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!(t.saturating_since(t + dur), Dur::ZERO);
    }
}
