//! ULE tunables, matching FreeBSD 11.1 (`kern.sched.*`) and §2.2 of the
//! paper.

use sched_api::params::{Dim, ParamSpace, ParamVector};
use simcore::Dur;

/// Interactivity scale maximum (`SCHED_INTERACT_MAX`).
pub const INTERACT_MAX: u64 = 100;
/// The scaling factor `m` (`SCHED_INTERACT_HALF`).
pub const INTERACT_HALF: u64 = 50;

/// Number of interactive priority levels (FreeBSD's interactive timeshare
/// sub-range). Priority 0 is the most urgent interactive level.
pub const INT_PRIO_LEVELS: i32 = 48;
/// First batch priority level.
pub const BATCH_PRIO_MIN: i32 = INT_PRIO_LEVELS;
/// Number of batch priority levels.
pub const BATCH_PRIO_LEVELS: i32 = 88;
/// One-past-the-last batch priority.
pub const BATCH_PRIO_MAX: i32 = BATCH_PRIO_MIN + BATCH_PRIO_LEVELS - 1;
/// Priority reported for an idle CPU (nothing runnable).
pub const IDLE_PRIO: i32 = 255;

/// Number of circular calendar queues in the batch runqueue (`RQ_NQS`).
pub const RQ_NQS: usize = 64;

/// ULE configuration. Defaults follow FreeBSD 11.1 / §2.2.
#[derive(Debug, Clone)]
pub struct UleParams {
    /// Interactivity classification threshold: "a thread is considered
    /// interactive if its score is under ... 30 by default".
    pub interact_thresh: i64,
    /// Sleep/run history window: "the amount of history kept ... is (by
    /// default) limited to the last 5 seconds" (`SCHED_SLP_RUN_MAX`).
    pub slp_run_max: Dur,
    /// Fork history clamp (`SCHED_SLP_RUN_FORK`).
    pub slp_run_fork: Dur,
    /// Scheduler clock period (FreeBSD `stathz` = 127 Hz → one "tick" is
    /// 1/127 s ≈ 7.87 ms).
    pub stat_tick: Dur,
    /// Timeslice for a lone thread: "when a core executes 1 thread, the
    /// timeslice is 10 ticks (78ms)".
    pub slice_ticks: u64,
    /// Lower bound: "constrained to a lower bound of 1 tick".
    pub slice_min_ticks: u64,
    /// Periodic balancing interval bounds: "every 500-1500ms (the duration
    /// of the period is chosen randomly)".
    pub balance_min: Dur,
    /// Upper bound of the balancing interval.
    pub balance_max: Dur,
    /// Minimum load (including the running thread) a CPU must have before
    /// an idle CPU steals from it (`kern.sched.steal_thresh`).
    pub steal_thresh: usize,
    /// How long after last running on a CPU a thread is considered cache
    /// affine there ("if the thread is considered cache affine on the last
    /// core it ran on, then it is placed on this core").
    pub affinity_window: Dur,
    /// Whether the periodic balancer runs at all. FreeBSD shipped with a
    /// bug making it run only once (the paper’s reference \[1\]); the paper fixed it. Setting this to
    /// `false` reproduces the buggy stock behaviour (ablation).
    pub periodic_balance: bool,
    /// CPU-usage window for batch priorities (`SCHED_TICK_TOTAL` ≈ 10 s).
    pub pctcpu_window: Dur,
}

impl Default for UleParams {
    fn default() -> Self {
        let stat_tick = Dur(1_000_000_000 / 127);
        UleParams {
            interact_thresh: 30,
            slp_run_max: Dur::secs(5),
            slp_run_fork: Dur::millis(2500),
            stat_tick,
            slice_ticks: 10,
            slice_min_ticks: 1,
            balance_min: Dur::millis(500),
            balance_max: Dur::millis(1500),
            steal_thresh: 2,
            affinity_window: Dur::millis(50),
            periodic_balance: true,
            pctcpu_window: Dur::secs(10),
        }
    }
}

impl UleParams {
    /// Timeslice for a CPU currently loaded with `load` runnable threads
    /// (including the running one): `slice / load`, at least one tick.
    pub fn slice(&self, load: usize) -> Dur {
        let base = self.stat_tick.saturating_mul(self.slice_ticks);
        if load <= 1 {
            base
        } else {
            (base / load as u64).max(self.stat_tick.saturating_mul(self.slice_min_ticks))
        }
    }
}

/// The searchable subset of [`UleParams`] (`battle tune`): the
/// interactivity threshold, slice sizing, steal threshold, affinity window
/// and balancer cadence. The balancer's min/max interval moves as one
/// dimension — `balance_min` — with the stock 1:3 ratio preserved, so a
/// candidate can never invert the `[min, max]` jitter window. History
/// clamps (`slp_run_max`, fork clamp, `pctcpu_window`) stay fixed;
/// `periodic_balance`, the balancer-bug ablation, is the one switch.
impl ParamSpace for UleParams {
    fn dims() -> Vec<Dim> {
        vec![
            Dim::integer("interact_thresh", 5, 60, 30),
            Dim::integer("slice_ticks", 2, 40, 10),
            Dim::integer("slice_min_ticks", 1, 4, 1),
            Dim::duration(
                "balance_min",
                Dur::millis(100),
                Dur::millis(2000),
                Dur::millis(500),
            ),
            Dim::integer("steal_thresh", 1, 8, 2),
            Dim::duration(
                "affinity_window",
                Dur::millis(5),
                Dur::millis(500),
                Dur::millis(50),
            ),
        ]
    }

    fn to_vector(&self) -> ParamVector {
        ParamVector(vec![
            self.interact_thresh as f64,
            self.slice_ticks as f64,
            self.slice_min_ticks as f64,
            self.balance_min.as_nanos() as f64,
            self.steal_thresh as f64,
            self.affinity_window.as_nanos() as f64,
        ])
    }

    fn from_vector(v: &ParamVector) -> UleParams {
        let d = Self::dims();
        let balance_min = v.dur(3, &d);
        UleParams {
            interact_thresh: v.int(0, &d) as i64,
            slice_ticks: v.int(1, &d),
            slice_min_ticks: v.int(2, &d),
            balance_min,
            // Stock ships 500..1500 ms; keep the 1:3 jitter ratio.
            balance_max: balance_min.saturating_mul(3),
            steal_thresh: v.int(4, &d) as usize,
            affinity_window: v.dur(5, &d),
            ..UleParams::default()
        }
    }

    fn switches(&mut self) -> Vec<(&'static str, &mut bool)> {
        vec![("periodic_balance", &mut self.periodic_balance)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_follows_paper() {
        let p = UleParams::default();
        // 10 ticks at 127 Hz ≈ 78.7 ms for a lone thread.
        let lone = p.slice(1);
        assert!((78..=79).contains(&lone.as_millis()), "{lone}");
        // Divided by the number of threads...
        assert_eq!(p.slice(2), lone / 2);
        // ...but never below one tick (≈7.87 ms).
        let floor = p.slice(100);
        assert_eq!(floor, p.stat_tick);
    }

    #[test]
    fn priority_ranges_are_contiguous() {
        let (min, max, idle) = (BATCH_PRIO_MIN, BATCH_PRIO_MAX, IDLE_PRIO);
        assert_eq!(min, 48);
        assert_eq!(max, 135);
        assert!(idle > max);
    }

    #[test]
    fn default_vector_roundtrips_and_keeps_balance_ratio() {
        let v = UleParams::default().to_vector();
        assert_eq!(v.quantized(&UleParams::dims()), v);
        let p = UleParams::from_vector(&v);
        assert_eq!(p.to_vector(), v);
        assert_eq!(p.interact_thresh, 30);
        assert_eq!(p.balance_min, Dur::millis(500));
        assert_eq!(p.balance_max, Dur::millis(1500));
        assert!(p.periodic_balance, "ablation switch is not searchable");
    }

    #[test]
    fn clamped_vector_never_inverts_the_balance_window() {
        let mut v = UleParams::default().to_vector();
        v.0[3] = Dur::secs(60).as_nanos() as f64; // clamps to 2000 ms
        let p = UleParams::from_vector(&v);
        assert_eq!(p.balance_min, Dur::millis(2000));
        assert_eq!(p.balance_max, Dur::millis(6000));
        assert!(p.balance_min <= p.balance_max);
    }
}
