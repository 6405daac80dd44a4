//! CFS tunables, with the values the paper reports for Linux 4.9.

use sched_api::params::{Dim, ParamSpace, ParamVector};
use simcore::Dur;

/// CFS configuration. Defaults follow §2.1 of the paper.
#[derive(Debug, Clone)]
pub struct CfsParams {
    /// Scheduling period for up to [`CfsParams::nr_latency`] runnable
    /// threads: "for a core executing fewer than 8 threads the default time
    /// period is 48ms".
    pub sched_latency: Dur,
    /// Threads beyond which the period grows linearly: "6 ∗ number of
    /// threads ms" — the per-thread minimum slice.
    pub min_granularity: Dur,
    /// Runnable-thread count at which the period starts stretching.
    pub nr_latency: usize,
    /// Wakeup preemption granularity: "if the difference is not significant
    /// (less than 1ms), the current running thread is not preempted".
    pub wakeup_granularity: Dur,
    /// Sleeper placement bonus: a waking thread's vruntime is clamped to at
    /// least `min_vruntime − sleeper_bonus` (GENTLE_FAIR_SLEEPERS), so
    /// "threads that sleep a lot are scheduled first".
    pub sleeper_bonus: Dur,
    /// Base periodic balancing interval: "every 4ms every core tries to
    /// steal work from other cores".
    pub balance_interval: Dur,
    /// Interval multiplier per domain level above the lowest (balancing is
    /// less frequent between remote cores).
    pub interval_scaling: u64,
    /// Imbalance threshold inside a node (Linux `imbalance_pct` 117 ≈ small
    /// tolerance; we use 110 for intra-LLC domains).
    pub imbalance_pct_llc: u64,
    /// Imbalance threshold between NUMA nodes: "if the load difference
    /// between the nodes is small (less than 25% in practice), then no load
    /// balancing is performed".
    pub imbalance_pct_numa: u64,
    /// Maximum tasks migrated in one balancing pass: "stealing as many as
    /// 32 threads".
    pub max_migrate: usize,
    /// Tasks that ran within this span are considered cache-hot and resist
    /// migration (Linux `sysctl_sched_migration_cost`).
    pub migration_cost: Dur,
    /// Failed-balance attempts after which cache-hotness is overridden.
    pub cache_nice_tries: u32,
    /// Default cgroup shares (`NICE_0_LOAD`): every application group gets
    /// an equal share, which is what makes CFS fair *between applications*.
    pub group_shares: u64,
    /// Enable the per-application cgroup hierarchy (Linux ≥ 2.6.38
    /// behaviour described in §2.1). Disabling reverts to per-thread
    /// fairness (an ablation switch).
    pub cgroups: bool,
    /// Let a waking thread preempt the running one (Linux's
    /// `WAKEUP_PREEMPTION` sched feature, §5.3). Disabling it never
    /// preempts on wakeup (an ablation switch).
    pub wakeup_preemption: bool,
}

impl Default for CfsParams {
    fn default() -> Self {
        CfsParams {
            sched_latency: Dur::millis(48),
            min_granularity: Dur::millis(6),
            nr_latency: 8,
            wakeup_granularity: Dur::millis(1),
            sleeper_bonus: Dur::millis(24),
            balance_interval: Dur::millis(4),
            interval_scaling: 2,
            imbalance_pct_llc: 110,
            imbalance_pct_numa: 125,
            max_migrate: 32,
            migration_cost: Dur::micros(500),
            cache_nice_tries: 1,
            group_shares: 1024,
            cgroups: true,
            wakeup_preemption: true,
        }
    }
}

impl CfsParams {
    /// The scheduling period for `nr` runnable threads (§2.1): 48 ms up to
    /// 8 threads, then 6 ms × nr.
    pub fn period(&self, nr: usize) -> Dur {
        if nr <= self.nr_latency {
            self.sched_latency
        } else {
            self.min_granularity.saturating_mul(nr as u64)
        }
    }
}

/// The searchable subset of [`CfsParams`] (`battle tune`). Bulk-migration
/// internals stay fixed; the nine dimensions below are the
/// latency/granularity/balancing knobs Linux exposes through
/// `sysctl kernel.sched_*`. `cgroups` and `wakeup_preemption` are the
/// switches.
impl ParamSpace for CfsParams {
    fn dims() -> Vec<Dim> {
        vec![
            Dim::duration(
                "sched_latency",
                Dur::millis(6),
                Dur::millis(192),
                Dur::millis(48),
            ),
            Dim::duration(
                "min_granularity",
                Dur::micros(750),
                Dur::millis(24),
                Dur::millis(6),
            ),
            Dim::integer("nr_latency", 2, 32, 8),
            Dim::duration(
                "wakeup_granularity",
                Dur::micros(100),
                Dur::millis(8),
                Dur::millis(1),
            ),
            Dim::duration(
                "sleeper_bonus",
                Dur::micros(500),
                Dur::millis(96),
                Dur::millis(24),
            ),
            Dim::duration(
                "balance_interval",
                Dur::millis(1),
                Dur::millis(32),
                Dur::millis(4),
            ),
            Dim::integer("imbalance_pct_llc", 100, 150, 110),
            Dim::integer("imbalance_pct_numa", 100, 200, 125),
            Dim::duration(
                "migration_cost",
                Dur::micros(50),
                Dur::millis(5),
                Dur::micros(500),
            ),
        ]
    }

    fn to_vector(&self) -> ParamVector {
        ParamVector(vec![
            self.sched_latency.as_nanos() as f64,
            self.min_granularity.as_nanos() as f64,
            self.nr_latency as f64,
            self.wakeup_granularity.as_nanos() as f64,
            self.sleeper_bonus.as_nanos() as f64,
            self.balance_interval.as_nanos() as f64,
            self.imbalance_pct_llc as f64,
            self.imbalance_pct_numa as f64,
            self.migration_cost.as_nanos() as f64,
        ])
    }

    fn from_vector(v: &ParamVector) -> CfsParams {
        let d = Self::dims();
        CfsParams {
            sched_latency: v.dur(0, &d),
            min_granularity: v.dur(1, &d),
            nr_latency: v.int(2, &d) as usize,
            wakeup_granularity: v.dur(3, &d),
            sleeper_bonus: v.dur(4, &d),
            balance_interval: v.dur(5, &d),
            imbalance_pct_llc: v.int(6, &d),
            imbalance_pct_numa: v.int(7, &d),
            migration_cost: v.dur(8, &d),
            ..CfsParams::default()
        }
    }

    fn switches(&mut self) -> Vec<(&'static str, &mut bool)> {
        vec![
            ("cgroups", &mut self.cgroups),
            ("wakeup_preemption", &mut self.wakeup_preemption),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_matches_paper() {
        let p = CfsParams::default();
        assert_eq!(p.period(1), Dur::millis(48));
        assert_eq!(p.period(8), Dur::millis(48));
        assert_eq!(p.period(9), Dur::millis(54));
        assert_eq!(p.period(100), Dur::millis(600));
    }

    #[test]
    fn default_vector_roundtrips() {
        let dims = CfsParams::dims();
        let v = CfsParams::default().to_vector();
        assert_eq!(v.0.len(), dims.len());
        // Every default sits inside its declared bounds, untouched by
        // quantization.
        assert_eq!(v.quantized(&dims), v);
        let p = CfsParams::from_vector(&v);
        assert_eq!(p.to_vector(), v);
        assert_eq!(p.sched_latency, Dur::millis(48));
        assert_eq!(p.nr_latency, 8);
        assert!(p.cgroups, "non-tunable fields keep their defaults");
        assert!(p.wakeup_preemption);
    }

    #[test]
    fn out_of_bounds_vector_is_clamped() {
        let dims = CfsParams::dims();
        let mut v = CfsParams::default().to_vector();
        v.0[0] = 0.0; // sched_latency below the 6 ms floor
        v.0[6] = 1e9; // imbalance_pct_llc above the 150 cap
        let p = CfsParams::from_vector(&v);
        assert_eq!(p.sched_latency, Dur::millis(6));
        assert_eq!(p.imbalance_pct_llc, 150);
        let _ = dims;
    }
}
