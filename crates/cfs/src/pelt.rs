//! Per-entity load tracking (PELT).
//!
//! CFS's load metric — "the load of a thread corresponds to the average CPU
//! utilization of a thread ... weighted by the thread's priority" (§2.1) —
//! is a geometrically decaying average of the time an entity was runnable.
//! This module implements the standard PELT series: time is divided into
//! 1024 µs periods, each period's contribution decays by `y` with
//! `y^32 = 0.5`, so `LOAD_AVG_MAX = Σ y^i · 1024 ≈ 47742`.

use simcore::{Dur, Time};

/// PELT period length (1024 µs ≈ 1 ms, as in Linux).
pub const PERIOD_NS: u64 = 1_048_576;

/// Maximum attainable decayed sum (entity runnable forever).
pub const LOAD_AVG_MAX: u64 = 47742;

/// `y^k * 2^32` for k in 0..32, from Linux's `runnable_avg_yN_inv`.
const YN_INV: [u64; 32] = [
    0xffffffff, 0xfa83b2da, 0xf5257d14, 0xefe4b99a, 0xeac0c6e6, 0xe5b906e6, 0xe0ccdeeb, 0xdbfbb796,
    0xd744fcc9, 0xd2a81d91, 0xce248c14, 0xc9b9bd85, 0xc5672a10, 0xc12c4cc9, 0xbd08a39e, 0xb8fbaf46,
    0xb504f333, 0xb123f581, 0xad583ee9, 0xa9a15ab4, 0xa5fed6a9, 0xa2704302, 0x9ef5325f, 0x9b8d39b9,
    0x9837f050, 0x94f4efa8, 0x91c3d373, 0x8ea4398a, 0x8b95c1e3, 0x88980e80, 0x85aac367, 0x82cd8698,
];

/// Decay `val` by `n` PELT periods: `val * y^n`.
pub fn decay_load(mut val: u64, mut n: u64) -> u64 {
    if n > 2000 {
        // y^2000 is far below 1; everything has decayed away.
        return 0;
    }
    // Halve for every full 32-period span (y^32 = 1/2).
    while n >= 32 {
        val >>= 1;
        n -= 32;
    }
    ((val as u128 * YN_INV[n as usize] as u128) >> 32) as u64
}

/// Decaying runnable-time average of one scheduling entity.
#[derive(Debug, Clone, Default)]
pub struct Pelt {
    /// Last time the series was brought up to date.
    last_update: Time,
    /// Decayed runnable sum, in the same units as `LOAD_AVG_MAX`.
    sum: u64,
    /// Leftover nanoseconds inside the current period.
    period_frac: u64,
}

impl Pelt {
    /// A series starting fully loaded (Linux initialises new tasks at max
    /// load so they are seen by the balancer immediately).
    pub fn new_max(now: Time) -> Pelt {
        Pelt {
            last_update: now,
            sum: LOAD_AVG_MAX,
            period_frac: 0,
        }
    }

    /// A series starting at zero.
    pub fn new_zero(now: Time) -> Pelt {
        Pelt {
            last_update: now,
            sum: 0,
            period_frac: 0,
        }
    }

    /// Advance the series to `now`, with the entity having been runnable
    /// (running or waiting) the whole interval iff `runnable`.
    pub fn update(&mut self, now: Time, runnable: bool) {
        let delta = now.saturating_since(self.last_update).as_nanos();
        if delta == 0 {
            return;
        }
        self.last_update = now;
        let total = self.period_frac + delta;
        let full_periods = total / PERIOD_NS;
        self.period_frac = total % PERIOD_NS;
        if full_periods == 0 {
            if runnable {
                // Contribution accrues within the open period; we fold it in
                // lazily at the next boundary. Approximate by adding the raw
                // fraction scaled down to period units.
                self.sum = (self.sum + delta * 1024 / PERIOD_NS).min(LOAD_AVG_MAX);
            }
            return;
        }
        // Decay the old sum across the elapsed periods, then add the new
        // contributions (a fully runnable span of n periods contributes
        // 1024 * (y + y^2 + ... + y^n) = 1024 * series(n)).
        self.sum = decay_load(self.sum, full_periods);
        if runnable {
            self.sum = (self.sum + contrib(full_periods)).min(LOAD_AVG_MAX);
        }
    }

    /// Average in `[0, 1024]`: the fraction of recent time spent runnable.
    pub fn avg(&self) -> u64 {
        self.sum * 1024 / LOAD_AVG_MAX
    }

    /// Load contribution: `avg × weight / 1024`.
    pub fn load(&self, weight: u64) -> u64 {
        self.sum * weight / LOAD_AVG_MAX
    }
}

/// Runqueue-level load average (`cfs_rq->avg.load_avg`): a decaying series
/// that tracks the *sum of runnable weights* on a CPU. Unlike per-entity
/// PELT, this accrues while tasks sit queued, so a CPU with a long runqueue
/// is visible to the balancer even if its tasks rarely run individually.
#[derive(Debug, Clone, Default)]
pub struct RqLoad {
    last: Time,
    avg: u64,
    /// Leftover nanoseconds below one period (so frequent sub-period
    /// updates still accumulate).
    frac: u64,
}

impl RqLoad {
    /// Advance the series toward `target` (the current Σ of runnable
    /// weights) over the time since the last update, using the PELT decay
    /// constant (half-life of 32 periods ≈ 32 ms).
    ///
    /// Only an update at or after [`RqLoad::next_period`] crosses a period
    /// boundary and can move the average. One before it changes nothing
    /// but `last` and `frac`, and skipping it leaves every later update's
    /// result unchanged: `frac + (now − last)` adds up the same whether or
    /// not it is split across several updates. That is what lets the
    /// balancer keep group sums between passes ([`crate::balance`]).
    pub fn update(&mut self, now: Time, target: u64) {
        let delta = now.saturating_since(self.last).as_nanos();
        self.last = now;
        let total = self.frac + delta;
        let periods = total / PERIOD_NS;
        self.frac = total % PERIOD_NS;
        if periods == 0 {
            return;
        }
        // avg approaches target geometrically: avg' = target − (target −
        // avg)·y^p, computed separately for the rising/falling branch to
        // stay in unsigned arithmetic.
        if self.avg <= target {
            self.avg = target - decay_load(target - self.avg, periods);
        } else {
            self.avg = target + decay_load(self.avg - target, periods);
        }
    }

    /// The current average.
    pub fn avg(&self) -> u64 {
        self.avg
    }

    /// The first instant at which an update crosses a period boundary:
    /// `last + PERIOD − frac`.
    pub fn next_period(&self) -> Time {
        self.last + Dur(PERIOD_NS - self.frac)
    }

    /// Immediately add an attaching entity's weight (Linux adds the new
    /// entity's `load_avg` to `cfs_rq->avg` on enqueue rather than waiting
    /// for the series to ramp).
    pub fn attach(&mut self, w: u64) {
        self.avg += w;
    }

    /// Immediately subtract a detaching entity's weight.
    pub fn detach(&mut self, w: u64) {
        self.avg = self.avg.saturating_sub(w);
    }
}

/// `1024 * Σ_{i=1..n} y^i` — the runnable contribution of `n` fully
/// runnable periods.
fn contrib(n: u64) -> u64 {
    if n >= 345 {
        // The series has effectively converged to LOAD_AVG_MAX.
        return LOAD_AVG_MAX;
    }
    // Σ_{i=1..n} y^i = (LOAD_AVG_MAX/1024 scaled) — compute by decaying the
    // full series: sum(n) = MAX - decay(MAX, n) - 1024 (the current period).
    LOAD_AVG_MAX - decay_load(LOAD_AVG_MAX, n) - 1024 + decay_load(1024, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_halves_every_32_periods() {
        assert_eq!(decay_load(1024, 0), 1023); // 0xffffffff rounds down
        let d32 = decay_load(1024, 32);
        assert!((511..=512).contains(&d32), "got {d32}");
        assert_eq!(decay_load(1024, 3000), 0);
    }

    #[test]
    fn always_runnable_converges_to_max() {
        let mut p = Pelt::new_zero(Time::ZERO);
        let mut t = Time::ZERO;
        for _ in 0..1000 {
            t += Dur::millis(1);
            p.update(t, true);
        }
        assert!(p.avg() > 1000, "avg {} should be near 1024", p.avg());
    }

    #[test]
    fn sleeper_decays_toward_zero() {
        let mut p = Pelt::new_max(Time::ZERO);
        let t = Time::ZERO + Dur::millis(500);
        p.update(t, false);
        assert!(p.avg() < 5, "avg {} should be near 0", p.avg());
    }

    #[test]
    fn fifty_percent_duty_cycle_lands_midway() {
        let mut p = Pelt::new_zero(Time::ZERO);
        let mut t = Time::ZERO;
        for _ in 0..2000 {
            t += Dur::millis(1);
            p.update(t, true);
            t += Dur::millis(1);
            p.update(t, false);
        }
        let avg = p.avg();
        assert!(
            (300..=700).contains(&avg),
            "50% duty cycle should land mid-range, got {avg}"
        );
    }

    #[test]
    fn load_scales_by_weight() {
        let mut p = Pelt::new_max(Time::ZERO);
        p.update(Time::ZERO + Dur::millis(1), true);
        let l1024 = p.load(1024);
        let l512 = p.load(512);
        assert!(l1024 >= 2 * l512 - 2 && l1024 <= 2 * l512 + 2);
    }

    #[test]
    fn an_update_within_a_period_changes_nothing_later_updates_see() {
        let start = Time::ZERO + Dur::micros(300);
        let mut whole = RqLoad::default();
        whole.update(start, 1024);
        let mut split = whole.clone();
        let due = split.next_period();
        // Updates short of the rollover keep it and the average.
        for us in [100, 400, 600] {
            split.update(start + Dur::micros(us), 1024);
            assert_eq!((split.next_period(), split.avg()), (due, whole.avg()));
        }
        let mut at_due = split.clone();
        at_due.update(due, 1024);
        assert!(at_due.avg() > whole.avg());
        // Skipping them gives the same series.
        for load in [&mut whole, &mut split] {
            load.update(due + Dur::micros(2500), 2048);
        }
        assert_eq!(
            (whole.avg(), whole.next_period()),
            (split.avg(), split.next_period())
        );
    }

    #[test]
    fn new_max_is_visible_to_balancer() {
        let p = Pelt::new_max(Time::ZERO);
        assert_eq!(p.avg(), 1024);
        assert_eq!(p.load(1024), LOAD_AVG_MAX * 1024 / LOAD_AVG_MAX);
    }
}
