//! Simulation configuration.

use simcore::Dur;

use crate::fault::FaultPlan;
use crate::guard::RunBudget;

/// How much runtime invariant checking (SchedSan) to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No checking; zero overhead on the event loop.
    #[default]
    Off,
    /// Check the invariant catalog after every event: task conservation,
    /// runqueue-count consistency, affinity, bounded starvation, and the
    /// scheduler's own [`sched_api::Scheduler::audit`] — on what the event
    /// touched, with periodic full sweeps (see [`crate::check`]).
    Strict,
}

/// Tunable costs and knobs of the simulated machine/kernel.
///
/// Defaults are chosen to be in the right order of magnitude for the paper's
/// 2.1 GHz Opteron; the *relative* effects the paper reports (preemption
/// frequency, placement-scan overhead, migration cache penalties) are what
/// matters, not the absolute values.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; a given seed reproduces a bit-identical run.
    pub seed: u64,
    /// Scheduler tick period (Linux HZ=1000 → 1 ms).
    pub tick: Dur,
    /// Direct cost of a context switch, charged to the incoming task's CPU.
    pub ctx_switch_cost: Dur,
    /// Cache-refill penalty charged when a task runs on a different CPU than
    /// last time, per unit of topology distance (1 = same LLC, 3 = other
    /// NUMA node).
    pub migration_cost_per_distance: Dur,
    /// Placement-scan cost charged to the waking CPU per CPU examined by
    /// `select_task_rq` (reproduces ULE's 13 % sysbench overhead, §6.3).
    pub select_scan_cost_per_cpu: Dur,
    /// Cache-refill work added to a thread's current run segment when it is
    /// involuntarily preempted (its working set is partially evicted while
    /// off-CPU). This is the cost that makes CFS's aggressive wakeup
    /// preemption visible in the apache/ab workload (§5.3).
    pub preempt_penalty: Dur,
    /// Capacity of the flight-recorder trace buffer (0 disables tracing).
    pub trace_capacity: usize,
    /// Safety valve: maximum zero-time actions a behavior may emit in a row.
    pub max_instant_actions: u32,
    /// Runtime invariant checking (SchedSan). [`CheckMode::Off`] by
    /// default; the kernel caches the flag so the disabled path costs
    /// nothing on the event loop.
    pub check: CheckMode,
    /// Bounded-starvation limit enforced in strict mode: no runnable task
    /// may sit unscheduled for longer than this. Generous by default
    /// because ULE legitimately starves batch tasks for long stretches
    /// (§5.1 of the paper: a nice-0 hog can wait seconds behind
    /// interactive threads).
    pub starvation_limit: Dur,
    /// Fault injection plan (spurious wakeups, tick jitter, hotplug).
    /// Inert by default.
    pub faults: FaultPlan,
    /// SchedGuard resource budget. Inert by default; a run that exceeds a
    /// set ceiling aborts with [`crate::SimError::BudgetExceeded`], leaving
    /// its state readable for partial-result salvage.
    pub budget: RunBudget,
    /// SchedGuard no-progress watchdog: abort with
    /// [`crate::SimError::Livelock`] after this many consecutive events at
    /// one simulated instant (0 disables). The default is two orders of
    /// magnitude above the largest legitimate same-time burst (a
    /// thundering-herd wakeup of a few hundred threads), so real workloads
    /// never trip it while a wedged sim dies in microseconds of wall time.
    pub watchdog_stall_events: u32,
    /// SchedGuard ping-pong watchdog: abort after this many back-to-back
    /// migrations of one task between the same two CPUs with zero
    /// execution progress (0 disables).
    pub watchdog_pingpong: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            tick: Dur::millis(1),
            ctx_switch_cost: Dur::micros(2),
            migration_cost_per_distance: Dur::micros(30),
            select_scan_cost_per_cpu: Dur::nanos(400),
            preempt_penalty: Dur::micros(40),
            trace_capacity: 0,
            max_instant_actions: 1_000_000,
            check: CheckMode::Off,
            starvation_limit: Dur::secs(10),
            faults: FaultPlan::default(),
            budget: RunBudget::default(),
            watchdog_stall_events: 100_000,
            watchdog_pingpong: 10_000,
        }
    }
}

impl SimConfig {
    /// Config with a specific seed, other knobs default.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Default::default()
        }
    }

    /// A frictionless machine: zero context-switch, migration and scan
    /// costs. Useful in unit tests that check pure scheduling logic.
    pub fn frictionless(seed: u64) -> Self {
        SimConfig {
            seed,
            ctx_switch_cost: Dur::ZERO,
            migration_cost_per_distance: Dur::ZERO,
            select_scan_cost_per_cpu: Dur::ZERO,
            preempt_penalty: Dur::ZERO,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = SimConfig::default();
        assert_eq!(c.tick, Dur::millis(1));
        assert!(c.ctx_switch_cost < c.tick);
    }

    #[test]
    fn schedsan_is_off_by_default() {
        let c = SimConfig::default();
        assert_eq!(c.check, CheckMode::Off);
        assert!(!c.faults.active());
        assert!(c.starvation_limit >= Dur::secs(1));
    }

    #[test]
    fn budget_inert_but_watchdog_armed_by_default() {
        let c = SimConfig::default();
        assert!(!c.budget.active());
        assert!(c.watchdog_stall_events > 10_000);
        assert!(c.watchdog_pingpong > 0);
    }

    #[test]
    fn frictionless_zeroes_costs() {
        let c = SimConfig::frictionless(7);
        assert_eq!(c.seed, 7);
        assert!(c.ctx_switch_cost.is_zero());
        assert!(c.migration_cost_per_distance.is_zero());
        assert!(c.select_scan_cost_per_cpu.is_zero());
    }
}
