//! Structured simulation errors (SchedSan).
//!
//! Historically the kernel's internal consistency checks were bare
//! `expect`/`panic!` calls deep in the event loop: a scheduler bug aborted
//! the process with no context. [`SimError`] replaces them with a typed
//! error carrying the task, CPU and simulated time where the inconsistency
//! was detected. It propagates out of [`crate::Kernel::try_run_until`] /
//! [`crate::Kernel::try_run_until_apps_done`] so drivers can degrade
//! gracefully: write a crash bundle ([`crate::Kernel::crash_report`]),
//! exit nonzero, and leave a replay command instead of a backtrace.

use sched_api::Tid;
use simcore::Time;
use topology::CpuId;

/// Which [`crate::RunBudget`] ceiling a run exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// `max_events`: total events processed.
    Events,
    /// `max_sim_time`: simulated time reached (nanoseconds in the report).
    SimTime,
    /// `max_queue_depth`: queued events plus armed run completions.
    QueueDepth,
    /// `max_live_tasks`: simultaneously live tasks.
    LiveTasks,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Events => "events",
            BudgetKind::SimTime => "simulated time (ns)",
            BudgetKind::QueueDepth => "event-queue depth",
            BudgetKind::LiveTasks => "live tasks",
        })
    }
}

/// A fatal inconsistency detected by the simulated kernel or by the
/// SchedSan invariant checker ([`crate::check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A task id referenced by the event loop has no runtime state
    /// (the per-task slot was never populated or was torn down early).
    TaskStateLost {
        /// The task whose state vanished.
        tid: Tid,
        /// When the lookup failed.
        at: Time,
    },
    /// The event queue claimed to have a next event but none could be
    /// popped (internal queue corruption).
    EventQueueCorrupt {
        /// Simulated time when the pop failed.
        at: Time,
    },
    /// A CPU that should have a current task has none.
    NoCurrent {
        /// The CPU missing its current task.
        cpu: CpuId,
        /// When the inconsistency was detected.
        at: Time,
    },
    /// The scheduler handed the kernel a task that is blocked or dead.
    PickedBlockedTask {
        /// The unrunnable task that was picked.
        tid: Tid,
        /// The CPU it was picked on.
        cpu: CpuId,
        /// When it was picked.
        at: Time,
    },
    /// A behaviour emitted more consecutive zero-time actions than
    /// [`crate::SimConfig::max_instant_actions`] allows (infinite loop).
    RunawayBehavior {
        /// The CPU interpreting the behaviour.
        cpu: CpuId,
        /// When the limit tripped.
        at: Time,
        /// The configured limit that was exceeded.
        actions: u32,
    },
    /// No online CPU satisfies a task's affinity mask: hotplug took the
    /// last CPU the task was pinned to while it needed placement. The
    /// schedulers surface this as [`sched_api::SelectError`] instead of
    /// panicking; the kernel converts it here so drivers get a crash
    /// bundle and a replay line.
    NoPlaceableCpu {
        /// The task that could not be placed anywhere.
        tid: Tid,
        /// When placement failed.
        at: Time,
        /// The task's affinity mask rendered as `{0-3,7}` (or `any` for an
        /// unconstrained task, which can only get here if every CPU went
        /// offline).
        affinity: String,
    },
    /// The scheduler placed a task on a CPU outside its affinity mask.
    AffinityViolated {
        /// The misplaced task.
        tid: Tid,
        /// The disallowed CPU it was placed on.
        cpu: CpuId,
        /// When the placement happened.
        at: Time,
    },
    /// A SchedSan invariant check failed (task conservation, runqueue
    /// counts, starvation bound, scheduler self-audit, ...).
    Invariant {
        /// When the check failed.
        at: Time,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A [`crate::RunBudget`] ceiling was exceeded (SchedGuard). The run is
    /// aborted but its state stays readable for partial-result salvage.
    BudgetExceeded {
        /// When the limit tripped.
        at: Time,
        /// Which ceiling tripped.
        kind: BudgetKind,
        /// The configured limit.
        limit: u64,
        /// The observed value that exceeded it.
        used: u64,
    },
    /// The no-progress watchdog detected a livelock (SchedGuard):
    /// simulated time stalled across many consecutive events, a pick loop
    /// that never installs a segment, or a task ping-ponging between two
    /// CPUs without executing.
    Livelock {
        /// When the watchdog tripped.
        at: Time,
        /// What kind of no-progress pattern was detected.
        detail: String,
        /// The most recent events of the stalled chain, oldest first
        /// (empty for detectors that trip inside a single event).
        window: Vec<String>,
    },
    /// The run was cancelled via a [`crate::CancelToken`] (explicitly or
    /// by a wall-clock deadline). Unlike budget and watchdog aborts, the
    /// abort point is *not* deterministic across replays.
    Cancelled {
        /// Simulated time at the cancellation check that observed it.
        at: Time,
    },
}

impl SimError {
    /// The kind of failure, as crash reports and messages name it: a
    /// supervision abort by its mechanism, a behaviour's runaway loop, and
    /// every other error (a kernel consistency check or a SchedSan check
    /// failing) as an invariant violation.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::BudgetExceeded { .. } => "budget exceeded",
            SimError::Livelock { .. } => "livelock",
            SimError::Cancelled { .. } => "cancelled",
            SimError::RunawayBehavior { .. } => "runaway behaviour",
            _ => "invariant violation",
        }
    }

    /// `true` for supervision aborts (budget, watchdog, cancellation):
    /// the kernel state is *consistent* — the run was stopped by policy,
    /// not corrupted — so callers should salvage partial results rather
    /// than write a crash bundle.
    pub fn is_supervision(&self) -> bool {
        matches!(
            self,
            SimError::BudgetExceeded { .. }
                | SimError::Livelock { .. }
                | SimError::Cancelled { .. }
        )
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TaskStateLost { tid, at } => {
                write!(f, "[{at}] runtime state of {tid} lost")
            }
            SimError::EventQueueCorrupt { at } => {
                write!(f, "[{at}] event queue corrupt: peeked event vanished")
            }
            SimError::NoCurrent { cpu, at } => {
                write!(f, "[{at}] {cpu} has no current task where one is required")
            }
            SimError::PickedBlockedTask { tid, cpu, at } => {
                write!(
                    f,
                    "[{at}] scheduler picked blocked/dead task {tid} on {cpu}"
                )
            }
            SimError::RunawayBehavior { cpu, at, actions } => {
                write!(
                    f,
                    "[{at}] behavior on {cpu} emitted more than {actions} zero-time actions"
                )
            }
            SimError::NoPlaceableCpu { tid, at, affinity } => {
                write!(
                    f,
                    "[{at}] {tid} has no online CPU in its affinity mask {affinity}"
                )
            }
            SimError::AffinityViolated { tid, cpu, at } => {
                write!(
                    f,
                    "[{at}] scheduler violated affinity of {tid}: placed on {cpu}"
                )
            }
            SimError::Invariant { at, detail } => {
                write!(f, "[{at}] invariant violated: {detail}")
            }
            SimError::BudgetExceeded {
                at,
                kind,
                limit,
                used,
            } => {
                write!(
                    f,
                    "[{at}] run budget exceeded: {kind} used {used} > limit {limit}"
                )
            }
            SimError::Livelock { at, detail, window } => {
                write!(f, "[{at}] livelock: {detail}")?;
                if !window.is_empty() {
                    write!(f, " (last {} events of the stalled chain)", window.len())?;
                }
                Ok(())
            }
            SimError::Cancelled { at } => {
                write!(f, "[{at}] run cancelled (timeout or explicit cancellation)")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SimError::PickedBlockedTask {
            tid: Tid(7),
            cpu: CpuId(3),
            at: Time(1_000),
        };
        let s = e.to_string();
        assert!(s.contains("tid7"), "{s}");
        assert!(s.contains("cpu3"), "{s}");
    }

    #[test]
    fn invariant_detail_shown() {
        let e = SimError::Invariant {
            at: Time::ZERO,
            detail: "task T1 queued twice".into(),
        };
        assert!(e.to_string().contains("task T1 queued twice"));
    }

    #[test]
    fn supervision_classification() {
        let budget = SimError::BudgetExceeded {
            at: Time::ZERO,
            kind: BudgetKind::Events,
            limit: 10,
            used: 11,
        };
        let livelock = SimError::Livelock {
            at: Time::ZERO,
            detail: "stalled".into(),
            window: vec!["[0s] resched cpu0".into()],
        };
        let cancelled = SimError::Cancelled { at: Time::ZERO };
        assert!(budget.is_supervision());
        assert!(livelock.is_supervision());
        assert!(cancelled.is_supervision());
        assert!(!SimError::EventQueueCorrupt { at: Time::ZERO }.is_supervision());
        assert!(budget.to_string().contains("used 11 > limit 10"));
        assert!(livelock.to_string().contains("last 1 events"));
        assert_eq!(budget.kind(), "budget exceeded");
        assert_eq!(livelock.kind(), "livelock");
        assert_eq!(cancelled.kind(), "cancelled");
        assert_eq!(
            SimError::EventQueueCorrupt { at: Time::ZERO }.kind(),
            "invariant violation"
        );
    }
}
