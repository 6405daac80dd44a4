//! SchedGuard: run supervision — resource budgets, a no-progress watchdog,
//! and cooperative cancellation.
//!
//! The experiment pipeline runs many simulations in one process; a single
//! wedged or runaway sim must not take the whole campaign down. This module
//! holds the pieces the kernel enforces in its event loop:
//!
//! * [`RunBudget`] — hard ceilings on events processed, simulated time,
//!   event-queue depth and live tasks. Exceeding one aborts the run with
//!   [`crate::SimError::BudgetExceeded`]; everything observed so far
//!   (counters, histograms, decision digest) stays readable, so drivers can
//!   salvage a *partial* result instead of losing the run.
//! * a no-progress watchdog (configured on [`crate::SimConfig`]) — detects
//!   livelock: simulated time pinned at one instant across a long run of
//!   consecutive events, a pick loop that never installs a segment, or one
//!   task ping-ponging between two CPUs without executing. Aborts with
//!   [`crate::SimError::Livelock`] carrying the recent event window.
//! * [`CancelToken`] — a cooperative, wall-clock cancellation handle checked
//!   at event-batch boundaries (`battle run --timeout`,
//!   `battle fuzz --case-timeout`).
//!
//! Budget and watchdog aborts are **deterministic**: they trigger on event
//! counts and simulated time, which are bit-identical across replays, so a
//! salvaged partial digest is as reproducible as a complete one.
//! Cancellation is the one wall-clock (hence nondeterministic) mechanism.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simcore::{Dur, Time};

/// Resource ceilings for one simulation run. All limits are optional; the
/// default (no limits) costs nothing on the event loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum number of events processed (ticks included).
    pub max_events: Option<u64>,
    /// Maximum simulated time reached.
    pub max_sim_time: Option<Dur>,
    /// Maximum pending events (memory proxy): queued events plus the run
    /// completions armed in the run lane. Armed ticks wait in the tick
    /// lane and do not count.
    pub max_queue_depth: Option<usize>,
    /// Maximum simultaneously live (non-exited) tasks (fork-bomb guard).
    pub max_live_tasks: Option<usize>,
}

impl RunBudget {
    /// `true` if any limit is set (the kernel caches this so an absent
    /// budget adds nothing to the hot path).
    pub fn active(&self) -> bool {
        self.max_events.is_some()
            || self.max_sim_time.is_some()
            || self.max_queue_depth.is_some()
            || self.max_live_tasks.is_some()
    }

    /// Combine two budgets, keeping the tighter of each limit. Used when a
    /// scenario file sets a budget and the CLI supplies another.
    pub fn tighten(&self, other: &RunBudget) -> RunBudget {
        fn min2<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        RunBudget {
            max_events: min2(self.max_events, other.max_events),
            max_sim_time: min2(self.max_sim_time, other.max_sim_time),
            max_queue_depth: min2(self.max_queue_depth, other.max_queue_depth),
            max_live_tasks: min2(self.max_live_tasks, other.max_live_tasks),
        }
    }
}

struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// Cooperative cancellation handle, checked by the kernel at event-batch
/// boundaries. Cloning shares the underlying flag, so one token can cover a
/// whole campaign (cancel once, every supervised run aborts with
/// [`crate::SimError::Cancelled`]).
///
/// Cancellation is wall-clock-driven and therefore *not* deterministic: the
/// partial state after a cancelled run depends on host speed. Use a
/// [`RunBudget`] when the abort point itself must replay bit-identically.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally auto-cancels once `timeout` of wall-clock
    /// time has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Request cancellation. Every kernel sharing this token aborts its run
    /// at the next check point.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once cancelled explicitly or past the deadline.
    pub fn cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch, so later checks skip the clock read.
                self.inner.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Size of the recent-event window attached to a livelock report.
pub(crate) const WINDOW: usize = 32;

/// One compact record in the stalled-chain window: `(time, code, a, b)`.
/// Rendered to strings only when the watchdog actually trips, so recording
/// stays allocation-free on the (already stalled) hot path.
#[derive(Clone, Copy, Default)]
pub(crate) struct WatchRec {
    pub(crate) at: Time,
    pub(crate) code: u8,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

impl WatchRec {
    fn render(&self) -> String {
        let WatchRec { at, code, a, b } = *self;
        match code {
            0 => format!("[{at}] tick cpu{a}"),
            1 => format!("[{at}] run-done cpu{a}"),
            2 => format!("[{at}] timer-wake tid{a}"),
            3 => format!("[{at}] spin-timeout tid{a} barrier={b}"),
            4 => format!("[{at}] resched cpu{a}"),
            5 => format!("[{at}] continue tid{a}"),
            6 => format!("[{at}] control-op"),
            7 => format!("[{at}] fault-op"),
            _ => format!("[{at}] event code={code} a={a} b={b}"),
        }
    }
}

/// Watchdog state owned by the kernel. All fields are touched only while a
/// same-time event chain is in flight (or on migrations, for the ping-pong
/// detector), keeping the normal hot path at one compare per event.
pub(crate) struct Watch {
    /// Abort after this many consecutive events at one simulated instant
    /// (0 disables the stall watchdog and the pick-loop guard).
    pub(crate) stall_limit: u32,
    /// Abort after this many back-to-back migrations of one task between
    /// the same two CPUs with no execution progress (0 disables).
    pub(crate) pingpong_limit: u32,
    pub(crate) last_at: Time,
    pub(crate) stall: u32,
    ring: [WatchRec; WINDOW],
    ring_next: usize,
    ring_full: bool,
    pp_task: u32,
    pp_lo: u32,
    pp_hi: u32,
    pp_exec: Dur,
    pp_count: u32,
}

impl Watch {
    pub(crate) fn new(stall_limit: u32, pingpong_limit: u32) -> Watch {
        Watch {
            stall_limit,
            pingpong_limit,
            last_at: Time::ZERO,
            stall: 0,
            ring: [WatchRec::default(); WINDOW],
            ring_next: 0,
            ring_full: false,
            pp_task: u32::MAX,
            pp_lo: 0,
            pp_hi: 0,
            pp_exec: Dur::ZERO,
            pp_count: 0,
        }
    }

    /// Note one processed event at `at`. Returns `true` when the stall
    /// limit tripped (caller raises [`crate::SimError::Livelock`]).
    #[inline]
    pub(crate) fn note_event(&mut self, at: Time) -> bool {
        if at == self.last_at {
            self.stall += 1;
            self.stall >= self.stall_limit
        } else {
            self.last_at = at;
            self.stall = 0;
            self.ring_next = 0;
            self.ring_full = false;
            false
        }
    }

    /// `true` while a same-time chain is active, i.e. the window should
    /// record event descriptors.
    #[inline]
    pub(crate) fn recording(&self) -> bool {
        self.stall > 0
    }

    pub(crate) fn record(&mut self, rec: WatchRec) {
        self.ring[self.ring_next] = rec;
        self.ring_next = (self.ring_next + 1) % WINDOW;
        if self.ring_next == 0 {
            self.ring_full = true;
        }
    }

    /// Note a migration of `task` from `from` to `to` at `sum_exec` total
    /// execution. Returns `true` when the ping-pong limit tripped.
    pub(crate) fn note_migration(&mut self, task: u32, from: u32, to: u32, sum_exec: Dur) -> bool {
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        if self.pp_task == task && self.pp_lo == lo && self.pp_hi == hi && self.pp_exec == sum_exec
        {
            self.pp_count += 1;
            self.pp_count >= self.pingpong_limit
        } else {
            self.pp_task = task;
            self.pp_lo = lo;
            self.pp_hi = hi;
            self.pp_exec = sum_exec;
            self.pp_count = 1;
            false
        }
    }

    /// The recent-event window, oldest first, rendered for a livelock
    /// report.
    pub(crate) fn window(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.ring_full {
            for i in 0..WINDOW {
                out.push(self.ring[(self.ring_next + i) % WINDOW].render());
            }
        } else {
            for rec in &self.ring[..self.ring_next] {
                out.push(rec.render());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_inert() {
        assert!(!RunBudget::default().active());
    }

    #[test]
    fn tighten_keeps_minima() {
        let a = RunBudget {
            max_events: Some(100),
            max_sim_time: None,
            max_queue_depth: Some(10),
            max_live_tasks: None,
        };
        let b = RunBudget {
            max_events: Some(50),
            max_sim_time: Some(Dur::secs(1)),
            max_queue_depth: None,
            max_live_tasks: Some(4),
        };
        let t = a.tighten(&b);
        assert_eq!(t.max_events, Some(50));
        assert_eq!(t.max_sim_time, Some(Dur::secs(1)));
        assert_eq!(t.max_queue_depth, Some(10));
        assert_eq!(t.max_live_tasks, Some(4));
    }

    #[test]
    fn cancel_token_flag_and_clone_share() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.cancelled());
        t.cancel();
        assert!(u.cancelled());
    }

    #[test]
    fn cancel_token_deadline_in_past_cancels() {
        let t = CancelToken::with_deadline(Duration::from_secs(0));
        assert!(t.cancelled());
    }

    #[test]
    fn watch_stall_counts_and_resets() {
        let mut w = Watch::new(3, 0);
        let t0 = Time(5);
        assert!(!w.note_event(t0)); // advances last_at
        assert!(!w.note_event(t0)); // stall=1
        assert!(!w.note_event(t0)); // stall=2
        assert!(w.note_event(t0)); // stall=3 → trip
        assert!(!w.note_event(Time(6))); // progress resets
        assert_eq!(w.stall, 0);
    }

    #[test]
    fn watch_window_orders_oldest_first() {
        let mut w = Watch::new(1000, 0);
        w.note_event(Time(1));
        w.note_event(Time(1));
        for i in 0..(WINDOW as u32 + 4) {
            w.record(WatchRec {
                at: Time(1),
                code: 4,
                a: i,
                b: 0,
            });
        }
        let win = w.window();
        assert_eq!(win.len(), WINDOW);
        assert!(win[0].contains("cpu4"), "{}", win[0]);
        assert!(win[WINDOW - 1].contains(&format!("cpu{}", WINDOW as u32 + 3)));
    }

    #[test]
    fn pingpong_requires_same_pair_and_no_progress() {
        let mut w = Watch::new(0, 3);
        assert!(!w.note_migration(7, 0, 1, Dur::ZERO));
        assert!(!w.note_migration(7, 1, 0, Dur::ZERO)); // same pair, either way
        assert!(w.note_migration(7, 0, 1, Dur::ZERO));
        // Progress resets the chain.
        assert!(!w.note_migration(7, 0, 1, Dur::nanos(1)));
    }
}
