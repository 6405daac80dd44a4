//! SchedSan: the runtime invariant checker.
//!
//! With [`crate::CheckMode::Strict`] the kernel checks the catalog below
//! after every event, so corruption surfaces where it happens — at the
//! event that caused it or, on a CPU the event did not touch, by that
//! CPU's next tick — not as a mysterious crash a million events later.
//!
//! # Invariant catalog
//!
//! 1. **Task conservation** — every live task is in exactly one of the
//!    states {running on exactly one CPU, queued on exactly one runqueue,
//!    sleeping off all runqueues}; no task is lost or double-booked.
//! 2. **Runqueue-count consistency** — [`sched_api::Scheduler::nr_queued`]
//!    equals the tasks actually enumerated by
//!    [`sched_api::Scheduler::queued_tids_into`] plus the running task.
//! 3. **Affinity** — every queued or running task is on a CPU its hard
//!    affinity mask allows.
//! 4. **Hotplug** — an offline CPU runs nothing and queues nothing.
//! 5. **Bounded starvation** — no runnable task has waited longer than
//!    [`crate::SimConfig::starvation_limit`] for a CPU.
//! 6. **Scheduler self-audit** — class-specific invariants via
//!    [`sched_api::Scheduler::audit`] (CFS vruntime monotonicity and
//!    queue keys that match their entities, ULE
//!    priority-range validity, EEVDF lag conservation (Σ lag ≈ 0) and
//!    deadline ordering, scx policy/queue slot agreement, internal
//!    accounting). CFS, EEVDF and scx walk their
//!    [`sched_api::Timeline`]s through `audit_each`, which also fails on
//!    keys out of order.
//!
//! # Incremental checking
//!
//! The **full sweep** checks every CPU (items 2–4 and 6, plus the per-CPU
//! half of 1) and then every task (the rest of 1, and 5): O(cpus × queued +
//! tasks), several times the cost of simulating the event itself. So after
//! most events the checker looks only at what the event touched. The kernel records a **dirty set** of
//! CPUs at the few sites where it calls a class hook or changes a task's
//! state: `task_tick` and `balance_tick`, both CPUs of a placement,
//! put-prev, block, exit, pick, yield, and a preempted spinner going to
//! sleep. The **incremental pass** then runs the per-CPU check on those
//! CPUs only, in one walk of the dirty set's words (one per 64 CPUs of the
//! machine). It answers only pass or fail: it formats no message and
//! builds no [`SimError`], and on a failure the full sweep below builds the
//! error. Two small structures stand in for the task sweep:
//!
//! * the **home count** — runnable and running tasks per CPU by
//!   [`sched_api::Task::cpu`], kept by the kernel — must equal what the
//!   CPU's runqueue and `current` slot hold. Every task whose state an
//!   event changes is homed on a CPU the event touched, so this is the
//!   conservation check for those tasks, and it also catches a queued
//!   task a class dropped without the kernel touching it;
//! * the **starvation floor** — a lower bound on when any runnable task
//!   began waiting. While `now − floor` is within the limit no task can
//!   be starving, so the per-task starvation sweep is skipped.
//!
//! The full sweep remains the reference. It runs instead of the
//! incremental pass whenever a class may have moved tasks the kernel
//! cannot name (`balance_tick` returned targets, `idle_balance` pulled a
//! task, an unpin, hotplug), when the starvation floor is older than the
//! limit, every `FULL_SWEEP_EVERY` events, at the end of every
//! `try_run_until*` call, and whenever the incremental pass finds anything
//! wrong — so the error reported is always exactly the full sweep's. Each
//! full sweep rebuilds the home counts and the starvation floor.
//!
//! The tradeoff: corruption of a CPU the event did not touch is reported
//! at that CPU's next tick (every online CPU ticks every
//! [`crate::SimConfig::tick`]) or at the next full sweep, whichever comes
//! first, rather than at the event that caused it.
//!
//! The checker allocates nothing in steady state (`seen` grows only when
//! the task slab does). When checking is off
//! ([`crate::CheckMode::Off`], the default) each touch site costs one
//! predicted-not-taken branch.

use sched_api::{TaskState, Tid};
use simcore::Time;
use topology::{CpuId, WordBits, MAX_CPUS};

use crate::error::SimError;
use crate::kernel::Kernel;

/// `seen` markers for the conservation check.
const SEEN_NONE: u8 = 0;
const SEEN_QUEUED: u8 = 1;
const SEEN_RUNNING: u8 = 2;

/// Events between full sweeps when nothing else triggers one, so
/// corruption that no event or tick touches (an offline CPU's queue, or a
/// CPU whose ticks fault injection drops) is still found.
const FULL_SWEEP_EVERY: u64 = 1024;

/// SchedSan's state: the current event's dirty CPUs, the home counts and
/// the starvation floor, and reusable scratch buffers.
pub(crate) struct SchedSan {
    /// Scratch: the tids a pass marked in `seen` (the checked CPUs' current
    /// and queued tasks; also the hotplug drain's orphan buffer).
    pub(crate) tids: Vec<Tid>,
    /// Scratch: per-tid conservation marks, all `SEEN_NONE` between checks.
    seen: Vec<u8>,
    /// CPUs whose class state the current event may have changed: bit
    /// `i % 64` of word `i / 64` is CPU `i`.
    dirty: [u64; MAX_CPUS / 64],
    /// The words of `dirty` the machine has (one per 64 CPUs): the
    /// incremental pass walks only these.
    words: usize,
    /// Runnable and running tasks per CPU, by `Task::cpu`.
    home: Vec<u32>,
    /// No runnable task has been waiting since before this instant.
    wait_floor: Time,
    /// A class may have moved tasks the kernel cannot name: the next check
    /// is a full sweep.
    full: bool,
    /// `Counters::events` at the last full sweep.
    last_full: u64,
    /// Run the full sweep after every event (the test reference).
    always_full: bool,
}

impl SchedSan {
    pub(crate) fn new(ncpu: usize) -> SchedSan {
        SchedSan {
            tids: Vec::new(),
            seen: Vec::new(),
            dirty: [0; MAX_CPUS / 64],
            words: ncpu.div_ceil(64),
            home: vec![0; ncpu],
            wait_floor: Time::ZERO,
            full: false,
            last_full: 0,
            always_full: false,
        }
    }

    /// The current event called a class hook on `cpu`.
    #[inline]
    pub(crate) fn touch(&mut self, cpu: CpuId) {
        let i = cpu.index();
        self.dirty[i / 64] |= 1 << (i % 64);
    }

    /// A task homed on `cpu` became runnable (it was new or sleeping).
    #[inline]
    pub(crate) fn arrive(&mut self, cpu: CpuId) {
        self.touch(cpu);
        self.home[cpu.index()] += 1;
    }

    /// A runnable or running task homed on `cpu` went to sleep or exited.
    #[inline]
    pub(crate) fn depart(&mut self, cpu: CpuId) {
        self.touch(cpu);
        // A drifted count only makes the next incremental pass defer to
        // the full sweep, which rebuilds it.
        self.home[cpu.index()] = self.home[cpu.index()].saturating_sub(1);
    }

    /// A class may have moved tasks the kernel cannot name.
    #[inline]
    pub(crate) fn sweep_all(&mut self) {
        self.full = true;
    }
}

/// What [`Kernel::check_cpu`] returns when an invariant is broken.
trait Outcome {
    type Fail;
    /// The failure, given the error the full sweep reports for it.
    fn fail(err: impl FnOnce() -> SimError) -> Self::Fail;
}

/// The full sweep's outcome: the exact error, message included.
struct Explain;

impl Outcome for Explain {
    type Fail = SimError;
    #[inline]
    fn fail(err: impl FnOnce() -> SimError) -> SimError {
        err()
    }
}

/// The incremental pass's outcome: only that a check failed. The full
/// sweep it then defers to builds the error.
struct PassFail;

impl Outcome for PassFail {
    type Fail = ();
    #[inline]
    fn fail(_: impl FnOnce() -> SimError) {}
}

impl Kernel {
    /// Check the current event's effects. Called after every event in
    /// strict mode.
    pub(crate) fn run_checks(&mut self) -> Result<(), SimError> {
        let san = &self.san;
        let due = san.full
            || san.always_full
            || self.counters.events - san.last_full >= FULL_SWEEP_EVERY
            || self.now.saturating_since(san.wait_floor) > self.cfg.starvation_limit;
        if due || !self.check_touched() {
            return self.full_sweep();
        }
        Ok(())
    }

    /// The end-of-run full sweep of `try_run_until*`, so nothing the
    /// incremental passes deferred outlives the call.
    pub(crate) fn finish_checks(&mut self) -> Result<(), SimError> {
        if self.counters.events != self.san.last_full {
            return self.full_sweep();
        }
        Ok(())
    }

    /// Test reference: run the full sweep after every event instead of the
    /// incremental pass, to compare where each reports a fault.
    #[doc(hidden)]
    pub fn set_full_sweep_reference(&mut self, on: bool) {
        self.san.always_full = on;
    }

    fn invariant(&self, detail: String) -> SimError {
        SimError::Invariant {
            at: self.now,
            detail,
        }
    }

    /// The full sweep: the whole catalog on every CPU and every task.
    /// Rebuilds the home counts and the starvation floor, and clears the
    /// dirty set.
    fn full_sweep(&mut self) -> Result<(), SimError> {
        let mut tids = std::mem::take(&mut self.san.tids);
        let mut seen = std::mem::take(&mut self.san.seen);
        let res = self.sweep(&mut tids, &mut seen);
        tids.clear();
        seen.fill(SEEN_NONE);
        self.san.tids = tids;
        self.san.seen = seen;
        self.san.dirty = [0; MAX_CPUS / 64];
        self.san.full = false;
        self.san.last_full = self.counters.events;
        res
    }

    fn sweep(&mut self, tids: &mut Vec<Tid>, seen: &mut Vec<u8>) -> Result<(), SimError> {
        seen.resize(self.tasks.slab_len(), SEEN_NONE);
        for i in 0..self.cpus.len() {
            self.check_cpu::<Explain>(CpuId(i as u32), tids, seen)?;
        }

        // Conservation sweep: every task's lifecycle state must agree with
        // where (and whether) the runqueues hold it. The same pass rebuilds
        // the home counts and the starvation floor.
        let now = self.now;
        let limit = self.cfg.starvation_limit;
        let invariant = |detail: String| SimError::Invariant { at: now, detail };
        let home = &mut self.san.home;
        home.fill(0);
        let mut floor = now;
        for t in self.tasks.iter() {
            let s = seen[t.tid.index()];
            match t.state {
                TaskState::Running => {
                    if s != SEEN_RUNNING {
                        return Err(invariant(format!(
                            "{} is Running but no CPU is executing it",
                            t.tid
                        )));
                    }
                }
                TaskState::Runnable => {
                    if s != SEEN_QUEUED {
                        return Err(invariant(format!(
                            "{} is Runnable but sits in no runqueue (lost task)",
                            t.tid
                        )));
                    }
                    let waited_since = t.last_ran.max(t.last_wakeup);
                    let wait = now.saturating_since(waited_since);
                    if wait > limit {
                        return Err(invariant(format!(
                            "{} runnable-but-unscheduled for {wait} (limit {limit})",
                            t.tid
                        )));
                    }
                    floor = floor.min(waited_since);
                }
                TaskState::New | TaskState::Sleeping | TaskState::Dead => {
                    if s != SEEN_NONE {
                        return Err(invariant(format!(
                            "{} is {:?} but still present in scheduler structures",
                            t.tid, t.state
                        )));
                    }
                    continue;
                }
            }
            if let Some(h) = home.get_mut(t.cpu.index()) {
                *h += 1;
            }
        }
        self.san.wait_floor = floor;
        Ok(())
    }

    /// The incremental pass over the current event's dirty CPUs, in one
    /// walk of the dirty words. `false` means something is off and the
    /// full sweep must arbitrate (and clear what the walk left dirty).
    /// Builds no error: the full sweep reports it.
    fn check_touched(&mut self) -> bool {
        let words = self.san.words;
        if self.san.dirty[..words].iter().all(|&w| w == 0) {
            return true;
        }
        let mut tids = std::mem::take(&mut self.san.tids);
        let mut seen = std::mem::take(&mut self.san.seen);
        let slab = self.tasks.slab_len();
        if seen.len() < slab {
            seen.resize(slab, SEEN_NONE);
        }
        let mut ok = true;
        'walk: for w in 0..words {
            let bits = std::mem::take(&mut self.san.dirty[w]);
            for cpu in WordBits::new(w, bits) {
                let held = self.check_cpu::<PassFail>(cpu, &mut tids, &mut seen);
                if held != Ok(self.san.home[cpu.index()] as usize) {
                    ok = false;
                    break 'walk;
                }
            }
        }
        // Unmark exactly what this pass marked.
        for &tid in &tids {
            if let Some(s) = seen.get_mut(tid.index()) {
                *s = SEEN_NONE;
            }
        }
        tids.clear();
        self.san.tids = tids;
        self.san.seen = seen;
        ok
    }

    /// The per-CPU half of the catalog: current-task sanity, queued-task
    /// sanity, nr_queued agreement, and the scheduler self-audit. Appends
    /// the tids it marks in `seen` (`cpu`'s current task, then its queued
    /// ones) to `tids` and returns how many tasks `cpu` holds, queued plus
    /// running. `seen` covers the task slab. One body serves both passes:
    /// the full sweep ([`Explain`]) gets the exact error, the incremental
    /// pass ([`PassFail`]) only that one occurred.
    #[inline]
    fn check_cpu<O: Outcome>(
        &mut self,
        cpu: CpuId,
        tids: &mut Vec<Tid>,
        seen: &mut [u8],
    ) -> Result<usize, O::Fail> {
        let i = cpu.index();
        let online = self.cpus[i].online;
        let current = self.cpus[i].current;

        if let Some(tid) = current {
            if !online {
                return Err(O::fail(|| {
                    self.invariant(format!("offline {cpu} is running {tid}"))
                }));
            }
            let t = self.tasks.get(tid);
            if t.state != TaskState::Running {
                return Err(O::fail(|| {
                    self.invariant(format!("{cpu} current {tid} is {:?}, not Running", t.state))
                }));
            }
            if t.cpu != cpu {
                return Err(O::fail(|| {
                    self.invariant(format!("{cpu} current {tid} thinks it is on {}", t.cpu))
                }));
            }
            if !t.allowed_on(cpu) {
                return Err(O::fail(|| SimError::AffinityViolated {
                    tid,
                    cpu,
                    at: self.now,
                }));
            }
            if seen[tid.index()] != SEEN_NONE {
                return Err(O::fail(|| {
                    self.invariant(format!("{tid} is running on two CPUs"))
                }));
            }
            seen[tid.index()] = SEEN_RUNNING;
            tids.push(tid);
        }

        let start = tids.len();
        self.sched.queued_tids_into(cpu, tids);
        let queued = &tids[start..];
        if !online && !queued.is_empty() {
            return Err(O::fail(|| {
                self.invariant(format!(
                    "offline {cpu} still queues {} task(s)",
                    queued.len()
                ))
            }));
        }
        for &tid in queued {
            // The class enumerates, the kernel owns the task table: a tid
            // it never created is the class's bug, not a reason to panic.
            let Some(t) = self.tasks.try_get(tid) else {
                return Err(O::fail(|| {
                    self.invariant(format!("{cpu} queues {tid}, which names no task"))
                }));
            };
            if t.state != TaskState::Runnable {
                return Err(O::fail(|| {
                    self.invariant(format!(
                        "{cpu} queues {tid} in state {:?}, not Runnable",
                        t.state
                    ))
                }));
            }
            if !t.on_rq {
                return Err(O::fail(|| {
                    self.invariant(format!("{cpu} queues {tid} but its on_rq flag is clear"))
                }));
            }
            if t.cpu != cpu {
                return Err(O::fail(|| {
                    self.invariant(format!(
                        "{cpu} queues {tid} but the task thinks it is on {}",
                        t.cpu
                    ))
                }));
            }
            if !t.allowed_on(cpu) {
                return Err(O::fail(|| SimError::AffinityViolated {
                    tid,
                    cpu,
                    at: self.now,
                }));
            }
            match seen[tid.index()] {
                SEEN_NONE => seen[tid.index()] = SEEN_QUEUED,
                SEEN_QUEUED => {
                    return Err(O::fail(|| {
                        self.invariant(format!("{tid} is queued on two runqueues"))
                    }))
                }
                _ => {
                    return Err(O::fail(|| {
                        self.invariant(format!("{tid} is both running and queued"))
                    }))
                }
            }
        }

        let held = queued.len() + usize::from(current.is_some());
        let reported = self.sched.nr_queued(cpu);
        if reported != held {
            return Err(O::fail(|| {
                self.invariant(format!(
                    "{cpu} nr_queued reports {reported} but {held} task(s) are accounted \
                     ({} queued + {} running)",
                    queued.len(),
                    usize::from(current.is_some())
                ))
            }));
        }

        if let Err(detail) = self.sched.audit(&self.tasks, cpu, self.now) {
            return Err(O::fail(|| self.invariant(format!("{cpu} audit: {detail}"))));
        }
        Ok(held)
    }

    /// Render a human-readable crash bundle: the error, the run's identity
    /// (scheduler, seed, time), global counters, per-CPU scheduler state,
    /// the live task table, and the tail of the flight-recorder trace.
    /// Drivers write this next to a replay command when a
    /// [`SimError`] escapes the event loop, or when a supervision abort
    /// (its rendered error) ends a run that had to finish. The heading
    /// names the failure's `kind`: [`SimError::kind`] for an error.
    pub fn crash_report(&self, kind: &str, err: &dyn std::fmt::Display) -> String {
        use std::fmt::Write as _;
        let mut r = String::new();
        let heading = format!("crash report: {kind}");
        let _ = writeln!(r, "{heading}");
        let _ = writeln!(r, "{}", "=".repeat(heading.len()));
        let _ = writeln!(r, "error:     {err}");
        let _ = writeln!(r, "scheduler: {}", self.sched.name());
        let _ = writeln!(r, "seed:      {}", self.cfg.seed);
        let _ = writeln!(r, "sim time:  {}", self.now);
        let c = &self.counters;
        let _ = writeln!(
            r,
            "counters:  events={} ctx_switches={} preemptions={} wakeups={} migrations={} \
             spurious_wakes={} hotplug_events={} max_runnable_wait={}",
            c.events,
            c.ctx_switches,
            c.preemptions,
            c.wakeups,
            c.migrations,
            c.spurious_wakes,
            c.hotplug_events,
            c.max_runnable_wait
        );
        let _ = writeln!(r, "\nper-CPU state:");
        for i in 0..self.cpus.len() {
            let cpu = topology::CpuId(i as u32);
            let cs = &self.cpus[i];
            let queued = self.sched.queued_tids(cpu);
            let _ = writeln!(
                r,
                "  {cpu}: {} current={} nr_queued={} queued={:?}",
                if cs.online { "online" } else { "OFFLINE" },
                cs.current.map_or("-".into(), |t| t.to_string()),
                self.sched.nr_queued(cpu),
                queued
            );
        }
        let _ = writeln!(r, "\nlive tasks:");
        for t in self.tasks.iter() {
            if t.state == TaskState::Dead {
                continue;
            }
            let _ = writeln!(
                r,
                "  {} {:?} cpu={} last_cpu={} on_rq={} nice={} affinity={:?} name={}",
                t.tid, t.state, t.cpu, t.last_cpu, t.on_rq, t.nice, t.affinity, t.name
            );
        }
        if !self.trace.is_empty() {
            let _ = writeln!(
                r,
                "\ntrace tail ({} events, {} dropped):",
                self.trace.len(),
                self.trace.dropped()
            );
            for ev in self.trace.iter() {
                let _ = writeln!(r, "  {ev:?}");
            }
        }
        r
    }
}
