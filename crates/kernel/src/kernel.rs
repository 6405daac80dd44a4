//! The simulated kernel: event loop, dispatching, ticks, wakeups, blocking,
//! spawning, and overhead charging.
//!
//! The kernel plays the role Linux's core scheduler (`kernel/sched/core.c`)
//! plays in the paper's methodology: it is *identical* for both schedulers —
//! only the scheduling class behind the [`Scheduler`] trait changes — so any
//! performance difference between two runs is attributable to the scheduler,
//! which is exactly the isolation the paper's ULE port achieves.
//!
//! # Execution model
//!
//! Each simulated CPU executes its current task's behaviour. Zero-time
//! actions (locking a free mutex, spawning, counting ops) are interpreted
//! inline; an [`Action::Run`] segment arms the CPU's completion in the run
//! lane ([`crate::ticks::RunLane`]) and is completed lazily when it fires;
//! blocking actions put the task to voluntary sleep and trigger a
//! reschedule. A 1 ms tick per CPU, held in the tick lane
//! ([`crate::ticks::TickLane`]), drives `task_tick` (timeslice and fairness
//! checks) and `balance_tick` (periodic load balancing). The event loop
//! merges the event queue and both lanes by their shared `(time, seq)` key.
//!
//! # Overhead charging
//!
//! Context-switch costs, cache-cold migration penalties and placement-scan
//! costs occupy CPU time without making application progress: the kernel
//! adds them to the running segment's `overhead`, re-arming its completion
//! later. This is how ULE's expensive `sched_pickcpu` scans become visible
//! as lost application throughput (§6.3 of the paper).

use metrics::Histogram;
use sched_api::{
    DequeueKind, EnqueueKind, GroupId, Preempt, PreemptCause, Scheduler, SelectStats, Task,
    TaskSnapshot, TaskState, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, EventQueue, SimRng, Time};
use topology::{CpuId, CpuMask, Topology};

use crate::behavior::{
    Action, BarrierId, Behavior, Ctx, MutexId, PoolId, QueueId, SemId, ThreadSpec,
};
use crate::check::SchedSan;
use crate::config::{CheckMode, SimConfig};
use crate::error::{BudgetKind, SimError};
use crate::fault::FaultOp;
use crate::guard::{CancelToken, RunBudget, Watch, WatchRec};
use crate::stats::{AppStats, Counters, CpuStats, DecisionHash};
use crate::sync::{BlockedOn, OpOutcome, SyncTable};
use crate::ticks::{RunLane, TickLane};
use crate::trace::{TraceEvent, TraceSink};

/// Identifier of an application (a spawned [`AppSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub u32);

/// An application: a named group of initial threads. Threads spawned at
/// runtime (via [`Action::Spawn`]) join their spawner's application.
pub struct AppSpec {
    /// Name used in reports.
    pub name: String,
    /// Threads enqueued when the application starts.
    pub threads: Vec<ThreadSpec>,
    /// Daemon apps (background noise, servers) never "finish": they are
    /// excluded from [`Kernel::all_apps_done`].
    pub daemon: bool,
}

impl AppSpec {
    /// An application with the given initial threads.
    pub fn new(name: impl Into<String>, threads: Vec<ThreadSpec>) -> AppSpec {
        AppSpec {
            name: name.into(),
            threads,
            daemon: false,
        }
    }

    /// Mark as a daemon (excluded from completion tracking).
    pub fn daemon(mut self) -> AppSpec {
        self.daemon = true;
        self
    }
}

/// Deferred control operations, scheduled at absolute times.
pub(crate) enum ControlOp {
    StartApp(AppId, Vec<ThreadSpec>),
    /// Clear the affinity mask of every task of an app (the `taskset`
    /// command in the Figure 6 experiment).
    UnpinApp(AppId),
}

pub(crate) enum Event {
    /// Timer expiry for a timed sleep.
    TimerWake { tid: Tid },
    /// A spin-barrier arrival exceeded its spin budget.
    SpinTimeout {
        tid: Tid,
        barrier: BarrierId,
        generation: u64,
    },
    /// Re-run the scheduling decision on a CPU.
    Resched(CpuId),
    /// A released spinner should continue executing its behaviour.
    Continue(Tid),
    /// Deferred control operation.
    Control(ControlOp),
    /// Fault injection (spurious wakeup, hotplug).
    Fault(FaultOp),
}

/// What the merged event sources deliver next: a queue event, a tick from
/// the tick lane, or a run completion from the run lane (see
/// [`crate::ticks`]).
#[derive(Clone, Copy)]
enum Pending {
    Queue,
    Tick(CpuId),
    Run(CpuId),
}

/// Where a task stands in its behaviour program.
pub(crate) enum Cont {
    /// Ask the behaviour for the next action.
    NeedAction,
    /// Partially executed run segment.
    Run { left: Dur },
    /// Spinning at a barrier until released or until the timeout event.
    Spin { barrier: BarrierId, generation: u64 },
    /// Blocked on a synchronisation object or timer.
    Blocked,
    /// Spuriously woken out of a blocking operation that has not completed:
    /// re-execute it at the next dispatch (and possibly re-block).
    Retry(BlockedOn),
    /// Exited.
    Done,
}

/// Per-task kernel-side runtime state (behaviour + continuation).
pub(crate) struct TaskRt {
    pub(crate) behavior: Option<Box<dyn Behavior>>,
    pub(crate) cont: Cont,
    pub(crate) rng: SimRng,
    /// Value delivered by the last queue get.
    pub(crate) pending_value: Option<u64>,
    /// Application this task belongs to.
    pub(crate) app: AppId,
    /// Detached threads don't count toward app completion.
    pub(crate) detached: bool,
    /// What the task is blocked on while `cont` is [`Cont::Blocked`]
    /// (the record fault injection needs to wake it spuriously).
    pub(crate) blocked_on: Option<BlockedOn>,
}

/// Per-CPU execution state.
pub(crate) struct Cpu {
    pub(crate) current: Option<Tid>,
    /// `false` while hotplugged out by fault injection.
    pub(crate) online: bool,
    /// Whether a tick event for this CPU is in flight (so hotplug
    /// online/offline cycles never double-arm the tick chain).
    pub(crate) tick_armed: bool,
    /// Task that ran most recently (to skip context-switch cost when a task
    /// is re-picked immediately).
    pub(crate) last_tid: Option<Tid>,
    /// Current segment: when it started, overhead absorbed, work accounted.
    seg_start: Time,
    seg_overhead: Dur,
    seg_accounted: Dur,
    /// Remaining work of the current Run segment when it started.
    seg_run_left: Dur,
    /// Pending overhead to fold into the next segment (context switch cost
    /// charged before the task reaches its next Run).
    pending_overhead: Dur,
    /// Whether the segment fields describe the *current* task's active
    /// run/spin segment (false while a task is between actions, so stale
    /// fields are never accounted to the wrong task).
    seg_active: bool,
    pub(crate) resched_pending: bool,
    stats: CpuStats,
}

impl Cpu {
    fn new() -> Cpu {
        Cpu {
            current: None,
            online: true,
            tick_armed: false,
            last_tid: None,
            seg_start: Time::ZERO,
            seg_overhead: Dur::ZERO,
            seg_accounted: Dur::ZERO,
            seg_run_left: Dur::ZERO,
            pending_overhead: Dur::ZERO,
            seg_active: false,
            resched_pending: false,
            stats: CpuStats::default(),
        }
    }
}

/// Outcome of interpreting behaviour actions on a CPU.
enum InterpretEnd {
    /// A run/spin segment was installed; the CPU keeps executing.
    Running,
    /// The current task blocked, yielded or exited; the CPU needs a pick.
    NeedsPick,
}

/// The simulated kernel. See the module docs for the execution model.
pub struct Kernel {
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    pub(crate) now: Time,
    pub(crate) events: EventQueue<Event>,
    /// Batched per-CPU tick deadlines, merged with `events` by (time, seq).
    ticks: TickLane,
    /// Each CPU's pending run completion, merged the same way.
    runs: RunLane,
    pub(crate) sched: Box<dyn Scheduler>,
    pub(crate) tasks: TaskTable,
    pub(crate) trt: Vec<Option<TaskRt>>,
    pub(crate) cpus: Vec<Cpu>,
    /// Online CPUs as a bitset, mirroring the per-CPU `online` flags.
    /// Hotplug victim selection works on this mask instead of scanning
    /// `cpus`.
    pub(crate) online_mask: CpuMask,
    pub(crate) sync: SyncTable,
    pub(crate) apps: Vec<AppStats>,
    live_apps: usize,
    pub(crate) counters: Counters,
    hash: DecisionHash,
    pub(crate) trace: simcore::TraceBuffer<TraceEvent>,
    /// Tracing enabled? Cached from `cfg.trace_capacity > 0` (or a sink
    /// being installed) so the hot paths skip building [`TraceEvent`]s
    /// entirely when tracing is off.
    pub(crate) trace_on: bool,
    /// Streaming observer for trace events (SchedScope export). `None` in
    /// normal runs; see [`Kernel::set_trace_sink`].
    trace_sink: Option<Box<dyn TraceSink>>,
    /// Distribution behind `Counters::max_runnable_wait`: how long each
    /// dispatched task sat runnable before getting the CPU.
    run_delay: Histogram,
    /// Subset of `run_delay` where the wait started at a wakeup (rather
    /// than a preemption): the paper's wakeup→dispatch latency, the
    /// distribution in which ULE's disabled wakeup preemption shows up.
    wakeup_latency: Histogram,
    /// Per-app dispatch-delay histograms, indexed by [`AppId`]. Recorded
    /// beside the global `run_delay` at every dispatch; purely
    /// observational (never feeds the decision digest), so per-tenant
    /// reporting costs no determinism.
    app_run_delay: Vec<Histogram>,
    rng: SimRng,
    ticking: bool,
    /// Reused buffer for `balance_tick` target CPUs (no per-tick allocation).
    balance_buf: Vec<CpuId>,
    /// Strict checking enabled? Cached from `cfg.check` so the disabled
    /// path is one predictable branch per event and per touch site.
    pub(crate) check_on: bool,
    /// Fault injection enabled? Cached from `cfg.faults.active()`.
    faults_on: bool,
    /// Dedicated RNG stream for fault injection, forked off the main seed
    /// so faulty runs replay bit-identically.
    pub(crate) fault_rng: SimRng,
    /// The invariant checker's dirty set, home counts and scratch buffers,
    /// boxed so unchecked runs keep the kernel's hot fields compact.
    pub(crate) san: Box<SchedSan>,
    /// SchedGuard budget, copied out of the config. `budget_on` caches
    /// `budget.active()` so an absent budget costs one branch per event.
    budget: RunBudget,
    budget_on: bool,
    /// SchedGuard no-progress watchdog state.
    watch: Watch,
    /// Cooperative cancellation, polled every few thousand events.
    cancel: Option<CancelToken>,
    /// Tasks spawned and not yet exited (for the live-task budget).
    live_tasks: usize,
}

impl Kernel {
    /// Build a kernel for `topo`, driven by `sched`.
    pub fn new(topo: Topology, cfg: SimConfig, sched: Box<dyn Scheduler>) -> Kernel {
        let ncpu = topo.nr_cpus();
        let mut rng = SimRng::new(cfg.seed);
        let trace = simcore::TraceBuffer::with_capacity(cfg.trace_capacity);
        let trace_on = cfg.trace_capacity > 0;
        let check_on = cfg.check == CheckMode::Strict;
        let faults_on = cfg.faults.active();
        let fault_rng = rng.fork(0xFA17);
        let budget = cfg.budget.clone();
        let budget_on = budget.active();
        let watch = Watch::new(cfg.watchdog_stall_events, cfg.watchdog_pingpong);
        Kernel {
            topo,
            cfg,
            now: Time::ZERO,
            events: EventQueue::new(),
            ticks: TickLane::new(ncpu),
            runs: RunLane::new(ncpu),
            sched,
            tasks: TaskTable::new(),
            trt: Vec::new(),
            cpus: (0..ncpu).map(|_| Cpu::new()).collect(),
            online_mask: CpuMask::first_n(ncpu),
            sync: SyncTable::new(),
            apps: Vec::new(),
            live_apps: 0,
            counters: Counters::default(),
            hash: DecisionHash::default(),
            trace,
            trace_on,
            trace_sink: None,
            run_delay: Histogram::new(),
            wakeup_latency: Histogram::new(),
            app_run_delay: Vec::new(),
            rng,
            ticking: false,
            balance_buf: Vec::new(),
            check_on,
            faults_on,
            fault_rng,
            san: Box::new(SchedSan::new(ncpu)),
            budget,
            budget_on,
            watch,
            cancel: None,
            live_tasks: 0,
        }
    }

    // ------------------------------------------------------------------
    // Public setup & introspection API
    // ------------------------------------------------------------------

    /// Schedule an application to start at `at`. Returns its id.
    pub fn queue_app(&mut self, at: Time, spec: AppSpec) -> AppId {
        let app = AppId(self.apps.len() as u32);
        let group = GroupId(self.apps.len() as u32 + 1); // 0 is the root
        let mut stats = AppStats::new(spec.name, group);
        stats.daemon = spec.daemon;
        self.apps.push(stats);
        self.app_run_delay.push(Histogram::new());
        if !spec.daemon {
            self.live_apps += 1;
        }
        self.events
            .push(at, Event::Control(ControlOp::StartApp(app, spec.threads)));
        app
    }

    /// Schedule the affinity masks of all of `app`'s tasks to be cleared at
    /// `at` (the `taskset` unpin of the Figure 6 experiment).
    pub fn queue_unpin(&mut self, at: Time, app: AppId) {
        self.events
            .push(at, Event::Control(ControlOp::UnpinApp(app)));
    }

    /// Create a synchronisation mutex (usable by behaviours).
    pub fn new_mutex(&mut self) -> MutexId {
        self.sync.new_mutex()
    }
    /// Create a counting semaphore.
    pub fn new_sem(&mut self, initial: u64) -> SemId {
        self.sync.new_sem(initial)
    }
    /// Create a cyclic barrier.
    pub fn new_barrier(&mut self, parties: usize) -> BarrierId {
        self.sync.new_barrier(parties)
    }
    /// Create a bounded queue.
    pub fn new_queue(&mut self, capacity: usize) -> QueueId {
        self.sync.new_queue(capacity)
    }
    /// Create a shared work pool.
    pub fn new_pool(&mut self, items: u64) -> PoolId {
        self.sync.new_pool(items)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The scheduler's name ("cfs", "ule", ...).
    pub fn sched_name(&self) -> &'static str {
        self.sched.name()
    }

    /// Global activity counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Per-CPU work/overhead accounting.
    pub fn cpu_stats(&self, cpu: CpuId) -> &CpuStats {
        &self.cpus[cpu.index()].stats
    }

    /// Statistics of an application.
    pub fn app(&self, app: AppId) -> &AppStats {
        &self.apps[app.0 as usize]
    }

    /// `true` once every registered application has finished.
    pub fn all_apps_done(&self) -> bool {
        self.live_apps == 0
    }

    /// Tids of all tasks (live or dead) belonging to `app`, in spawn order.
    pub fn app_tasks(&self, app: AppId) -> Vec<Tid> {
        (0..self.trt.len() as u32)
            .map(Tid)
            .filter(|t| {
                self.trt[t.index()]
                    .as_ref()
                    .map(|rt| rt.app == app)
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Read access to a task.
    pub fn task(&self, tid: Tid) -> &Task {
        self.tasks.get(tid)
    }

    /// Read access to the whole task table (exited tasks stay resolvable —
    /// the kernel never removes entries — so post-run trace replays can
    /// look up names the same way a live [`TraceSink`] does).
    pub fn tasks(&self) -> &TaskTable {
        &self.tasks
    }

    /// Total CPU work performed by a task so far.
    pub fn task_runtime(&self, tid: Tid) -> Dur {
        self.tasks.get(tid).sum_exec
    }

    /// Scheduler-internal per-task state (vruntime / penalty / ...).
    pub fn snapshot(&self, tid: Tid) -> TaskSnapshot {
        self.sched.snapshot(&self.tasks, tid)
    }

    /// Number of tasks on `cpu`'s runqueue, including the running one.
    pub fn nr_queued(&self, cpu: CpuId) -> usize {
        self.sched.nr_queued(cpu)
    }

    /// The task currently running on `cpu`, if any.
    pub fn current(&self, cpu: CpuId) -> Option<Tid> {
        self.cpus[cpu.index()].current
    }

    /// The determinism digest over all scheduling decisions so far.
    pub fn decision_digest(&self) -> u64 {
        self.hash.digest()
    }

    /// The flight-recorder trace (empty unless
    /// [`SimConfig::trace_capacity`] is set).
    pub fn trace(&self) -> &simcore::TraceBuffer<TraceEvent> {
        &self.trace
    }

    /// Install a streaming trace observer. Every subsequent trace event is
    /// handed to `sink` as it happens, in addition to the flight-recorder
    /// buffer (if any) — so full-scale runs can export complete traces
    /// without an unbounded in-memory buffer. Implicitly enables tracing.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sink = Some(sink);
        self.trace_on = true;
    }

    /// Remove and return the installed trace sink (e.g. to flush/finish
    /// it after a run). Tracing stays on only if a buffer is configured.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let sink = self.trace_sink.take();
        self.trace_on = self.cfg.trace_capacity > 0;
        sink
    }

    /// Install (or replace) the SchedGuard resource budget. May be called
    /// after construction — e.g. by a driver that built the kernel through
    /// a generic path — and even mid-run to tighten limits.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget_on = budget.active();
        self.cfg.budget = budget.clone();
        self.budget = budget;
    }

    /// Reconfigure the no-progress watchdog (`stall_events` consecutive
    /// events at one instant; `pingpong` no-progress migrations between one
    /// CPU pair). 0 disables the respective detector.
    pub fn set_watchdog(&mut self, stall_events: u32, pingpong: u32) {
        self.cfg.watchdog_stall_events = stall_events;
        self.cfg.watchdog_pingpong = pingpong;
        self.watch = Watch::new(stall_events, pingpong);
    }

    /// Attach a cooperative cancellation token, polled at event-batch
    /// boundaries. When it reports cancelled, the run aborts with
    /// [`SimError::Cancelled`]; all observed state stays readable.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Number of currently live (spawned and not yet exited) tasks.
    pub fn live_tasks(&self) -> usize {
        self.live_tasks
    }

    /// Distribution of runnable→running dispatch delays (all dispatches).
    pub fn run_delay(&self) -> &Histogram {
        &self.run_delay
    }

    /// Dispatch-delay histogram of one application's tasks.
    pub fn app_run_delay(&self, app: AppId) -> &Histogram {
        &self.app_run_delay[app.0 as usize]
    }

    /// Distribution of wakeup→dispatch delays (dispatches whose wait
    /// started at a wakeup rather than a preemption).
    pub fn wakeup_latency(&self) -> &Histogram {
        &self.wakeup_latency
    }

    /// Record `ev` into the flight recorder and the streaming sink (if
    /// any). Callers gate on `self.trace_on` so the disabled path stays
    /// free of event construction.
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace_sink.as_mut() {
            sink.event(&ev, &self.tasks);
        }
        self.trace.push(ev);
    }

    // ------------------------------------------------------------------
    // Simulation driving
    // ------------------------------------------------------------------

    /// Run the simulation up to and including events at `until`.
    ///
    /// Panics on a [`SimError`]; use [`Kernel::try_run_until`] to handle
    /// inconsistencies gracefully (crash bundle, nonzero exit).
    pub fn run_until(&mut self, until: Time) {
        if let Err(e) = self.try_run_until(until) {
            panic!("{e}");
        }
    }

    /// Run the simulation up to and including events at `until`, returning
    /// a structured error instead of panicking if the kernel, a scheduler,
    /// or (in strict mode) an invariant check detects an inconsistency.
    pub fn try_run_until(&mut self, until: Time) -> Result<(), SimError> {
        self.ensure_ticking();
        while let Some((at, next)) = self.peek_next() {
            if at > until {
                break;
            }
            self.step(at, next)?;
        }
        if self.check_on {
            self.finish_checks()?;
        }
        if until > self.now {
            self.now = until;
        }
        Ok(())
    }

    /// Run until every registered app finished, or until `limit`.
    /// Returns `true` if all apps completed.
    ///
    /// Panics on a [`SimError`]; use [`Kernel::try_run_until_apps_done`]
    /// to handle inconsistencies gracefully.
    pub fn run_until_apps_done(&mut self, limit: Time) -> bool {
        match self.try_run_until_apps_done(limit) {
            Ok(done) => done,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run until every registered app finished, or until `limit`.
    /// Returns `Ok(true)` if all apps completed, `Ok(false)` on timeout,
    /// and `Err` if an inconsistency was detected.
    pub fn try_run_until_apps_done(&mut self, limit: Time) -> Result<bool, SimError> {
        self.ensure_ticking();
        let mut timed_out = false;
        while self.live_apps > 0 {
            let Some((at, next)) = self.peek_next() else {
                break;
            };
            if at > limit {
                timed_out = true;
                break;
            }
            self.step(at, next)?;
        }
        if self.check_on {
            self.finish_checks()?;
        }
        if timed_out {
            self.now = limit;
            return Ok(false);
        }
        Ok(self.live_apps == 0)
    }

    /// The next thing to process across the merged event sources (queue
    /// events, ticks and run completions), ordered by the shared `(time,
    /// seq)` key. Seqs are unique across all three, so there are no ties.
    /// Forced inline: it runs once per event in both run loops, and the
    /// queue's FIFO merge makes it too large for the compiler to inline on
    /// its own; called out of line it cost interactive-1c 3.5 % of
    /// `wall_s`.
    #[inline(always)]
    fn peek_next(&self) -> Option<(Time, Pending)> {
        let mut next = self
            .events
            .peek_key()
            .map(|(at, seq)| (at, seq, Pending::Queue));
        if let Some((at, seq, cpu)) = self.ticks.peek() {
            if next.is_none_or(|(nt, ns, _)| (at, seq) < (nt, ns)) {
                next = Some((at, seq, Pending::Tick(cpu)));
            }
        }
        if let Some((at, seq, cpu)) = self.runs.peek() {
            if next.is_none_or(|(nt, ns, _)| (at, seq) < (nt, ns)) {
                next = Some((at, seq, Pending::Run(cpu)));
            }
        }
        next.map(|(at, _, p)| (at, p))
    }

    /// Advance the clock to `at` and process one pending item.
    fn step(&mut self, at: Time, next: Pending) -> Result<(), SimError> {
        debug_assert!(at >= self.now);
        self.now = at;
        self.counters.events += 1;
        self.guard_step(at)?;
        // While a same-time event chain is in flight, keep a compact window
        // of what it is doing — the diagnosable payload of a livelock
        // report. Off the stalled path this is a dead branch.
        let recording = self.watch.stall_limit > 0 && self.watch.recording();
        match next {
            Pending::Tick(cpu) => {
                if recording {
                    self.watch.record(WatchRec {
                        at,
                        code: 0,
                        a: cpu.0,
                        b: 0,
                    });
                }
                let fired = self.ticks.pop();
                debug_assert_eq!(fired.map(|(_, _, c)| c), Some(cpu));
                self.cpus[cpu.index()].tick_armed = false;
                self.on_tick(cpu);
            }
            Pending::Run(cpu) => {
                if recording {
                    self.watch.record(WatchRec {
                        at,
                        code: 1,
                        a: cpu.0,
                        b: 0,
                    });
                }
                let fired = self.runs.pop();
                debug_assert_eq!(fired.map(|(_, _, c)| c), Some(cpu));
                self.on_run_done(cpu)?;
            }
            Pending::Queue => {
                let Some((_, ev)) = self.events.pop() else {
                    return Err(SimError::EventQueueCorrupt { at: self.now });
                };
                if recording {
                    let rec = Self::describe_event(at, &ev);
                    self.watch.record(rec);
                }
                self.handle(ev)?;
            }
        }
        if self.check_on {
            self.run_checks()?;
        }
        Ok(())
    }

    /// SchedGuard per-event enforcement: budget ceilings, the stall
    /// watchdog, and the (amortized) cancellation poll. Deliberately does
    /// not touch any state scheduling decisions depend on, so supervised
    /// runs that complete produce bit-identical digests to unsupervised
    /// ones.
    #[inline]
    fn guard_step(&mut self, at: Time) -> Result<(), SimError> {
        if self.budget_on {
            if let Some(max) = self.budget.max_events {
                if self.counters.events > max {
                    return Err(SimError::BudgetExceeded {
                        at,
                        kind: BudgetKind::Events,
                        limit: max,
                        used: self.counters.events,
                    });
                }
            }
            if let Some(max) = self.budget.max_sim_time {
                if at > Time::ZERO + max {
                    return Err(SimError::BudgetExceeded {
                        at,
                        kind: BudgetKind::SimTime,
                        limit: max.as_nanos(),
                        used: at.saturating_since(Time::ZERO).as_nanos(),
                    });
                }
            }
            if let Some(max) = self.budget.max_queue_depth {
                // Pending run completions count as depth; armed ticks, one
                // per online CPU at all times, do not.
                let depth = self.events.len() + self.runs.len();
                if depth > max {
                    return Err(SimError::BudgetExceeded {
                        at,
                        kind: BudgetKind::QueueDepth,
                        limit: max as u64,
                        used: depth as u64,
                    });
                }
            }
        }
        if self.watch.stall_limit > 0 && self.watch.note_event(at) {
            let stalled = self.watch.stall;
            return Err(self.livelock(format!(
                "simulated time stalled at {at} for {stalled} consecutive events"
            )));
        }
        if let Some(token) = &self.cancel {
            // Amortize the wall-clock read: poll every 4096 events.
            if self.counters.events & 0xFFF == 0 && token.cancelled() {
                return Err(SimError::Cancelled { at });
            }
        }
        Ok(())
    }

    /// Build a [`SimError::Livelock`] carrying the recent-event window.
    fn livelock(&self, detail: String) -> SimError {
        SimError::Livelock {
            at: self.now,
            detail,
            window: self.watch.window(),
        }
    }

    /// Compact descriptor of a queue event for the watchdog window.
    fn describe_event(at: Time, ev: &Event) -> WatchRec {
        let (code, a, b) = match ev {
            Event::TimerWake { tid } => (2, tid.0, 0),
            Event::SpinTimeout { tid, barrier, .. } => (3, tid.0, barrier.0),
            Event::Resched(cpu) => (4, cpu.0, 0),
            Event::Continue(tid) => (5, tid.0, 0),
            Event::Control(_) => (6, 0, 0),
            Event::Fault(_) => (7, 0, 0),
        };
        WatchRec { at, code, a, b }
    }

    /// Arm `cpu`'s next scheduler tick at `at`, reserving its place in the
    /// event order from the queue's sequence counter.
    pub(crate) fn arm_tick(&mut self, cpu: CpuId, at: Time) {
        debug_assert!(!self.cpus[cpu.index()].tick_armed, "tick double-armed");
        let seq = self.events.alloc_seq();
        self.ticks.arm(cpu, at, seq);
        self.cpus[cpu.index()].tick_armed = true;
    }

    fn ensure_ticking(&mut self) {
        if self.ticking {
            return;
        }
        self.ticking = true;
        let n = self.cpus.len() as u64;
        for i in 0..n {
            // Stagger ticks across CPUs as real machines do, avoiding
            // artificial lock-step between cores.
            let offset = Dur(self.cfg.tick.as_nanos() * i / n);
            self.arm_tick(CpuId(i as u32), self.now + self.cfg.tick + offset);
        }
        if self.faults_on {
            if let Some(p) = self.cfg.faults.spurious_wake_period {
                self.events
                    .push(self.now + p, Event::Fault(FaultOp::SpuriousWake));
            }
            if let Some(p) = self.cfg.faults.hotplug_period {
                self.events
                    .push(self.now + p, Event::Fault(FaultOp::Offline));
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) -> Result<(), SimError> {
        match ev {
            Event::TimerWake { tid } => self.on_timer_wake(tid),
            Event::SpinTimeout {
                tid,
                barrier,
                generation,
            } => self.on_spin_timeout(tid, barrier, generation),
            Event::Resched(cpu) => self.on_resched(cpu),
            Event::Continue(tid) => self.on_continue(tid),
            Event::Control(op) => self.on_control(op),
            Event::Fault(op) => self.on_fault(op),
        }
    }

    fn on_tick(&mut self, cpu: CpuId) {
        if !self.cpus[cpu.index()].online {
            // The tick chain dies while the CPU is down; cpu_online re-arms.
            return;
        }
        self.account_segment(cpu);
        if let Some(curr) = self.cpus[cpu.index()].current {
            if let Preempt::Yes(cause) = self.sched.task_tick(&mut self.tasks, cpu, curr, self.now)
            {
                self.request_resched(cpu, cause);
            }
        }
        // The balance target buffer is owned by the kernel and reused every
        // tick, so the hot path does not allocate.
        let mut targets = std::mem::take(&mut self.balance_buf);
        targets.clear();
        self.sched
            .balance_tick(&mut self.tasks, cpu, self.now, &mut targets);
        if self.check_on {
            self.san.touch(cpu);
            if !targets.is_empty() {
                self.san.sweep_all();
            }
        }
        self.counters.migrations += targets.len() as u64;
        for &t in &targets {
            self.events.push_now(self.now, Event::Resched(t));
        }
        self.balance_buf = targets;
        let mut next = self.now + self.cfg.tick;
        if self.faults_on {
            let f = &self.cfg.faults;
            if f.missed_tick_pct > 0 && self.fault_rng.gen_below(100) < u64::from(f.missed_tick_pct)
            {
                next += self.cfg.tick; // this tick is lost entirely
            }
            if !f.tick_jitter.is_zero() {
                next += Dur(self.fault_rng.gen_below(f.tick_jitter.as_nanos() + 1));
            }
        }
        self.arm_tick(cpu, next);
    }

    fn on_run_done(&mut self, cpu: CpuId) -> Result<(), SimError> {
        let Some(tid) = self.cpus[cpu.index()].current else {
            return Ok(());
        };
        self.account_segment(cpu);
        self.rt_mut(tid)?.cont = Cont::NeedAction;
        if let InterpretEnd::NeedsPick = self.interpret(cpu)? {
            self.pick_and_run(cpu)?;
        }
        Ok(())
    }

    fn on_timer_wake(&mut self, tid: Tid) -> Result<(), SimError> {
        if !self.tasks.contains(tid) || self.tasks.get(tid).state != TaskState::Sleeping {
            return Ok(());
        }
        // A stale timer (the task was spuriously woken, proceeded past its
        // sleep and blocked on something else) must not wake the task.
        let now = self.now;
        match self.rt_mut(tid)?.blocked_on {
            Some(BlockedOn::Timer { deadline }) if deadline <= now => {}
            _ => return Ok(()),
        }
        self.rt_mut(tid)?.cont = Cont::NeedAction;
        self.wake_task(tid, None)
    }

    fn on_spin_timeout(
        &mut self,
        tid: Tid,
        barrier: BarrierId,
        generation: u64,
    ) -> Result<(), SimError> {
        // Validate the task is still spinning on this barrier generation.
        let still_spinning = matches!(
            self.trt[tid.index()].as_ref().map(|rt| &rt.cont),
            Some(Cont::Spin { barrier: b, generation: g }) if *b == barrier && *g == generation
        );
        if !still_spinning {
            return Ok(());
        }
        if !self.sync.barrier_spin_timeout(barrier, tid, generation) {
            return Ok(());
        }
        // The spinner becomes a blocked waiter (it goes to sleep).
        let rt = self.rt_mut(tid)?;
        rt.cont = Cont::Blocked;
        rt.blocked_on = Some(BlockedOn::Barrier {
            barrier,
            generation,
        });
        let cpu = self.tasks.get(tid).cpu;
        let is_current = self.cpus[cpu.index()].current == Some(tid);
        if is_current {
            self.account_segment(cpu);
            self.block_current(cpu, tid);
            self.pick_and_run(cpu)?;
        } else {
            // Preempted mid-spin: remove from the runqueue and sleep.
            self.sched
                .dequeue_task(&mut self.tasks, cpu, tid, DequeueKind::Sleep, self.now);
            let t = self.tasks.get_mut(tid);
            t.state = TaskState::Sleeping;
            t.sleep_start = self.now;
            t.on_rq = false;
            if self.check_on {
                self.san.depart(cpu);
            }
        }
        Ok(())
    }

    fn on_resched(&mut self, cpu: CpuId) -> Result<(), SimError> {
        if !self.cpus[cpu.index()].online {
            return Ok(()); // stale reschedule of a hotplugged-out CPU
        }
        let c = &self.cpus[cpu.index()];
        if c.current.is_none() {
            return self.pick_and_run(cpu);
        }
        if !c.resched_pending {
            return Ok(());
        }
        self.cpus[cpu.index()].resched_pending = false;
        self.preempt_current(cpu)?;
        self.pick_and_run(cpu)
    }

    fn on_continue(&mut self, tid: Tid) -> Result<(), SimError> {
        // A spinner released by a barrier while it was running.
        if !self.tasks.contains(tid) {
            return Ok(());
        }
        let cpu = self.tasks.get(tid).cpu;
        if self.cpus[cpu.index()].current != Some(tid) {
            return Ok(()); // it was preempted meanwhile; dispatch will continue it
        }
        if !matches!(
            self.trt[tid.index()].as_ref().map(|rt| &rt.cont),
            Some(Cont::NeedAction)
        ) {
            return Ok(());
        }
        self.account_segment(cpu);
        if let InterpretEnd::NeedsPick = self.interpret(cpu)? {
            self.pick_and_run(cpu)?;
        }
        Ok(())
    }

    fn on_control(&mut self, op: ControlOp) -> Result<(), SimError> {
        match op {
            ControlOp::StartApp(app, threads) => {
                self.apps[app.0 as usize].started = Some(self.now);
                for spec in threads {
                    self.spawn_thread(app, spec, None)?;
                }
            }
            ControlOp::UnpinApp(app) => {
                let tids = self.app_tasks(app);
                for tid in tids {
                    if self.tasks.contains(tid) {
                        self.tasks.get_mut(tid).affinity = None;
                    }
                }
                if self.check_on {
                    self.san.sweep_all();
                }
            }
        }
        Ok(())
    }

    /// Convert a scheduler's "no online CPU in the affinity mask" placement
    /// failure into the kernel-level error: hotplug raced a pinned task.
    /// Replaces the old dispatch-path panics; callers propagate it so the
    /// driver writes a crash bundle with a replay line.
    pub(crate) fn no_placeable(&self, e: sched_api::SelectError) -> SimError {
        let affinity = match &self.tasks.get(e.tid).affinity {
            Some(mask) => format!("{mask:?}"),
            None => "any".to_string(),
        };
        SimError::NoPlaceableCpu {
            tid: e.tid,
            at: self.now,
            affinity,
        }
    }

    /// Look up a task's runtime state, failing with context instead of
    /// panicking when the slot is empty (the old `expect("live")` sites).
    ///
    /// The error is built only on the failure path: `SimError` owns heap
    /// data, so an eagerly built and dropped one costs a call to its drop
    /// glue on every successful lookup.
    pub(crate) fn rt_mut(&mut self, tid: Tid) -> Result<&mut TaskRt, SimError> {
        match self.trt.get_mut(tid.index()) {
            Some(Some(rt)) => Ok(rt),
            _ => Err(SimError::TaskStateLost { tid, at: self.now }),
        }
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    fn spawn_thread(
        &mut self,
        app: AppId,
        spec: ThreadSpec,
        parent: Option<Tid>,
    ) -> Result<Tid, SimError> {
        let group = self.apps[app.0 as usize].group;
        let ThreadSpec {
            name,
            nice,
            affinity,
            kernel_thread,
            inherit_history,
            detached,
            behavior,
        } = spec;
        let now = self.now;
        let tid = self.tasks.insert_with(|tid| {
            let mut t = Task::new(tid, name, group);
            t.nice = nice;
            t.affinity = affinity;
            t.kernel_thread = kernel_thread;
            t.inherit_history = inherit_history;
            t.parent = parent;
            t.last_ran = now;
            t.last_wakeup = now;
            t
        });
        if tid.index() >= self.trt.len() {
            self.trt.resize_with(tid.index() + 1, || None);
        }
        let rng = self.rng.fork(tid.0 as u64);
        self.trt[tid.index()] = Some(TaskRt {
            behavior: Some(behavior),
            cont: Cont::NeedAction,
            rng,
            pending_value: None,
            app,
            detached,
            blocked_on: None,
        });
        let a = &mut self.apps[app.0 as usize];
        if !detached {
            a.live += 1;
        }
        a.spawned += 1;
        self.counters.spawns += 1;
        self.live_tasks += 1;
        if let Some(max) = self.budget.max_live_tasks {
            if self.live_tasks > max {
                return Err(SimError::BudgetExceeded {
                    at: self.now,
                    kind: BudgetKind::LiveTasks,
                    limit: max as u64,
                    used: self.live_tasks as u64,
                });
            }
        }

        self.sched.task_fork(&self.tasks, tid, parent, self.now);
        self.place_and_enqueue(tid, parent, true)?;
        Ok(tid)
    }

    /// Place a task (new or waking) and enqueue it, charging placement-scan
    /// cost to the CPU doing the wakeup.
    fn place_and_enqueue(
        &mut self,
        tid: Tid,
        waker: Option<Tid>,
        is_new: bool,
    ) -> Result<(), SimError> {
        let waking_cpu = match waker {
            Some(w) if self.tasks.contains(w) => self.tasks.get(w).cpu,
            _ => self.tasks.get(tid).last_cpu,
        };
        let kind = if is_new {
            WakeKind::New
        } else {
            WakeKind::Wakeup { waker }
        };
        let mut stats = SelectStats::default();
        let target = self
            .sched
            .select_task_rq(&self.tasks, tid, kind, waking_cpu, self.now, &mut stats)
            .map_err(|e| self.no_placeable(e))?;
        if !self.tasks.get(tid).allowed_on(target) {
            return Err(SimError::AffinityViolated {
                tid,
                cpu: target,
                at: self.now,
            });
        }
        if !self.cpus[target.index()].online {
            return Err(SimError::Invariant {
                at: self.now,
                detail: format!("scheduler placed {tid} on offline {target}"),
            });
        }
        self.counters.placement_scans += stats.cpus_scanned as u64;
        let scan_cost = self
            .cfg
            .select_scan_cost_per_cpu
            .saturating_mul(stats.cpus_scanned as u64);
        self.charge_overhead(waking_cpu, scan_cost);

        let t = self.tasks.get_mut(tid);
        t.cpu = target;
        t.state = TaskState::Runnable;
        t.on_rq = true;
        t.last_wakeup = self.now;
        let ekind = if is_new {
            EnqueueKind::New
        } else {
            EnqueueKind::Wakeup
        };
        let preempt = self
            .sched
            .enqueue_task(&mut self.tasks, target, tid, ekind, self.now);
        if self.check_on {
            self.san.touch(waking_cpu);
            self.san.arrive(target);
        }
        self.hash.record(1, self.now, tid.0, target.0);
        if self.trace_on && !is_new {
            self.emit(TraceEvent::Wakeup {
                at: self.now,
                tid,
                cpu: target,
                waker,
            });
        }
        let idle = self.cpus[target.index()].current.is_none();
        match preempt {
            Preempt::Yes(cause) if !idle => {
                let victim = self.cpus[target.index()].current;
                self.cpus[target.index()].resched_pending = true;
                self.counters.preemptions += 1;
                self.counters.wakeup_preemptions += 1;
                if self.trace_on {
                    if let Some(victim) = victim {
                        self.emit(TraceEvent::Preempt {
                            at: self.now,
                            cpu: target,
                            victim,
                            by: Some(tid),
                            cause,
                        });
                    }
                }
                self.events.push_now(self.now, Event::Resched(target));
            }
            _ if idle => {
                self.events.push_now(self.now, Event::Resched(target));
            }
            _ => {}
        }
        Ok(())
    }

    pub(crate) fn wake_task(&mut self, tid: Tid, waker: Option<Tid>) -> Result<(), SimError> {
        debug_assert_eq!(self.tasks.get(tid).state, TaskState::Sleeping);
        self.rt_mut(tid)?.blocked_on = None;
        self.counters.wakeups += 1;
        self.hash.record(2, self.now, tid.0, 0);
        self.place_and_enqueue(tid, waker, false)
    }

    // ------------------------------------------------------------------
    // Segment accounting & overhead
    // ------------------------------------------------------------------

    /// Bring the current task's `sum_exec` up to date with the work done in
    /// the active segment.
    fn account_segment(&mut self, cpu: CpuId) {
        let c = &mut self.cpus[cpu.index()];
        if !c.seg_active {
            return;
        }
        let Some(tid) = c.current else { return };
        let elapsed = self.now.saturating_since(c.seg_start);
        let total_work = elapsed.saturating_sub(c.seg_overhead);
        let delta = total_work.saturating_sub(c.seg_accounted);
        if !delta.is_zero() {
            c.seg_accounted = total_work;
            c.stats.work += delta;
            self.tasks.get_mut(tid).sum_exec += delta;
        }
    }

    /// Charge `cost` of kernel-mode time to `cpu`, postponing the running
    /// segment's completion.
    fn charge_overhead(&mut self, cpu: CpuId, cost: Dur) {
        if cost.is_zero() {
            return;
        }
        let c = &mut self.cpus[cpu.index()];
        c.stats.overhead += cost;
        if self.runs.is_armed(cpu) {
            // Active run segment: re-arm its completion later.
            c.seg_overhead += cost;
            let done_at = c.seg_start + c.seg_run_left + c.seg_overhead;
            self.runs.arm(cpu, done_at, self.events.alloc_seq());
        } else if c.current.is_some() && c.seg_active && c.seg_run_left == Dur::MAX {
            // Active spin segment: the spin absorbs the cost.
            c.seg_overhead += cost;
        } else {
            // Idle CPU, or a task between actions: fold the cost into the
            // next segment started on this CPU.
            c.pending_overhead += cost;
        }
    }

    /// Install a run segment of `left` work for the current task on `cpu`.
    fn start_run_segment(&mut self, cpu: CpuId, left: Dur) {
        let c = &mut self.cpus[cpu.index()];
        debug_assert!(c.current.is_some());
        c.seg_start = self.now;
        c.seg_overhead = std::mem::take(&mut c.pending_overhead);
        c.seg_accounted = Dur::ZERO;
        c.seg_run_left = left;
        c.seg_active = true;
        let done_at = c.seg_start + left + c.seg_overhead;
        self.runs.arm(cpu, done_at, self.events.alloc_seq());
    }

    /// Install an open-ended spin segment (no completion; ended by barrier
    /// release or spin timeout).
    fn start_spin_segment(&mut self, cpu: CpuId) {
        let c = &mut self.cpus[cpu.index()];
        debug_assert!(c.current.is_some());
        c.seg_start = self.now;
        c.seg_overhead = std::mem::take(&mut c.pending_overhead);
        c.seg_accounted = Dur::ZERO;
        c.seg_run_left = Dur::MAX;
        c.seg_active = true;
        self.runs.disarm(cpu);
    }

    /// End `cpu`'s segment, disarming its completion if one is armed.
    fn cancel_segment(&mut self, cpu: CpuId) {
        self.cpus[cpu.index()].seg_active = false;
        self.runs.disarm(cpu);
    }

    // ------------------------------------------------------------------
    // Scheduling core
    // ------------------------------------------------------------------

    fn request_resched(&mut self, cpu: CpuId, cause: PreemptCause) {
        let c = &mut self.cpus[cpu.index()];
        let Some(victim) = c.current else { return };
        if c.resched_pending {
            return;
        }
        c.resched_pending = true;
        self.counters.preemptions += 1;
        self.counters.tick_preemptions += 1;
        if self.trace_on {
            self.emit(TraceEvent::Preempt {
                at: self.now,
                cpu,
                victim,
                by: None,
                cause,
            });
        }
        self.events.push_now(self.now, Event::Resched(cpu));
    }

    /// Take the current task off the CPU, saving its remaining work, and
    /// put it back in the runqueue (involuntary preemption).
    pub(crate) fn preempt_current(&mut self, cpu: CpuId) -> Result<(), SimError> {
        self.account_segment(cpu);
        let c = &mut self.cpus[cpu.index()];
        let Some(tid) = c.current.take() else {
            return Ok(());
        };
        // Save remaining work for Run segments.
        let left = c.seg_run_left.saturating_sub(c.seg_accounted);
        self.cancel_segment(cpu);
        let penalty = self.cfg.preempt_penalty;
        let rt = self.rt_mut(tid)?;
        match rt.cont {
            Cont::Run { .. } => {
                // Involuntary preemption partially evicts the working set;
                // the refill shows up as extra work when it resumes.
                rt.cont = Cont::Run {
                    left: left + penalty,
                }
            }
            Cont::Spin { .. } => {} // spin deadline is absolute; keep state
            _ => {}
        }
        let t = self.tasks.get_mut(tid);
        t.state = TaskState::Runnable;
        t.last_ran = self.now;
        self.sched
            .put_prev_task(&mut self.tasks, cpu, tid, self.now);
        if self.check_on {
            self.san.touch(cpu);
        }
        Ok(())
    }

    /// The current task on `cpu` blocks (voluntary sleep). The task keeps
    /// `Cont::Blocked`; callers must have set `sleep` bookkeeping reasons.
    fn block_current(&mut self, cpu: CpuId, tid: Tid) {
        debug_assert_eq!(self.cpus[cpu.index()].current, Some(tid));
        self.account_segment(cpu);
        self.cancel_segment(cpu);
        self.cpus[cpu.index()].current = None;
        self.sched
            .dequeue_task(&mut self.tasks, cpu, tid, DequeueKind::Sleep, self.now);
        let t = self.tasks.get_mut(tid);
        t.state = TaskState::Sleeping;
        t.sleep_start = self.now;
        t.last_ran = self.now;
        t.on_rq = false;
        if self.check_on {
            self.san.depart(cpu);
        }
    }

    /// The current task exits.
    fn exit_current(&mut self, cpu: CpuId, tid: Tid) -> Result<(), SimError> {
        self.account_segment(cpu);
        self.cancel_segment(cpu);
        self.cpus[cpu.index()].current = None;
        self.sched
            .dequeue_task(&mut self.tasks, cpu, tid, DequeueKind::Dead, self.now);
        self.sched.task_dead(&self.tasks, tid, self.now);
        let t = self.tasks.get_mut(tid);
        t.state = TaskState::Dead;
        t.on_rq = false;
        if self.check_on {
            self.san.depart(cpu);
        }
        if self.trace_on {
            self.emit(TraceEvent::Exit { at: self.now, tid });
        }
        let rt = self.rt_mut(tid)?;
        rt.cont = Cont::Done;
        rt.behavior = None;
        let app = rt.app;
        let detached = rt.detached;
        self.live_tasks = self.live_tasks.saturating_sub(1);
        if !detached {
            let a = &mut self.apps[app.0 as usize];
            a.live -= 1;
            if a.live == 0 {
                a.finished = Some(self.now);
                if !a.daemon {
                    self.live_apps -= 1;
                }
            }
        }
        Ok(())
    }

    /// Pick tasks until one actually keeps the CPU (installs a run/spin
    /// segment) or the queue drains (CPU idles).
    fn pick_and_run(&mut self, cpu: CpuId) -> Result<(), SimError> {
        if !self.cpus[cpu.index()].online {
            return Ok(()); // hotplugged out; nothing may run here
        }
        if self.check_on {
            self.san.touch(cpu);
        }
        let mut spins = 0u32;
        loop {
            // The event-level stall watchdog cannot see a pick loop that
            // never installs a segment (e.g. a behavior yielding forever:
            // no events are processed, the loop just re-picks the same
            // task at the same instant) — bound the loop itself.
            if self.watch.stall_limit > 0 {
                spins += 1;
                if spins > self.watch.stall_limit {
                    return Err(self.livelock(format!(
                        "pick loop on {cpu} cycled {spins} times at {} without installing a run/spin segment",
                        self.now
                    )));
                }
            }
            debug_assert!(self.cpus[cpu.index()].current.is_none());
            let mut picked = self.sched.pick_next_task(&mut self.tasks, cpu, self.now);
            if picked.is_none() {
                // Newidle / idle-steal balancing.
                let mut stats = SelectStats::default();
                if self
                    .sched
                    .idle_balance(&mut self.tasks, cpu, self.now, &mut stats)
                {
                    if self.check_on {
                        self.san.sweep_all();
                    }
                    self.counters.migrations += 1;
                    picked = self.sched.pick_next_task(&mut self.tasks, cpu, self.now);
                }
            }
            let Some(tid) = picked else {
                self.cpus[cpu.index()].current = None;
                if self.trace_on {
                    self.emit(TraceEvent::Idle { at: self.now, cpu });
                }
                return Ok(());
            };
            debug_assert_eq!(self.tasks.get(tid).cpu, cpu, "picked task not on this cpu");

            // Dispatch bookkeeping.
            let prev_tid = self.cpus[cpu.index()].last_tid;
            let is_switch = prev_tid != Some(tid);
            let migrated_from = {
                let t = self.tasks.get(tid);
                if t.last_cpu != cpu && t.sum_exec > Dur::ZERO {
                    Some(t.last_cpu)
                } else {
                    None
                }
            };
            {
                let t = self.tasks.get_mut(tid);
                // The scheduling-latency headline metric: how long this
                // task sat runnable before getting the CPU. A wait that
                // started at a wakeup (not a preemption) is additionally
                // the paper's wakeup→dispatch latency.
                let from_wakeup = t.last_wakeup >= t.last_ran;
                let waited_since = if t.last_ran > t.last_wakeup {
                    t.last_ran
                } else {
                    t.last_wakeup
                };
                let wait = self.now.saturating_since(waited_since);
                t.state = TaskState::Running;
                t.last_cpu = cpu;
                if wait > self.counters.max_runnable_wait {
                    self.counters.max_runnable_wait = wait;
                }
                self.run_delay.record(wait);
                if from_wakeup {
                    self.wakeup_latency.record(wait);
                }
                if let Some(rt) = self.trt[tid.index()].as_ref() {
                    self.app_run_delay[rt.app.0 as usize].record(wait);
                }
            }
            let c = &mut self.cpus[cpu.index()];
            c.current = Some(tid);
            c.last_tid = Some(tid);
            c.resched_pending = false;
            if is_switch {
                self.counters.ctx_switches += 1;
                self.hash.record(3, self.now, tid.0, cpu.0);
                if self.trace_on {
                    self.emit(TraceEvent::Switch {
                        at: self.now,
                        cpu,
                        from: prev_tid,
                        to: tid,
                    });
                }
                let cost = self.cfg.ctx_switch_cost;
                self.cpus[cpu.index()].pending_overhead += cost;
                self.cpus[cpu.index()].stats.overhead += cost;
            }
            if let Some(from) = migrated_from {
                if self.watch.pingpong_limit > 0 {
                    let exec = self.tasks.get(tid).sum_exec;
                    if self.watch.note_migration(tid.0, from.0, cpu.0, exec) {
                        let n = self.watch.pingpong_limit;
                        return Err(self.livelock(format!(
                            "{tid} ping-ponged between {from} and {cpu} {n} times with no execution progress"
                        )));
                    }
                }
                let dist = self.topo.distance(from, cpu) as u64;
                let cost = self.cfg.migration_cost_per_distance.saturating_mul(dist);
                self.cpus[cpu.index()].pending_overhead += cost;
                self.cpus[cpu.index()].stats.overhead += cost;
                if self.trace_on {
                    self.emit(TraceEvent::Migrate {
                        at: self.now,
                        tid,
                        from,
                        to: cpu,
                    });
                }
            }

            let cont = std::mem::replace(&mut self.rt_mut(tid)?.cont, Cont::NeedAction);
            match cont {
                Cont::Run { left } => {
                    self.rt_mut(tid)?.cont = Cont::Run { left };
                    self.start_run_segment(cpu, left);
                    return Ok(());
                }
                Cont::Spin {
                    barrier,
                    generation,
                } => {
                    self.rt_mut(tid)?.cont = Cont::Spin {
                        barrier,
                        generation,
                    };
                    self.start_spin_segment(cpu);
                    return Ok(());
                }
                Cont::NeedAction => match self.interpret(cpu)? {
                    InterpretEnd::Running => return Ok(()),
                    InterpretEnd::NeedsPick => continue,
                },
                Cont::Retry(op) => match self.retry_blocked_op(cpu, tid, op)? {
                    InterpretEnd::Running => return Ok(()),
                    InterpretEnd::NeedsPick => continue,
                },
                Cont::Blocked | Cont::Done => {
                    return Err(SimError::PickedBlockedTask {
                        tid,
                        cpu,
                        at: self.now,
                    });
                }
            }
        }
    }

    /// A spuriously woken task re-executes the blocking operation it was
    /// ripped out of. If the resource is still unavailable it re-blocks —
    /// the wake was for nothing, exactly like a real spurious wakeup — and
    /// otherwise it completes the operation and carries on.
    fn retry_blocked_op(
        &mut self,
        cpu: CpuId,
        tid: Tid,
        op: BlockedOn,
    ) -> Result<InterpretEnd, SimError> {
        let out = match op {
            BlockedOn::Timer { deadline } => {
                if self.now < deadline {
                    // Too early: go back to sleep. The original timer event
                    // is still armed and will deliver the real wakeup.
                    let rt = self.rt_mut(tid)?;
                    rt.cont = Cont::Blocked;
                    rt.blocked_on = Some(op);
                    self.block_current(cpu, tid);
                    return Ok(InterpretEnd::NeedsPick);
                }
                OpOutcome::default() // sleep satisfied; proceed
            }
            BlockedOn::Mutex(m) => self.sync.mutex_lock(m, tid),
            BlockedOn::Sem(s) => self.sync.sem_wait(s, tid),
            BlockedOn::QueuePut { queue, value } => self.sync.queue_put(queue, tid, value),
            BlockedOn::QueueGet(q) => self.sync.queue_get(q, tid),
            BlockedOn::Barrier {
                barrier,
                generation,
            } => {
                if self.sync.barrier_generation(barrier) != generation {
                    // The barrier released while we were spuriously awake.
                    OpOutcome::default()
                } else {
                    self.sync.barrier_arrive(barrier, tid, false)
                }
            }
        };
        debug_assert!(!out.spin, "retry never spins");
        if self.apply_outcome(cpu, tid, out, Some(op))? {
            Ok(InterpretEnd::NeedsPick)
        } else {
            self.interpret(cpu)
        }
    }

    /// Interpret zero-time actions of the current task on `cpu` until it
    /// runs, spins, blocks, yields or exits.
    fn interpret(&mut self, cpu: CpuId) -> Result<InterpretEnd, SimError> {
        let mut guard = 0u32;
        loop {
            guard += 1;
            if guard > self.cfg.max_instant_actions {
                return Err(SimError::RunawayBehavior {
                    cpu,
                    at: self.now,
                    actions: guard,
                });
            }
            let Some(tid) = self.cpus[cpu.index()].current else {
                return Err(SimError::NoCurrent { cpu, at: self.now });
            };
            let action = {
                let now = self.now;
                // Call the behaviour where it lives: the split borrow hands
                // it the task's RNG and pending value beside it.
                let TaskRt {
                    behavior,
                    rng,
                    pending_value,
                    ..
                } = self.rt_mut(tid)?;
                let Some(behavior) = behavior.as_mut() else {
                    return Err(SimError::TaskStateLost { tid, at: now });
                };
                let mut ctx = Ctx {
                    now,
                    tid,
                    cpu,
                    value: pending_value.take(),
                    rng,
                };
                behavior.next(&mut ctx)
            };
            match action {
                Action::Run(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    self.rt_mut(tid)?.cont = Cont::Run { left: d };
                    self.start_run_segment(cpu, d);
                    return Ok(InterpretEnd::Running);
                }
                Action::Sleep(d) => {
                    let deadline = self.now + d;
                    let rt = self.rt_mut(tid)?;
                    rt.cont = Cont::Blocked;
                    rt.blocked_on = Some(BlockedOn::Timer { deadline });
                    self.block_current(cpu, tid);
                    self.events.push(deadline, Event::TimerWake { tid });
                    return Ok(InterpretEnd::NeedsPick);
                }
                Action::MutexLock(m) => {
                    let out = self.sync.mutex_lock(m, tid);
                    if self.apply_outcome(cpu, tid, out, Some(BlockedOn::Mutex(m)))? {
                        return Ok(InterpretEnd::NeedsPick);
                    }
                }
                Action::MutexUnlock(m) => {
                    let out = self.sync.mutex_unlock(m, tid);
                    let blocked = self.apply_outcome(cpu, tid, out, None)?;
                    debug_assert!(!blocked);
                }
                Action::SemWait(s) => {
                    let out = self.sync.sem_wait(s, tid);
                    if self.apply_outcome(cpu, tid, out, Some(BlockedOn::Sem(s)))? {
                        return Ok(InterpretEnd::NeedsPick);
                    }
                }
                Action::SemPost(s) => {
                    let out = self.sync.sem_post(s);
                    let blocked = self.apply_outcome(cpu, tid, out, None)?;
                    debug_assert!(!blocked);
                }
                Action::BarrierWait(b) => {
                    let generation = self.sync.barrier_generation(b);
                    let out = self.sync.barrier_arrive(b, tid, false);
                    let op = BlockedOn::Barrier {
                        barrier: b,
                        generation,
                    };
                    if self.apply_outcome(cpu, tid, out, Some(op))? {
                        return Ok(InterpretEnd::NeedsPick);
                    }
                }
                Action::BarrierWaitSpin(b, budget) => {
                    let generation = self.sync.barrier_generation(b);
                    let out = self.sync.barrier_arrive(b, tid, true);
                    if out.spin {
                        self.rt_mut(tid)?.cont = Cont::Spin {
                            barrier: b,
                            generation,
                        };
                        self.events.push(
                            self.now + budget,
                            Event::SpinTimeout {
                                tid,
                                barrier: b,
                                generation,
                            },
                        );
                        self.start_spin_segment(cpu);
                        return Ok(InterpretEnd::Running);
                    }
                    let blocked = self.apply_outcome(cpu, tid, out, None)?;
                    debug_assert!(!blocked, "last arriver never blocks");
                }
                Action::QueuePut(q, v) => {
                    let out = self.sync.queue_put(q, tid, v);
                    let op = BlockedOn::QueuePut { queue: q, value: v };
                    if self.apply_outcome(cpu, tid, out, Some(op))? {
                        return Ok(InterpretEnd::NeedsPick);
                    }
                }
                Action::QueueGet(q) => {
                    let out = self.sync.queue_get(q, tid);
                    if self.apply_outcome(cpu, tid, out, Some(BlockedOn::QueueGet(q)))? {
                        return Ok(InterpretEnd::NeedsPick);
                    }
                }
                Action::PoolTake(p) => {
                    let got = self.sync.pool_take(p);
                    self.rt_mut(tid)?.pending_value = Some(got);
                }
                Action::Spawn(spec) => {
                    let app = self.rt_mut(tid)?.app;
                    self.spawn_thread(app, *spec, Some(tid))?;
                }
                Action::Yield => {
                    self.account_segment(cpu);
                    self.cancel_segment(cpu);
                    self.cpus[cpu.index()].current = None;
                    let t = self.tasks.get_mut(tid);
                    t.state = TaskState::Runnable;
                    t.last_ran = self.now;
                    self.sched.yield_task(&mut self.tasks, cpu, self.now);
                    if self.check_on {
                        self.san.touch(cpu);
                    }
                    return Ok(InterpretEnd::NeedsPick);
                }
                Action::CountOps(n) => {
                    let app = self.rt_mut(tid)?.app;
                    self.apps[app.0 as usize].ops += n;
                }
                Action::RecordLatency(d) => {
                    let app = self.rt_mut(tid)?.app;
                    let a = &mut self.apps[app.0 as usize];
                    a.lat_count += 1;
                    a.lat_sum += d;
                    a.lat_max = a.lat_max.max(d);
                }
                Action::Exit => {
                    self.exit_current(cpu, tid)?;
                    return Ok(InterpretEnd::NeedsPick);
                }
            }
        }
    }

    /// Apply a synchronisation outcome for the current task `tid` on `cpu`,
    /// first draining the tasks the operation woke and the spinners it
    /// released from the [`SyncTable`]'s buffers, in that order.
    /// `op` records what the task would be blocked on if `out.block` is set,
    /// so the fault harness can later wake it spuriously and have it retry.
    /// Returns `true` if the task blocked (caller must stop interpreting).
    fn apply_outcome(
        &mut self,
        cpu: CpuId,
        tid: Tid,
        out: OpOutcome,
        op: Option<BlockedOn>,
    ) -> Result<bool, SimError> {
        if let Some(v) = out.value {
            self.rt_mut(tid)?.pending_value = Some(v);
        }
        // Each buffer is taken out while the kernel acts on it and put back
        // empty, keeping its capacity. On an error it is dropped instead,
        // so no stale entry outlives the failed operation.
        if !self.sync.woken.is_empty() {
            let mut woken = std::mem::take(&mut self.sync.woken);
            for &(w, val) in &woken {
                let rt = self.rt_mut(w)?;
                if let Some(v) = val {
                    rt.pending_value = Some(v);
                }
                rt.cont = Cont::NeedAction;
                self.wake_task(w, Some(tid))?;
            }
            woken.clear();
            self.sync.woken = woken;
        }
        if !self.sync.released.is_empty() {
            let mut released = std::mem::take(&mut self.sync.released);
            for &s in &released {
                self.release_spinner(s)?;
            }
            released.clear();
            self.sync.released = released;
        }
        if out.block {
            let rt = self.rt_mut(tid)?;
            rt.cont = Cont::Blocked;
            rt.blocked_on = op;
            self.block_current(cpu, tid);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// A barrier released a spinning task: let it continue, wherever it is.
    fn release_spinner(&mut self, tid: Tid) -> Result<(), SimError> {
        let rt = self.rt_mut(tid)?;
        debug_assert!(matches!(rt.cont, Cont::Spin { .. }));
        rt.cont = Cont::NeedAction;
        let cpu = self.tasks.get(tid).cpu;
        if self.cpus[cpu.index()].current == Some(tid) {
            // Currently burning CPU in the spin loop; continue via an event
            // to avoid re-entrant interpretation.
            self.events.push_now(self.now, Event::Continue(tid));
        }
        // If it was preempted mid-spin it sits in a runqueue and will
        // continue at its next dispatch.
        Ok(())
    }
}
