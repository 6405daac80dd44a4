//! The thread-behaviour DSL.
//!
//! Every simulated thread executes a [`Behavior`]: a state machine that,
//! whenever the kernel asks, yields the thread's next [`Action`] — burn CPU,
//! sleep, block on a synchronisation object, spawn a thread, record a
//! metric, or exit. Workload models (the `workloads` crate) are built
//! entirely out of behaviours; the kernel interprets them and the scheduler
//! under test reacts to the resulting run/sleep/wake pattern.
//!
//! Zero-duration actions (locking a free mutex, recording a metric, ...)
//! consume no simulated time; only [`Action::Run`] and kernel-charged
//! overheads advance a thread's CPU consumption.

use sched_api::Tid;
use simcore::{Dur, SimRng, Time};
use topology::{CpuId, CpuMask};

/// Handle to a simulated mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MutexId(pub u32);
/// Handle to a simulated barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierId(pub u32);
/// Handle to a simulated counting semaphore ("event").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SemId(pub u32);
/// Handle to a simulated bounded queue (pipes, request queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(pub u32);
/// Handle to a shared work pool (a global countdown of work items).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolId(pub u32);

/// What a thread wants to do next.
///
/// Every behaviour call returns one, so the enum is kept register-sized
/// (at most 16 bytes, pinned by a `const` assertion): the one large
/// payload, [`Action::Spawn`]'s [`ThreadSpec`], is boxed.
pub enum Action {
    /// Execute on the CPU for the given amount of work. The scheduler may
    /// slice this across many dispatches; the kernel tracks the remainder.
    Run(Dur),
    /// Voluntarily sleep for the given duration (timer sleep). Counts as
    /// voluntary sleep for ULE's interactivity metric.
    Sleep(Dur),
    /// Acquire a mutex; blocks (voluntary sleep) if contended.
    MutexLock(MutexId),
    /// Release a mutex; wakes the first waiter, if any.
    MutexUnlock(MutexId),
    /// Wait on a barrier; blocks until the last party arrives.
    BarrierWait(BarrierId),
    /// Wait on a barrier, spinning (burning CPU) for up to the given
    /// duration before giving up and sleeping. Models the NAS MG barrier:
    /// "waits on a spin-barrier for 100 ms and then sleeps" (§6.3).
    BarrierWaitSpin(BarrierId, Dur),
    /// Decrement a semaphore; blocks if zero.
    SemWait(SemId),
    /// Increment a semaphore; wakes the first waiter, if any.
    SemPost(SemId),
    /// Push a value into a queue; blocks while full.
    QueuePut(QueueId, u64),
    /// Pop a value from a queue; blocks while empty. The popped value is
    /// delivered through [`Ctx::value`] on the next `next()` call.
    QueueGet(QueueId),
    /// Atomically take one work item from a shared pool (never blocks).
    /// Delivers `1` through [`Ctx::value`] if an item was taken, `0` if the
    /// pool is exhausted. Models a fixed global workload drained by many
    /// workers (e.g. sysbench's transaction budget).
    PoolTake(PoolId),
    /// Create a new thread in the same application.
    Spawn(Box<ThreadSpec>),
    /// Give up the CPU voluntarily without sleeping (`sched_yield`).
    Yield,
    /// Count `n` completed application-level operations (transactions,
    /// requests); feeds the throughput metrics.
    CountOps(u64),
    /// Record one application-level latency sample (e.g. a request's
    /// response time, computed by the behaviour from [`Ctx::now`]).
    RecordLatency(Dur),
    /// Terminate the thread.
    Exit,
}

const _: () = assert!(std::mem::size_of::<Action>() <= 16);

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Run(d) => write!(f, "Run({d})"),
            Action::Sleep(d) => write!(f, "Sleep({d})"),
            Action::MutexLock(m) => write!(f, "MutexLock({})", m.0),
            Action::MutexUnlock(m) => write!(f, "MutexUnlock({})", m.0),
            Action::BarrierWait(b) => write!(f, "BarrierWait({})", b.0),
            Action::BarrierWaitSpin(b, d) => write!(f, "BarrierWaitSpin({}, {d})", b.0),
            Action::SemWait(s) => write!(f, "SemWait({})", s.0),
            Action::SemPost(s) => write!(f, "SemPost({})", s.0),
            Action::QueuePut(q, v) => write!(f, "QueuePut({}, {v})", q.0),
            Action::QueueGet(q) => write!(f, "QueueGet({})", q.0),
            Action::PoolTake(p) => write!(f, "PoolTake({})", p.0),
            Action::Spawn(s) => write!(f, "Spawn({:?})", s.name),
            Action::Yield => write!(f, "Yield"),
            Action::CountOps(n) => write!(f, "CountOps({n})"),
            Action::RecordLatency(d) => write!(f, "RecordLatency({d})"),
            Action::Exit => write!(f, "Exit"),
        }
    }
}

/// Specification of a thread to spawn.
pub struct ThreadSpec {
    /// Debug name.
    pub name: String,
    /// Nice value.
    pub nice: i32,
    /// Hard CPU affinity, if any. `Some(empty)` is rejected at spawn time
    /// (an unplaceable thread); build it via [`ThreadSpec::pinned`].
    pub affinity: Option<CpuMask>,
    /// Marks kernel threads (the only ones that may preempt under ULE).
    pub kernel_thread: bool,
    /// Synthetic fork history `(runtime, sleeptime)` for threads whose
    /// parent is outside the simulation (e.g. sysbench's master is forked
    /// from `bash`, which mostly sleeps — §5.2).
    pub inherit_history: Option<(Dur, Dur)>,
    /// Detached threads (runtime helpers like a JVM's GC threads) do not
    /// count toward application completion.
    pub detached: bool,
    /// The behaviour the thread will execute.
    pub behavior: Box<dyn Behavior>,
}

impl ThreadSpec {
    /// A plain nice-0 thread with the given behaviour.
    pub fn new(name: impl Into<String>, behavior: Box<dyn Behavior>) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            nice: 0,
            affinity: None,
            kernel_thread: false,
            inherit_history: None,
            detached: false,
            behavior,
        }
    }

    /// Mark as detached (does not block app completion).
    pub fn detached(mut self) -> ThreadSpec {
        self.detached = true;
        self
    }

    /// Set the nice value.
    pub fn nice(mut self, nice: i32) -> ThreadSpec {
        self.nice = nice;
        self
    }

    /// Pin to a set of CPUs. Panics on an empty set: a thread with no
    /// placeable CPU is a workload-construction bug, caught here at the
    /// source instead of deep in the dispatch path. (Scenario TOMLs reject
    /// `pin = []` earlier still, with a line-numbered diagnostic.)
    pub fn pinned(mut self, cpus: Vec<CpuId>) -> ThreadSpec {
        assert!(
            !cpus.is_empty(),
            "ThreadSpec::pinned: empty affinity mask for thread {:?}",
            self.name
        );
        self.affinity = Some(cpus.into_iter().collect());
        self
    }

    /// Give the thread a synthetic parent history (run, sleep).
    pub fn with_history(mut self, run: Dur, sleep: Dur) -> ThreadSpec {
        self.inherit_history = Some((run, sleep));
        self
    }
}

/// Context handed to a behaviour on every `next()` call.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// The thread's id.
    pub tid: Tid,
    /// The CPU the thread is currently on.
    pub cpu: CpuId,
    /// Value delivered by the last completed [`Action::QueueGet`], if any.
    pub value: Option<u64>,
    /// Per-thread deterministic RNG stream.
    pub rng: &'a mut SimRng,
}

/// A thread's program. Implementations are state machines: `next()` is
/// called once at start and again after each completed action.
pub trait Behavior: Send {
    /// Produce the next action. Returning [`Action::Exit`] ends the thread.
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Action;
}

/// A behaviour defined by a fixed script of steps, each produced by a
/// closure (so scripts can embed randomness/latency computation).
pub struct Script {
    steps: std::collections::VecDeque<Action>,
}

impl Script {
    /// Behaviour that performs the given actions in order, then exits.
    pub fn new(steps: Vec<Action>) -> Script {
        Script {
            steps: steps.into(),
        }
    }
}

impl Behavior for Script {
    fn next(&mut self, _ctx: &mut Ctx<'_>) -> Action {
        self.steps.pop_front().unwrap_or(Action::Exit)
    }
}

/// A behaviour driven by a closure; the closure's state is its environment.
pub struct FnBehavior<F>(pub F);

impl<F> Behavior for FnBehavior<F>
where
    F: FnMut(&mut Ctx<'_>) -> Action + Send,
{
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Action {
        (self.0)(ctx)
    }
}

/// Convenience: box a closure as a behaviour.
pub fn from_fn<F>(f: F) -> Box<dyn Behavior>
where
    F: FnMut(&mut Ctx<'_>) -> Action + Send + 'static,
{
    Box::new(FnBehavior(f))
}

/// A pure CPU burner: runs `total` work in `chunk`-sized segments, then
/// exits. The chunking only bounds event horizon; the scheduler still slices
/// each chunk via preemption.
pub fn cpu_hog(total: Dur, chunk: Dur) -> Box<dyn Behavior> {
    let mut left = total;
    from_fn(move |_ctx| {
        if left.is_zero() {
            return Action::Exit;
        }
        let seg = left.min(chunk);
        left -= seg;
        Action::Run(seg)
    })
}

/// An infinite spinner (never exits, never sleeps) — the Figure 6 workload.
pub fn spinner(chunk: Dur) -> Box<dyn Behavior> {
    from_fn(move |_ctx| Action::Run(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_ctx_parts() -> (Time, Tid, CpuId, SimRng) {
        (Time::ZERO, Tid(0), CpuId(0), SimRng::new(1))
    }

    #[test]
    fn script_plays_in_order_then_exits() {
        let (now, tid, cpu, mut rng) = dummy_ctx_parts();
        let mut ctx = Ctx {
            now,
            tid,
            cpu,
            value: None,
            rng: &mut rng,
        };
        let mut s = Script::new(vec![Action::Run(Dur::millis(1)), Action::Yield]);
        assert!(matches!(s.next(&mut ctx), Action::Run(_)));
        assert!(matches!(s.next(&mut ctx), Action::Yield));
        assert!(matches!(s.next(&mut ctx), Action::Exit));
        assert!(matches!(s.next(&mut ctx), Action::Exit));
    }

    #[test]
    fn cpu_hog_emits_chunks_then_exits() {
        let (now, tid, cpu, mut rng) = dummy_ctx_parts();
        let mut ctx = Ctx {
            now,
            tid,
            cpu,
            value: None,
            rng: &mut rng,
        };
        let mut hog = cpu_hog(Dur::millis(5), Dur::millis(2));
        let mut total = Dur::ZERO;
        loop {
            match hog.next(&mut ctx) {
                Action::Run(d) => {
                    assert!(d <= Dur::millis(2));
                    total += d;
                }
                Action::Exit => break,
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(total, Dur::millis(5));
    }

    #[test]
    fn spinner_never_exits() {
        let (now, tid, cpu, mut rng) = dummy_ctx_parts();
        let mut ctx = Ctx {
            now,
            tid,
            cpu,
            value: None,
            rng: &mut rng,
        };
        let mut s = spinner(Dur::millis(10));
        for _ in 0..100 {
            assert!(matches!(s.next(&mut ctx), Action::Run(_)));
        }
    }

    #[test]
    fn thread_spec_builders() {
        let spec = ThreadSpec::new("t", cpu_hog(Dur::millis(1), Dur::millis(1)))
            .nice(5)
            .pinned(vec![CpuId(0)])
            .with_history(Dur::millis(10), Dur::secs(2));
        assert_eq!(spec.nice, 5);
        assert_eq!(spec.affinity, Some(topology::CpuMask::single(CpuId(0))));
        assert_eq!(spec.inherit_history, Some((Dur::millis(10), Dur::secs(2))));
    }
}
