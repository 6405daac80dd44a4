//! The kernel's action path allocates nothing in steady state: once the
//! queues, buffers and barrier lists have grown to their working size,
//! mutex hand-offs, semaphore post→wake, queue put→get hand-offs and
//! barrier releases (sleepers woken, spinners released) run without a
//! single heap allocation.
//!
//! A binary of its own: it installs a counting global allocator, which
//! counts only while the test thread has switched counting on, so the
//! harness's other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kernel::{from_fn, Action, AppSpec, Kernel, SimConfig, SimpleRR, ThreadSpec};
use simcore::{Dur, Time};
use topology::Topology;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

/// A thread that plays `step(0)` to `step(n - 1)` in a loop forever.
fn looping(name: &str, n: usize, step: impl Fn(usize) -> Action + Send + 'static) -> ThreadSpec {
    let mut i = 0;
    ThreadSpec::new(
        name,
        from_fn(move |_| {
            let action = step(i);
            i = (i + 1) % n;
            action
        }),
    )
}

fn us(n: u64) -> Dur {
    Dur::micros(n)
}

#[test]
fn steady_state_hand_offs_allocate_nothing() {
    let topo = Topology::flat(4);
    let sched = Box::new(SimpleRR::new(&topo));
    let mut k = Kernel::new(topo, SimConfig::with_seed(1), sched);
    let m = k.new_mutex();
    let s = k.new_sem(0);
    let q = k.new_queue(1);
    let b = k.new_barrier(4);

    // Three threads contend for one mutex: unlocks hand ownership over.
    let mutex = (0..3)
        .map(|i| {
            looping(&format!("locker{i}"), 5, move |step| match step {
                0 => Action::MutexLock(m),
                1 => Action::Run(us(200)),
                2 => Action::MutexUnlock(m),
                3 => Action::Run(us(100)),
                _ => Action::CountOps(1),
            })
        })
        .collect();
    // The waiter is always asleep when the slower poster posts.
    let sem = vec![
        looping("poster", 2, move |step| match step {
            0 => Action::Run(us(300)),
            _ => Action::SemPost(s),
        }),
        looping("waiter", 3, move |step| match step {
            0 => Action::SemWait(s),
            1 => Action::Run(us(50)),
            _ => Action::CountOps(1),
        }),
    ];
    // The getter waits on the empty queue; each put hands its value over
    // directly, which the getter checks.
    let queue = vec![
        ThreadSpec::new(
            "putter",
            from_fn({
                let mut v = 0u64;
                let mut put = false;
                move |_| {
                    put = !put;
                    if put {
                        Action::Run(us(250))
                    } else {
                        v += 1;
                        Action::QueuePut(q, v)
                    }
                }
            }),
        ),
        ThreadSpec::new(
            "getter",
            from_fn({
                let mut waiting = false;
                let mut expect = 0u64;
                move |ctx| {
                    waiting = !waiting;
                    if waiting {
                        Action::QueueGet(q)
                    } else {
                        expect += 1;
                        assert_eq!(ctx.value, Some(expect), "queue hand-off lost a value");
                        Action::CountOps(1)
                    }
                }
            }),
        ),
    ];
    // Two spinners arrive first and spin; of the two sleepers the first
    // blocks and the last releases everyone.
    let barrier = vec![
        looping("spinner0", 2, move |step| match step {
            0 => Action::Run(us(100)),
            _ => Action::BarrierWaitSpin(b, Dur::millis(5)),
        }),
        looping("spinner1", 2, move |step| match step {
            0 => Action::Run(us(120)),
            _ => Action::BarrierWaitSpin(b, Dur::millis(5)),
        }),
        looping("sleeper0", 2, move |step| match step {
            0 => Action::Run(us(300)),
            _ => Action::BarrierWait(b),
        }),
        looping("sleeper1", 3, move |step| match step {
            0 => Action::Run(us(400)),
            1 => Action::BarrierWait(b),
            _ => Action::CountOps(1),
        }),
    ];
    let apps: Vec<_> = [
        ("mutex", mutex),
        ("sem", sem),
        ("queue", queue),
        ("barrier", barrier),
    ]
    .into_iter()
    .map(|(name, threads)| k.queue_app(Time::ZERO, AppSpec::new(name, threads).daemon()))
    .collect();

    // Warm-up: every queue, buffer and barrier list reaches its size (the
    // event queue's last growth here is at about 0.25 s).
    k.try_run_until(Time::ZERO + Dur::secs(1))
        .expect("warm-up runs clean");
    let ops_before: Vec<u64> = apps.iter().map(|&a| k.app(a).ops).collect();
    let wakeups_before = k.counters().wakeups;

    let allocs = allocations_in(|| {
        k.try_run_until(Time::ZERO + Dur::secs(2))
            .expect("steady state runs clean");
    });

    for (&app, before) in apps.iter().zip(ops_before) {
        let done = k.app(app).ops - before;
        assert!(done >= 100, "{}: only {done} rounds", k.app(app).name);
    }
    assert!(k.counters().wakeups - wakeups_before >= 1000);
    assert_eq!(allocs, 0, "the steady-state action path allocated");
}
