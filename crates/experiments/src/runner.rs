//! Parallel execution of independent simulations.
//!
//! Every driver in this crate decomposes into independent single-kernel
//! simulations — one per (experiment, scheduler, workload, seed) tuple.
//! Each simulation is deterministic, shares nothing with its siblings, and
//! takes from milliseconds to minutes, so the obvious way to use a
//! multicore host is to run them side by side.
//!
//! There is one pool, [`par_map_supervised`], and two wrappers around it:
//! [`par_map`] for sweeps that cannot fail, and [`join`] for the CFS/ULE
//! pairs of fig1, fig6 and fig7. Every entry point takes the pool size
//! (the number of worker threads) as its first argument; every experiment
//! passes `RunCfg::threads`, which `battle --threads N` sets and which
//! defaults to [`default_threads`]. Nothing in this module is process-global, so
//! two callers (or two tests) can use different sizes at the same time.
//!
//! The contract that makes this safe to rely on is **result-order
//! stability**: results come back in *input order*, no matter how many
//! worker threads ran them or how they interleaved. Since every
//! simulation is itself deterministic (a seeded [`kernel::Kernel`] with no
//! wall-clock or thread-id inputs), the output of every experiment —
//! tables, charts, JSON — is byte-identical for `--threads 1` and
//! `--threads 32`.
//! The cross-thread determinism test in `tests/determinism.rs` pins this
//! down.
//!
//! **Panic isolation (SchedGuard).** Every job runs under
//! [`std::panic::catch_unwind`]: one panicking simulation never takes down
//! its siblings or the pool. [`par_map_supervised`] surfaces the panic as
//! a [`JobOutcome::Panicked`] value in the job's result slot; [`par_map`]
//! lets every sibling finish and then re-raises the first panic (in input
//! order) on the caller's thread, keeping its infallible signature. Mutex
//! poisoning cannot occur: a panic is caught before it can poison a
//! cell/slot lock, and the locks are taken through a poison-tolerant
//! helper regardless.
//!
//! A job's panic is reported once, on standard error, by the pool: one
//! line per panicked job, in input order, after the whole batch has run,
//! naming the job and where it panicked. The process's panic hook stays
//! quiet for a panic inside a job, since what it prints (the worker's
//! thread name and OS id, and a backtrace under `RUST_BACKTRACE`) differs
//! between runs and between pool sizes; the report does not.
//!
//! The pool is a std-only work-stealing-free design: a shared atomic job
//! index hands each worker the next unclaimed job (scoped threads, no
//! channels needed because each job writes to its own result slot). This
//! crate deliberately avoids external thread-pool dependencies so the
//! workspace builds offline.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

/// The pool size used when the caller does not choose one: the host's
/// available parallelism (1 if it cannot be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How one supervised job ended.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Done(T),
    /// The job panicked; the payload is rendered to a message. Sibling
    /// jobs and the pool were unaffected.
    Panicked(String),
}

impl<T> JobOutcome<T> {
    /// The panic message, if the job panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            JobOutcome::Done(_) => None,
            JobOutcome::Panicked(m) => Some(m),
        }
    }
}

/// Render a caught panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Whether this thread is running a pool job, whose panic the pool
    /// reports.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
    /// Where this thread's last job panic happened, as `file:line:col`.
    static PANIC_AT: Cell<Option<String>> = const { Cell::new(None) };
}

/// Install, once per process, a panic hook that records where a panic
/// inside a pool job happened and prints nothing, and hands every other
/// panic to the hook it replaced.
fn quiet_job_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_JOB.get() {
                let at = info
                    .location()
                    .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
                PANIC_AT.set(at);
            } else {
                prev(info);
            }
        }));
    });
}

/// Lock a mutex, tolerating poisoning (a poisoned lock only means some
/// other job panicked; the data — an `Option` slot — is still valid).
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// How a job ended, and where it panicked if it did.
type Slot<T> = (JobOutcome<T>, Option<String>);

/// The pool: apply `f` to every item on up to `threads` workers, each call
/// under `catch_unwind`, and return how each ended **in input order**
/// regardless of execution interleaving. A panicking item becomes
/// [`JobOutcome::Panicked`] while the rest of the sweep completes, and is
/// reported on standard error (see the module docs).
///
/// With one worker (or one item) everything runs inline on the caller's
/// thread — no spawning, identical code path to the sequential version.
pub fn par_map_supervised<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<JobOutcome<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    quiet_job_panics();
    let run = |item: I| -> Slot<T> {
        let outer = IN_JOB.replace(true);
        PANIC_AT.take();
        let out = catch_unwind(AssertUnwindSafe(|| f(item)));
        IN_JOB.set(outer);
        match out {
            Ok(v) => (JobOutcome::Done(v), None),
            Err(p) => (
                JobOutcome::Panicked(panic_message(p.as_ref())),
                PANIC_AT.take(),
            ),
        }
    };
    let n = items.len();
    let workers = threads.min(n);
    let outcomes: Vec<_> = if workers <= 1 {
        items.into_iter().map(run).collect()
    } else {
        run_pool(workers, items, run)
    };
    for (i, (outcome, at)) in outcomes.iter().enumerate() {
        if let JobOutcome::Panicked(msg) = outcome {
            match at {
                Some(at) => eprintln!("job {i} of {n} panicked at {at}: {msg}"),
                // `resume_unwind` (a nested `par_map`'s re-raise, which
                // its own pool reported) skips the hook.
                None => eprintln!("job {i} of {n} panicked: {msg}"),
            }
        }
    }
    outcomes.into_iter().map(|(o, _)| o).collect()
}

/// The threaded half of [`par_map_supervised`]: `run` every item on
/// `workers` scoped threads, results in input order.
fn run_pool<I, T, F>(workers: usize, items: Vec<I>, run: F) -> Vec<Slot<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Slot<T> + Sync,
{
    let n = items.len();

    // Each item sits in its own cell; workers claim cells through a shared
    // atomic cursor and write each result into the slot with the same
    // index, so collection order never depends on scheduling.
    let cells: Vec<Mutex<Option<I>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let slots: Vec<Mutex<Option<Slot<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let Some(item) = lock_clean(&cells[i]).take() else {
                    continue; // cursor hands indices out once; defensive
                };
                let out = run(item);
                *lock_clean(&slots[i]) = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                // A claimed job always writes its slot (the write is after
                // catch_unwind); an empty slot would mean a worker died
                // outside the catch, which we surface instead of hiding.
                .unwrap_or_else(|| {
                    let lost = "job result slot empty".to_string();
                    (JobOutcome::Panicked(lost), None)
                })
        })
        .collect()
}

/// [`par_map_supervised`] for sweeps that cannot fail: the results in
/// input order. A panicking item does not abort its siblings: every other
/// item still runs to completion, after which the first panic in input
/// order is re-raised here with [`std::panic::resume_unwind`] (which does
/// not run the panic hook, so the message is printed once, by the pool's
/// report).
pub fn par_map<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    par_map_supervised(threads, items, f)
        .into_iter()
        .map(|o| match o {
            JobOutcome::Done(v) => v,
            JobOutcome::Panicked(msg) => std::panic::resume_unwind(Box::new(msg)),
        })
        .collect()
}

/// Run two closures, in parallel when `threads` allows, returning both
/// results. A panic in either is re-raised on the caller's thread.
pub fn join<A, B, FA, FB>(threads: usize, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if threads <= 1 {
        return (fa(), fb());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(fb);
        let a = fa();
        let b = match hb.join() {
            Ok(b) => b,
            // Re-raise the worker's panic on the caller's thread with its
            // original payload instead of a generic join abort.
            Err(p) => std::panic::resume_unwind(p),
        };
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_submission_order() {
        let out = par_map(4, (0..64usize).collect(), |i| {
            // Stagger finish times so out-of-order completion is
            // actually exercised.
            std::thread::sleep(Duration::from_micros(((i * 7) % 13) as u64));
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let main_id = std::thread::current().id();
        let ids = par_map(1, vec![0, 1], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == main_id));
    }

    #[test]
    fn pool_of_n_runs_n_jobs_at_once() {
        // Each job checks in, then waits until all N have checked in. A
        // pool running fewer than N jobs at once leaves the first ones
        // waiting until the shared deadline, so it fails instead of
        // hanging.
        const N: usize = 4;
        let deadline = Instant::now() + Duration::from_secs(10);
        let started = Mutex::new(0usize);
        let all_in = Condvar::new();
        let met = par_map(N, vec![(); N], |()| {
            let mut n = lock_clean(&started);
            *n += 1;
            all_in.notify_all();
            while *n < N {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                n = all_in
                    .wait_timeout(n, left)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            true
        });
        assert_eq!(
            met,
            vec![true; N],
            "a pool of {N} ran fewer than {N} jobs at once"
        );
    }

    #[test]
    fn par_map_and_join() {
        assert_eq!(par_map(2, vec![1, 2, 3], |x| x * x), vec![1, 4, 9]);
        assert_eq!(join(2, || "a", || "b"), ("a", "b"));
        assert_eq!(join(1, || "a", || "b"), ("a", "b"));
    }

    #[test]
    fn supervised_panic_is_isolated_per_slot() {
        for workers in [1, 4] {
            let out = par_map_supervised(workers, vec![1, 2, 3, 4], |x| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                x * 10
            });
            assert!(matches!(out[0], JobOutcome::Done(10)));
            assert_eq!(out[1].panic_message(), Some("boom on 2"));
            assert!(matches!(out[2], JobOutcome::Done(30)));
            assert!(matches!(out[3], JobOutcome::Done(40)));
        }
    }

    #[test]
    fn par_map_reraises_after_finishing_siblings() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(2, vec![1, 2, 3, 4], |x| {
                if x == 2 || x == 3 {
                    panic!("boom on {x}");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let payload = caught.expect_err("par_map propagates panics");
        assert_eq!(
            panic_message(payload.as_ref()),
            "boom on 2",
            "first in input order"
        );
        assert_eq!(ran.load(Ordering::Relaxed), 2, "siblings ran to completion");
    }
}
