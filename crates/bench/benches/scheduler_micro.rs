//! Micro-benchmarks of the scheduler hot paths and simulation substrate.

use cfs::Cfs;
use criterion::{criterion_group, criterion_main, Criterion};
use kernel::{cpu_hog, AppSpec, CheckMode, Kernel, SimConfig, ThreadSpec};
use sched_api::{EnqueueKind, GroupId, Scheduler, Task, TaskState, TaskTable};
use simcore::{Dur, EventQueue, SimRng, Time};
use topology::{CpuId, Topology};
use ule::interactivity::Interactivity;
use ule::Ule;

/// Event-queue push/pop throughput (the simulator's innermost loop).
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(Time(i * 7919 % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
    // The kernel cancels a pending completion on every preemption and
    // migration, so cancel + skip-on-pop is as hot as push/pop itself.
    c.bench_function("event_queue_push_cancel_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = (0..1000u64)
                .map(|i| q.push(Time(i * 7919 % 100_000), i))
                .collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    // Steady-state slot recycling: a bounded queue living through many
    // push/cancel/pop generations (the shape a long simulation produces).
    c.bench_function("event_queue_recycle_64x100", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut t = 0u64;
            let mut acc = 0u64;
            for _ in 0..100 {
                let ids: Vec<_> = (0..64u64).map(|i| q.push(Time(t + i), i)).collect();
                for id in ids.iter().step_by(3) {
                    q.cancel(*id);
                }
                while let Some((at, _)) = q.pop() {
                    acc = acc.wrapping_add(at.0);
                }
                t += 64;
            }
            acc
        })
    });
}

/// The tick-dominated mix the kernel actually produces: 48 staggered
/// per-CPU tick chains re-armed on every pop, plus a short-lived
/// completion event per tick with half of them cancelled before firing.
/// Runs on both backends so a regression in either shows up side by side
/// (the wheel is the default; the heap is the differential fallback).
fn bench_event_queue_tick_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_tick_mix");
    for (name, backend) in [
        ("wheel", simcore::Backend::Wheel),
        ("heap", simcore::Backend::Heap),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                const NCPU: u64 = 48;
                let mut q = EventQueue::with_backend(backend);
                for cpu in 0..NCPU {
                    q.push(Time(1_000_000 + cpu * 21_000), cpu);
                }
                let mut last = None;
                let mut acc = 0u64;
                for n in 0..20_000u64 {
                    let Some((at, who)) = q.pop() else {
                        unreachable!("tick chains never drain")
                    };
                    acc = acc.wrapping_add(at.0 ^ who);
                    if who < NCPU {
                        q.push(at + Dur::millis(1), who);
                        let id = q.push(at + Dur::micros(37), NCPU + n);
                        if let Some(prev) = last.replace(id) {
                            if n % 2 == 0 {
                                q.cancel(prev);
                            }
                        }
                    }
                }
                acc
            })
        });
    }
    g.finish();
}

/// CFS periodic `balance_tick` with the caller-provided target buffer: the
/// per-tick path the kernel drives on every CPU every millisecond. Past the
/// first iteration the buffers are warm, so this measures the steady-state
/// allocation-free cost.
fn bench_balance_tick(c: &mut Criterion) {
    let topo = Topology::opteron_6172();
    let mut cfs = Cfs::new(&topo);
    let mut tasks = TaskTable::new();
    let now = Time::ZERO;
    // Pile work on CPU 0 so the balancer has something to look at.
    for i in 0..64 {
        let tid = tasks.insert_with(|t| Task::new(t, format!("t{i}"), GroupId(1)));
        cfs.task_fork(&tasks, tid, None, now);
        let t = tasks.get_mut(tid);
        t.cpu = CpuId(0);
        t.state = TaskState::Runnable;
        t.on_rq = true;
        cfs.enqueue_task(&mut tasks, CpuId(0), tid, EnqueueKind::New, now);
    }
    c.bench_function("cfs_balance_tick_32cpu", |b| {
        let mut targets = Vec::new();
        let mut t = now;
        b.iter(|| {
            t += Dur::millis(1);
            let mut moved = 0usize;
            for cpu in topo.all_cpus() {
                targets.clear();
                cfs.balance_tick(&mut tasks, cpu, t, &mut targets);
                moved += targets.len();
            }
            moved
        })
    });
}

/// The balancer sweep at datacenter scale: 256 cores, work piled on one
/// LLC, the rest of the machine idle. The O(active) rework makes the
/// group scan skip idle CPUs via the active mask, so this measures the
/// sparse case the old O(cores) walk paid full price for — one tick's
/// balance pass across all 256 CPUs per iteration.
fn bench_balance_tick_256c(c: &mut Criterion) {
    let mut g = c.benchmark_group("balance_tick_256c");
    let topo = Topology::numa_256();
    let load = |sched: &mut dyn Scheduler, tasks: &mut TaskTable| {
        let now = Time::ZERO;
        // 64 runnable tasks packed on the first 8 CPUs (one LLC's worth
        // of overload); the remaining 248 CPUs stay idle.
        for i in 0..64 {
            let tid = tasks.insert_with(|t| Task::new(t, format!("t{i}"), GroupId(1)));
            sched.task_fork(tasks, tid, None, now);
            let cpu = CpuId(i % 8);
            let t = tasks.get_mut(tid);
            t.cpu = cpu;
            t.state = TaskState::Runnable;
            t.on_rq = true;
            sched.enqueue_task(tasks, cpu, tid, EnqueueKind::New, now);
        }
    };
    g.bench_function("cfs", |b| {
        let mut cfs = Cfs::new(&topo);
        let mut tasks = TaskTable::new();
        load(&mut cfs, &mut tasks);
        let mut targets = Vec::new();
        let mut t = Time::ZERO;
        b.iter(|| {
            t += Dur::millis(1);
            let mut moved = 0usize;
            for cpu in topo.all_cpus() {
                targets.clear();
                cfs.balance_tick(&mut tasks, cpu, t, &mut targets);
                moved += targets.len();
            }
            moved
        })
    });
    g.bench_function("ule", |b| {
        let mut ule = Ule::new(&topo);
        let mut tasks = TaskTable::new();
        load(&mut ule, &mut tasks);
        let mut targets = Vec::new();
        let mut t = Time::ZERO;
        b.iter(|| {
            t += Dur::millis(1);
            let mut moved = 0usize;
            for cpu in topo.all_cpus() {
                targets.clear();
                ule.balance_tick(&mut tasks, cpu, t, &mut targets);
                moved += targets.len();
            }
            moved
        })
    });
    g.finish();
}

/// Layer: the ULE runqueue under SchedSan. Strict mode enumerates every
/// CPU's queue (`queued_tids_into`) and runs ULE's `audit` after every
/// event; this is one such sweep over an 8-CPU ULE with 2 CPU hogs per
/// CPU, one running and one queued — the shape of simbench's strict-8c.
fn bench_ule_queue_walk_8c(c: &mut Criterion) {
    let topo = Topology::regular("numa-8", 2, 1, 4, 1);
    let mut ule = Ule::new(&topo);
    let mut tasks = TaskTable::new();
    let now = Time::ZERO;
    for i in 0..16 {
        let tid = tasks.insert_with(|t| Task::new(t, format!("hog{i}"), GroupId(1)));
        // A hog's history: all run, no sleep, so it queues as batch.
        tasks.get_mut(tid).inherit_history = Some((Dur::secs(5), Dur::ZERO));
        ule.task_fork(&tasks, tid, None, now);
        let cpu = CpuId(i % 8);
        let t = tasks.get_mut(tid);
        t.cpu = cpu;
        t.state = TaskState::Runnable;
        t.on_rq = true;
        ule.enqueue_task(&mut tasks, cpu, tid, EnqueueKind::New, now);
    }
    for cpu in topo.all_cpus() {
        ule.pick_next_task(&mut tasks, cpu, now);
    }
    c.bench_function("ule_queue_walk_8c", |b| {
        let mut tids = Vec::new();
        b.iter(|| {
            let mut queued = 0usize;
            for cpu in topo.all_cpus() {
                tids.clear();
                ule.queued_tids_into(cpu, &mut tids);
                queued += tids.len();
                assert_eq!(ule.audit(&tasks, cpu, now), Ok(()));
            }
            queued
        })
    });
}

/// Layer: SchedSan's per-event check. A 32-CPU CFS kernel with two CPU
/// hogs per CPU runs under `CheckMode::Strict` through one fixed 10 ms
/// `try_run_until` window per iteration: the checker's pass after every
/// event plus the window's closing full sweep, on top of the event loop
/// `busy_machine_second` measures unchecked.
fn bench_schedsan_step_32c(c: &mut Criterion) {
    let topo = Topology::flat(32);
    let mut cfg = SimConfig::with_seed(1);
    cfg.check = CheckMode::Strict;
    let mut k = Kernel::new(topo.clone(), cfg, Box::new(Cfs::new(&topo)));
    let threads = (0..64)
        .map(|i| ThreadSpec::new(format!("hog{i}"), cpu_hog(Dur::secs(3600), Dur::millis(3))))
        .collect();
    k.queue_app(Time::ZERO, AppSpec::new("hogs", threads));
    // Past start-up, so every window sees the same steady state.
    k.run_until(Time::ZERO + Dur::millis(100));
    c.bench_function("schedsan_step_32c", |b| {
        b.iter(|| {
            let until = k.now() + Dur::millis(10);
            k.try_run_until(until)
                .expect("hogs never violate an invariant");
            k.counters().events
        })
    });
}

/// PELT decay math.
fn bench_pelt(c: &mut Criterion) {
    c.bench_function("pelt_update_1k", |b| {
        b.iter(|| {
            let mut p = cfs::pelt::Pelt::new_zero(Time::ZERO);
            let mut t = Time::ZERO;
            for i in 0..1000 {
                t += Dur::micros(800);
                p.update(t, i % 3 != 0);
            }
            p.avg()
        })
    });
}

/// ULE's interactivity scoring (penalty + window decay).
fn bench_interactivity(c: &mut Criterion) {
    let params = ule::params::UleParams::default();
    c.bench_function("ule_interact_update_1k", |b| {
        b.iter(|| {
            let mut i = Interactivity::new();
            for k in 0..1000u64 {
                if k % 3 == 0 {
                    i.add_sleep(Dur::millis(2), &params);
                } else {
                    i.add_run(Dur::millis(1), &params);
                }
            }
            i.penalty()
        })
    });
}

/// A full simulated second of a busy 32-core machine under each scheduler:
/// measures end-to-end simulator throughput (events/sec).
fn bench_busy_second(c: &mut Criterion) {
    let mut g = c.benchmark_group("busy_machine_second");
    g.sample_size(10);
    let build = |sched: Box<dyn Scheduler>| {
        let topo = Topology::opteron_6172();
        let mut k = Kernel::new(topo, SimConfig::with_seed(1), sched);
        let threads = (0..64)
            .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::secs(10), Dur::millis(3))))
            .collect();
        k.queue_app(Time::ZERO, AppSpec::new("busy", threads));
        k
    };
    g.bench_function("cfs", |b| {
        b.iter(|| {
            let topo = Topology::opteron_6172();
            let mut k = build(Box::new(Cfs::new(&topo)));
            k.run_until(Time::ZERO + Dur::secs(1));
            k.counters().ctx_switches
        })
    });
    g.bench_function("ule", |b| {
        b.iter(|| {
            let topo = Topology::opteron_6172();
            let mut k = build(Box::new(Ule::new(&topo)));
            k.run_until(Time::ZERO + Dur::secs(1));
            k.counters().ctx_switches
        })
    });
    g.finish();
}

/// Placement cost: one wakeup-placement decision on a loaded machine.
fn bench_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("wakeup_placement");
    // Preload a machine, then repeatedly exercise select_task_rq through
    // a sleeping/waking ping task.
    let setup = |sched: Box<dyn Scheduler>| {
        let topo = Topology::opteron_6172();
        let mut k = Kernel::new(topo, SimConfig::with_seed(1), sched);
        let mut threads: Vec<ThreadSpec> = (0..48)
            .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::secs(60), Dur::millis(5))))
            .collect();
        threads.push(ThreadSpec::new(
            "ping",
            kernel::from_fn(|_ctx| kernel::Action::Sleep(Dur::micros(200))),
        ));
        k.queue_app(Time::ZERO, AppSpec::new("bg", threads));
        k
    };
    g.bench_function("cfs_100ms_of_pings", |b| {
        let topo = Topology::opteron_6172();
        let mut k = setup(Box::new(Cfs::new(&topo)));
        b.iter(|| {
            let t = k.now() + Dur::millis(100);
            k.run_until(t);
            k.counters().wakeups
        })
    });
    g.bench_function("ule_100ms_of_pings", |b| {
        let topo = Topology::opteron_6172();
        let mut k = setup(Box::new(Ule::new(&topo)));
        b.iter(|| {
            let t = k.now() + Dur::millis(100);
            k.run_until(t);
            k.counters().placement_scans
        })
    });
    g.finish();
}

/// RNG throughput (sanity; it must never be a bottleneck).
fn bench_rng(c: &mut Criterion) {
    c.bench_function("simrng_1k_draws", |b| {
        let mut rng = SimRng::new(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.gen_below(1000));
            }
            acc
        })
    });
}

criterion_group!(
    micro,
    bench_event_queue,
    bench_event_queue_tick_mix,
    bench_balance_tick,
    bench_balance_tick_256c,
    bench_ule_queue_walk_8c,
    bench_schedsan_step_32c,
    bench_pelt,
    bench_interactivity,
    bench_busy_second,
    bench_placement,
    bench_rng
);
criterion_main!(micro);
