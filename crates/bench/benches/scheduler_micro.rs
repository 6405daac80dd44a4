//! Micro-benchmarks of the scheduler hot paths and simulation substrate.

use cfs::Cfs;
use criterion::{criterion_group, criterion_main, Criterion};
use kernel::ticks::{RunLane, TickLane};
use kernel::{cpu_hog, AppSpec, CheckMode, FaultPlan, Kernel, SimConfig, ThreadSpec};
use scenario::expr::CountExpr;
use scenario::spec::WorkloadSpec;
use scenario::{make_class, make_kernel, Sched};
use sched_api::{
    DequeueKind, EnqueueKind, GroupId, Scheduler, SelectStats, Task, TaskState, TaskTable, WakeKind,
};
use simcore::{Dur, EventQueue, SimRng, Time};
use topology::{CpuId, Topology};
use ule::interactivity::Interactivity;
use ule::Ule;

/// Layer: the event queue. Push/pop throughput (the simulator's innermost
/// loop).
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
    // Steady-state slot recycling: a bounded queue living through many
    // push/pop generations (the shape a long simulation produces).
    c.bench_function("event_queue_recycle_64x100", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut t = 0u64;
            let mut acc = 0u64;
            for _ in 0..100 {
                for i in 0..64u64 {
                    q.push(Time(t + (i * 37) % 64), i);
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

/// Layer: the event queue. A tick-shaped mix: 48 staggered periodic
/// chains re-armed on every pop, plus a short-lived event per chain pop
/// (the reschedules and timer wakes a tick sets off).
fn bench_event_queue_tick_mix(c: &mut Criterion) {
    c.bench_function("event_queue_tick_mix", |b| {
        b.iter(|| {
            const NCPU: u64 = 48;
            let mut q = EventQueue::new();
            for cpu in 0..NCPU {
                q.push(Time(1_000_000 + cpu * 21_000), cpu);
            }
            let mut acc = 0u64;
            for n in 0..20_000u64 {
                let Some((at, who)) = q.pop() else {
                    unreachable!("tick chains never drain")
                };
                acc = acc.wrapping_add(at.0 ^ who);
                if who < NCPU {
                    q.push(at + Dur::millis(1), who);
                    q.push(at + Dur::micros(37), NCPU + n);
                }
            }
            acc
        })
    });
}

/// Layer: the event queue. A wakeup burst, as a herd release makes: 1,024
/// events due at one instant pushed onto a queue holding 128 pending
/// timers, then drained. `heap` pushes the burst through `push`, sifting
/// each event through the heap; `fifo` through `push_now`, as the kernel
/// queues its reschedules.
fn bench_event_burst(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_burst");
    for (name, now) in [("heap", false), ("fifo", true)] {
        let mut q = EventQueue::new();
        let mut rng = SimRng::new(11);
        for i in 0..128u64 {
            q.push(Time(1_000_000 + rng.gen_below(1_000_000)), i);
        }
        let at = Time(1_000);
        g.bench_function(name, |b| {
            b.iter(|| {
                for i in 0..1024u64 {
                    if now {
                        q.push_now(at, i);
                    } else {
                        q.push(at, i);
                    }
                }
                let mut acc = 0u64;
                for _ in 0..1024 {
                    let Some((_, v)) = q.pop() else {
                        unreachable!("the burst precedes every timer")
                    };
                    acc = acc.wrapping_add(v);
                }
                acc
            })
        });
    }
    g.finish();
}

/// Layer: run lane. 512 CPUs, each with a run completion armed. Every
/// fired completion re-arms its CPU one run segment later; in between,
/// overhead charged to a random CPU re-arms its completion later, and
/// every fourth step a random CPU is preempted (disarmed) and dispatched
/// again (re-armed), as `Kernel` drives the lane.
fn bench_run_lane_512c(c: &mut Criterion) {
    const NCPU: u32 = 512;
    c.bench_function("run_lane_512c", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut lane = RunLane::new(NCPU as usize);
            let mut seq = 0u64;
            let mut due = vec![Time::ZERO; NCPU as usize];
            for cpu in 0..NCPU {
                due[cpu as usize] = Time(rng.gen_below(4_000_000));
                lane.arm(CpuId(cpu), due[cpu as usize], seq);
                seq += 1;
            }
            let mut acc = 0u64;
            for n in 0..20_000u64 {
                let Some((at, _, cpu)) = lane.pop() else {
                    unreachable!("every fired CPU re-arms")
                };
                acc = acc.wrapping_add(at.0);
                due[cpu.index()] = at + Dur(50_000 + rng.gen_below(4_000_000));
                lane.arm(cpu, due[cpu.index()], seq);
                seq += 1;
                let other = CpuId(rng.gen_below(u64::from(NCPU)) as u32);
                if n % 4 == 0 {
                    lane.disarm(other);
                }
                due[other.index()] += Dur(5_000);
                lane.arm(other, due[other.index()], seq);
                seq += 1;
            }
            acc
        })
    });
}

/// Layer: the tick lane. 512 CPUs with staggered 1 ms ticks, each fired
/// tick re-armed as `Kernel::on_tick` does: `plain` always re-arms one
/// period later (a `push_back`), `jitter` adds up to 200 µs of
/// fault-injected jitter, so re-arms land inside the armed window.
fn bench_tick_lane_512c(c: &mut Criterion) {
    const NCPU: u64 = 512;
    const TICK: u64 = 1_000_000;
    let mut g = c.benchmark_group("tick_lane_512c");
    for (name, jitter) in [("plain", 0u64), ("jitter", 200_000)] {
        g.bench_function(name, |b| {
            let mut rng = SimRng::new(7);
            b.iter(|| {
                let mut lane = TickLane::new(NCPU as usize);
                let mut seq = 0u64;
                for cpu in 0..NCPU {
                    lane.arm(CpuId(cpu as u32), Time(TICK + TICK * cpu / NCPU), seq);
                    seq += 1;
                }
                let mut acc = 0u64;
                for _ in 0..20_000 {
                    let Some((at, _, cpu)) = lane.pop() else {
                        unreachable!("tick chains never drain")
                    };
                    acc = acc.wrapping_add(at.0);
                    let extra = if jitter > 0 {
                        rng.gen_below(jitter + 1)
                    } else {
                        0
                    };
                    lane.arm(cpu, Time(at.0 + TICK + extra), seq);
                    seq += 1;
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

/// Layer: classes (placement and balancing). The balancer sweep at
/// datacenter scale for every registered class: 256 cores, work piled on
/// one LLC, the rest of the machine idle — one tick's balance pass across
/// all 256 CPUs per iteration. CFS's sweeps skip idle CPUs via its active
/// mask; ULE, EEVDF, SimpleRR and the scx classes let every idle CPU try a
/// steal, which reads the occupancy index's level masks instead of every
/// runqueue. Nothing is ever picked to run, so the steal-on-tick classes
/// keep moving the waiters between CPUs.
fn bench_balance_tick_256c(c: &mut Criterion) {
    let mut g = c.benchmark_group("balance_tick_256c");
    let topo = Topology::numa_256();
    for sched in Sched::ALL {
        g.bench_function(sched.flag_name(), |b| {
            let mut class = make_class(&topo, sched, 0);
            let mut tasks = TaskTable::new();
            let now = Time::ZERO;
            // 64 runnable tasks packed on the first 8 CPUs (one LLC's
            // worth of overload); the remaining 248 CPUs stay idle.
            for i in 0..64 {
                let tid = tasks.insert_with(|t| Task::new(t, format!("t{i}"), GroupId(1)));
                class.task_fork(&tasks, tid, None, now);
                let cpu = CpuId(i % 8);
                let t = tasks.get_mut(tid);
                t.cpu = cpu;
                t.state = TaskState::Runnable;
                t.on_rq = true;
                class.enqueue_task(&mut tasks, cpu, tid, EnqueueKind::New, now);
            }
            let mut targets = Vec::new();
            let mut t = now;
            b.iter(|| {
                t += Dur::millis(1);
                let mut moved = 0usize;
                for cpu in topo.all_cpus() {
                    targets.clear();
                    class.balance_tick(&mut tasks, cpu, t, &mut targets);
                    moved += targets.len();
                }
                moved
            })
        });
    }
    g.finish();
}

/// Layer: classes (placement and balancing). The all-busy paths at
/// datacenter scale for every registered class: 256 cores, every CPU but
/// CPU 0 running one task with four more waiting. Each iteration places
/// one waking task that is no longer cache-affine (no idle CPU to find, so
/// CFS's idle-sibling search misses and ULE runs all three passes) and
/// lets idle CPU 0 steal, then sends what it stole back to a busy CPU so
/// the machine stays as it was.
fn bench_placement_256c_busy(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement_256c_busy");
    let topo = Topology::numa_256();
    for sched in Sched::ALL {
        g.bench_function(sched.flag_name(), |b| {
            let mut class = make_class(&topo, sched, 0);
            let mut tasks = TaskTable::new();
            let mut now = Time::ZERO;
            let spawn = |tasks: &mut TaskTable, class: &mut Box<dyn Scheduler>, cpu, now| {
                let tid = tasks.insert_with(|t| Task::new(t, "w", GroupId(1)));
                class.task_fork(tasks, tid, None, now);
                let t = tasks.get_mut(tid);
                (t.cpu, t.last_cpu, t.state, t.on_rq) = (cpu, cpu, TaskState::Runnable, true);
                class.enqueue_task(tasks, cpu, tid, EnqueueKind::New, now);
                tid
            };
            for cpu in topo.all_cpus().skip(1) {
                for _ in 0..5 {
                    spawn(&mut tasks, &mut class, cpu, now);
                }
                class.pick_next_task(&mut tasks, cpu, now);
            }
            let probe = spawn(&mut tasks, &mut class, CpuId(1), now);
            class.dequeue_task(&mut tasks, CpuId(1), probe, DequeueKind::Sleep, now);
            tasks.get_mut(probe).state = TaskState::Sleeping;
            let mut home = 1u32;
            b.iter(|| {
                now += Dur::millis(1);
                let mut stats = SelectStats::default();
                let wake = WakeKind::Wakeup { waker: None };
                let placed = class.select_task_rq(&tasks, probe, wake, CpuId(1), now, &mut stats);
                let stole = class.idle_balance(&mut tasks, CpuId(0), now, &mut stats);
                while let Some(tid) = class.pick_next_task(&mut tasks, CpuId(0), now) {
                    class.dequeue_task(&mut tasks, CpuId(0), tid, DequeueKind::Sleep, now);
                    home = home % 255 + 1;
                    tasks.get_mut(tid).cpu = CpuId(home);
                    class.enqueue_task(&mut tasks, CpuId(home), tid, EnqueueKind::Wakeup, now);
                }
                (placed, stole, stats.cpus_scanned)
            })
        });
    }
    g.finish();
}

/// Layer: classes (`select_task_rq`). ULE's `sched_pickcpu` on a 256-core
/// machine where every CPU runs one thread and has four waiting, so no
/// idle CPU ends the search early. Each iteration puts one CPU's running
/// thread back and picks the next (a queue change, so placement has that
/// CPU's `tdq_lowpri` to read again), then places a waking thread that
/// last ran on CPU 1 and is still cache-affine there:
/// * `no_lower`: the waking thread is as urgent as every CPU's most urgent
///   thread, so passes 1 and 2 find nothing and pass 3 answers (herd-256's
///   case);
/// * `last_lower`: only CPU 255's threads are less urgent (forked with a
///   batch history), so pass 2 answers with the machine's last CPU.
fn bench_pickcpu_256c(c: &mut Criterion) {
    let mut g = c.benchmark_group("pickcpu_256c");
    let topo = Topology::numa_256();
    let now = Time::ZERO + Dur::secs(1);
    for (name, lower) in [("no_lower", None), ("last_lower", Some(CpuId(255)))] {
        g.bench_function(name, |b| {
            let mut ule = Ule::new(&topo);
            let mut tasks = TaskTable::new();
            let spawn = |tasks: &mut TaskTable, ule: &mut Ule, cpu: CpuId| {
                let tid = tasks.insert_with(|t| {
                    let mut task = Task::new(t, "w", GroupId(1));
                    if Some(cpu) == lower {
                        task.inherit_history = Some((Dur::secs(4), Dur::ZERO));
                    }
                    task
                });
                ule.task_fork(tasks, tid, None, now);
                let t = tasks.get_mut(tid);
                (t.cpu, t.last_cpu, t.last_ran) = (cpu, cpu, now);
                (t.state, t.on_rq) = (TaskState::Runnable, true);
                ule.enqueue_task(tasks, cpu, tid, EnqueueKind::New, now);
                tid
            };
            let mut running = Vec::new();
            for cpu in topo.all_cpus() {
                for _ in 0..5 {
                    spawn(&mut tasks, &mut ule, cpu);
                }
                running.push(ule.pick_next_task(&mut tasks, cpu, now).expect("queued"));
            }
            let probe = spawn(&mut tasks, &mut ule, CpuId(1));
            ule.dequeue_task(&mut tasks, CpuId(1), probe, DequeueKind::Sleep, now);
            tasks.get_mut(probe).state = TaskState::Sleeping;
            let wake = WakeKind::Wakeup { waker: None };
            let place = |ule: &mut Ule, tasks: &TaskTable| {
                let mut stats = SelectStats::default();
                let cpu = ule.select_task_rq(tasks, probe, wake, CpuId(1), now, &mut stats);
                (cpu.ok(), stats.cpus_scanned)
            };
            // Pass 3 takes the lowest id at the common load; pass 2 finds
            // CPU 255. Either way every pass's span is charged up to there.
            let llc = topo.llc_cpus(CpuId(1)).len() as u32;
            let want = match lower {
                None => (Some(CpuId(0)), 1 + llc + 2 * 256),
                Some(c) => (Some(c), 1 + llc + 256),
            };
            assert_eq!(place(&mut ule, &tasks), want, "{name} takes its pass");
            let mut next = 0;
            b.iter(|| {
                let cpu = CpuId(next);
                next = (next + 1) % 256;
                ule.put_prev_task(&mut tasks, cpu, running[cpu.index()], now);
                running[cpu.index()] = ule.pick_next_task(&mut tasks, cpu, now).expect("queued");
                place(&mut ule, &tasks)
            })
        });
    }
    g.finish();
}

/// Layer: classes (runqueue). One wakeup-enqueue, pick and put-prev cycle
/// on a single CPU that holds `depth` waiting tasks behind a running one,
/// for every registered class at the depths of strict-8c's queues (2), of
/// fig1's one-core interactive run (80) and of fig6's spinners piled on one
/// CPU (512). Per iteration a sleeper wakes, the running task is put back
/// and the next one picked; that one runs 100 µs, goes to sleep and becomes
/// the next sleeper, and the CPU picks again, so the depth never changes.
/// Only the public `Scheduler` hooks are called.
fn bench_runqueue_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("runqueue_depth");
    let topo = Topology::single_core();
    let cpu = CpuId(0);
    let step = Dur::micros(100);
    for sched in Sched::ALL {
        for depth in [2usize, 80, 512] {
            g.bench_function(format!("{}/{depth}", sched.flag_name()), |b| {
                let mut class = make_class(&topo, sched, 0);
                let mut tasks = TaskTable::new();
                let mut now = Time::ZERO;
                for i in 0..depth + 2 {
                    let tid = tasks.insert_with(|t| Task::new(t, format!("t{i}"), GroupId::ROOT));
                    class.task_fork(&tasks, tid, None, now);
                    let t = tasks.get_mut(tid);
                    (t.cpu, t.last_cpu, t.state, t.on_rq) = (cpu, cpu, TaskState::Runnable, true);
                    class.enqueue_task(&mut tasks, cpu, tid, EnqueueKind::New, now);
                }
                let pick = |class: &mut Box<dyn Scheduler>, tasks: &mut TaskTable, now| {
                    class
                        .pick_next_task(tasks, cpu, now)
                        .expect("the CPU always has waiting tasks")
                };
                let sleep = |class: &mut Box<dyn Scheduler>, tasks: &mut TaskTable, tid, now| {
                    class.dequeue_task(tasks, cpu, tid, DequeueKind::Sleep, now);
                    let t = tasks.get_mut(tid);
                    (t.state, t.on_rq, t.sleep_start) = (TaskState::Sleeping, false, now);
                };
                let mut sleeper = pick(&mut class, &mut tasks, now);
                sleep(&mut class, &mut tasks, sleeper, now);
                let mut curr = pick(&mut class, &mut tasks, now);
                b.iter(|| {
                    now += step;
                    let t = tasks.get_mut(sleeper);
                    (t.state, t.on_rq) = (TaskState::Runnable, true);
                    class.enqueue_task(&mut tasks, cpu, sleeper, EnqueueKind::Wakeup, now);
                    class.put_prev_task(&mut tasks, cpu, curr, now);
                    let next = pick(&mut class, &mut tasks, now);
                    now += step;
                    sleep(&mut class, &mut tasks, next, now);
                    sleeper = next;
                    curr = pick(&mut class, &mut tasks, now);
                    curr
                })
            });
        }
    }
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

/// Layer: kernel dispatch (the behaviour interpreter and `kernel::sync`'s
/// hand-offs). Each bench runs one 10 ms `try_run_until` window of a
/// steady workload per iteration, after start-up, under scx-fifo (a class
/// with cheap hooks, so the kernel's own loop dominates):
/// - `sysbench_1c`: fig1's 80 sysbench workers on one CPU, transacting
///   over 8 mutexes (a pool that never drains in the bench's time);
/// - `sem_herd_8c`: one poster waking 256 semaphore waiters per round on
///   8 CPUs, a round every millisecond.
fn bench_action_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("action_path");
    let window = Dur::millis(10);
    let benches = [
        (
            "sysbench_1c",
            Topology::single_core(),
            WorkloadSpec::Sysbench {
                threads: CountExpr::fixed(80),
                total_tx: CountExpr::fixed(u64::MAX),
                init_ms: 32.0,
            },
            // The master spawns the 80 workers over 80 × 32 ms.
            Dur::secs(3),
        ),
        (
            "sem_herd_8c",
            Topology::flat(8),
            WorkloadSpec::Herd {
                waiters: CountExpr::fixed(256),
                rounds: CountExpr::fixed(u64::MAX),
                work_us: 20.0,
                pause_ms: 1.0,
            },
            Dur::millis(100),
        ),
    ];
    for (name, topo, spec, start_up) in benches {
        let mut k = make_kernel(
            &topo,
            Sched::ScxFifo,
            1,
            CheckMode::Off,
            FaultPlan::default(),
        );
        let app = scenario::workload::build(&mut k, &spec, name, 1.0, topo.nr_cpus())
            .expect("a built-in workload spec");
        k.queue_app(Time::ZERO, app.daemon());
        k.run_until(Time::ZERO + start_up);
        g.bench_function(name, |b| {
            b.iter(|| {
                let until = k.now() + window;
                k.try_run_until(until).expect("the workload runs clean");
                k.counters().events
            })
        });
    }
    g.finish();
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

/// Layer: classes (placement and balancing). Placement cost: one
/// wakeup-placement decision on a loaded machine.
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
    bench_event_burst,
    bench_tick_lane_512c,
    bench_run_lane_512c,
    bench_balance_tick,
    bench_balance_tick_256c,
    bench_placement_256c_busy,
    bench_pickcpu_256c,
    bench_runqueue_depth,
    bench_ule_queue_walk_8c,
    bench_schedsan_step_32c,
    bench_action_path,
    bench_pelt,
    bench_interactivity,
    bench_busy_second,
    bench_placement,
    bench_rng
);
criterion_main!(micro);
