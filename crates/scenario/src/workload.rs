//! Lower a [`WorkloadSpec`] into a kernel [`AppSpec`].
//!
//! Builders fix their construction *exactly* (thread order, sync-object
//! creation order, chunk sizes, pins): any change there moves the
//! decision digests the golden files pin. Thread and app *names* are
//! free — they never enter the digest — but ids do, so everything here
//! builds in file order.

use kernel::{cpu_hog, from_fn, spinner, Action, AppSpec, Kernel, ThreadSpec};
use simcore::Dur;
use topology::CpuId;
use workloads::phoronix::{cray, CrayCfg};
use workloads::synthetic;
use workloads::sysbench::{sysbench, SysbenchCfg};

use crate::spec::{SpecError, WorkloadSpec};

fn dur_ms(ms: f64) -> Dur {
    Dur::secs_f64(ms / 1000.0)
}

fn dur_us(us: f64) -> Dur {
    Dur::secs_f64(us / 1_000_000.0)
}

/// Build the app for one phase. `phase_name` becomes the app name (except
/// for suite entries, which keep their catalog name so per-app reports
/// match the figures). Sync objects are created on `k` in spec order.
pub fn build(
    k: &mut Kernel,
    spec: &WorkloadSpec,
    phase_name: &str,
    scale: f64,
    ncpu: usize,
) -> Result<AppSpec, SpecError> {
    match spec {
        WorkloadSpec::Spinners {
            count,
            pin,
            chunk_ms,
            daemon,
        } => {
            let n = count.eval(scale, ncpu) as usize;
            let pins: Vec<CpuId> = pin.iter().map(|&c| CpuId(c)).collect();
            let app = AppSpec::new(
                phase_name,
                (0..n)
                    .map(|i| {
                        ThreadSpec::new(format!("spin{i}"), spinner(dur_ms(*chunk_ms)))
                            .pinned(pins.clone())
                    })
                    .collect(),
            );
            Ok(if *daemon { app.daemon() } else { app })
        }
        WorkloadSpec::Fibo { work } => Ok(synthetic::fibo(work.eval(scale))),
        WorkloadSpec::CpuHogs {
            count,
            work,
            chunk_ms,
            nice,
            pin,
        } => {
            let n = count.eval(scale, ncpu) as usize;
            let w = work.eval(scale);
            let pins: Option<Vec<CpuId>> =
                pin.as_ref().map(|p| p.iter().map(|&c| CpuId(c)).collect());
            Ok(AppSpec::new(
                phase_name,
                (0..n)
                    .map(|i| {
                        let mut t =
                            ThreadSpec::new(format!("hog{i}"), cpu_hog(w, dur_ms(*chunk_ms)))
                                .nice(*nice as i32);
                        if let Some(p) = &pins {
                            t = t.pinned(p.clone());
                        }
                        t
                    })
                    .collect(),
            ))
        }
        WorkloadSpec::Sysbench {
            threads,
            total_tx,
            init_ms,
        } => Ok(sysbench(
            k,
            SysbenchCfg {
                threads: threads.eval(scale, ncpu) as usize,
                total_tx: total_tx.eval(scale, ncpu),
                init_per_thread: dur_ms(*init_ms),
                ..SysbenchCfg::default()
            },
        )),
        WorkloadSpec::Cray { threads, work } => Ok(cray(
            k,
            CrayCfg {
                threads: threads.eval(scale, ncpu) as usize,
                work: work.eval(scale),
                ..CrayCfg::default()
            },
        )),
        WorkloadSpec::Hackbench { groups, msgs } => Ok(synthetic::hackbench(
            k,
            groups.eval(scale, ncpu) as usize,
            msgs.eval(scale, ncpu),
        )),
        WorkloadSpec::Suite { entry } => {
            let e = workloads::entry(entry).ok_or_else(|| {
                SpecError::new(
                    "phase",
                    format!("unknown suite entry `{entry}` (see `workloads::entry`)"),
                )
            })?;
            Ok((e.build)(k, &workloads::P::scaled(ncpu, scale)))
        }
        WorkloadSpec::ForkJoin {
            workers,
            rounds,
            work_ms,
        } => {
            let n = (workers.eval(scale, ncpu) as usize).max(1);
            let r = rounds.eval(scale, ncpu);
            let w = dur_ms(*work_ms);
            let barrier = k.new_barrier(n);
            Ok(AppSpec::new(
                phase_name,
                (0..n)
                    .map(|i| {
                        ThreadSpec::new(
                            format!("fj{i}"),
                            from_fn({
                                let mut round = 0u64;
                                // Per round: Run(w), BarrierWait, CountOps.
                                let mut step = 0u8;
                                move |_ctx| loop {
                                    match step {
                                        0 => {
                                            if round == r {
                                                return Action::Exit;
                                            }
                                            step = 1;
                                            if !w.is_zero() {
                                                return Action::Run(w);
                                            }
                                        }
                                        1 => {
                                            step = 2;
                                            return Action::BarrierWait(barrier);
                                        }
                                        _ => {
                                            step = 0;
                                            round += 1;
                                            return Action::CountOps(1);
                                        }
                                    }
                                }
                            }),
                        )
                    })
                    .collect(),
            ))
        }
        WorkloadSpec::ClientServer {
            clients,
            servers,
            rounds,
            burst,
            service_us,
            think_ms,
        } => {
            let nc = (clients.eval(scale, ncpu) as usize).max(1);
            let ns = (servers.eval(scale, ncpu) as usize).max(1);
            let r = rounds.eval(scale, ncpu).max(1);
            let burst = *burst;
            let service = dur_us(*service_us);
            let think = dur_ms(*think_ms);
            // Request queue sized so no client ever blocks on put mid-burst
            // while every server sleeps in get: the run stays deadlock-free
            // for any thread/queue interleaving.
            let rq = k.new_queue(nc * burst as usize + ns + 1);
            let replies: Vec<_> = (0..nc).map(|_| k.new_queue(burst as usize + 1)).collect();
            let total = nc as u64 * r * burst;
            let mut threads = Vec::with_capacity(nc + ns);
            for (c, &reply) in replies.iter().enumerate() {
                threads.push(ThreadSpec::new(
                    format!("client{c}"),
                    from_fn({
                        let mut round = 0u64;
                        let mut sent = 0u64;
                        let mut got = 0u64;
                        let mut start = simcore::Time::ZERO;
                        // Per round: burst puts, burst gets, CountOps,
                        // RecordLatency, think sleep.
                        let mut step = 0u8;
                        move |ctx| loop {
                            match step {
                                0 => {
                                    if round == r {
                                        return Action::Exit;
                                    }
                                    start = ctx.now;
                                    sent = 0;
                                    got = 0;
                                    step = 1;
                                }
                                1 => {
                                    if sent < burst {
                                        sent += 1;
                                        return Action::QueuePut(rq, c as u64);
                                    }
                                    step = 2;
                                }
                                2 => {
                                    if got < burst {
                                        got += 1;
                                        return Action::QueueGet(reply);
                                    }
                                    step = 3;
                                }
                                3 => {
                                    step = 4;
                                    return Action::CountOps(burst);
                                }
                                4 => {
                                    step = 5;
                                    return Action::RecordLatency(ctx.now.saturating_since(start));
                                }
                                _ => {
                                    step = 0;
                                    round += 1;
                                    if !think.is_zero() {
                                        return Action::Sleep(think);
                                    }
                                }
                            }
                        }
                    }),
                ));
            }
            let per = total / ns as u64;
            let rem = total % ns as u64;
            for s in 0..ns {
                let quota = per + u64::from((s as u64) < rem);
                let replies = replies.clone();
                threads.push(ThreadSpec::new(
                    format!("server{s}"),
                    from_fn({
                        let mut served = 0u64;
                        let mut client = 0usize;
                        // Per request: get, service, reply. The queued
                        // value (the client id) is only available on the
                        // first call after the get completes.
                        let mut step = 0u8;
                        move |ctx| loop {
                            match step {
                                0 => {
                                    if served == quota {
                                        return Action::Exit;
                                    }
                                    step = 1;
                                    return Action::QueueGet(rq);
                                }
                                1 => {
                                    client = ctx.value.unwrap_or(0) as usize % replies.len();
                                    step = 2;
                                    if !service.is_zero() {
                                        return Action::Run(service);
                                    }
                                }
                                _ => {
                                    step = 0;
                                    served += 1;
                                    return Action::QueuePut(replies[client], 1);
                                }
                            }
                        }
                    }),
                ));
            }
            Ok(AppSpec::new(phase_name, threads))
        }
        WorkloadSpec::Herd {
            waiters,
            rounds,
            work_us,
            pause_ms,
        } => {
            let n = (waiters.eval(scale, ncpu) as usize).max(1);
            let r = rounds.eval(scale, ncpu).max(1);
            let work = dur_us(*work_us);
            let pause = dur_ms(*pause_ms);
            let gate = k.new_sem(0);
            let mut threads = Vec::with_capacity(n + 1);
            threads.push(ThreadSpec::new(
                "waker",
                from_fn({
                    let mut round = 0u64;
                    let mut posted = 0usize;
                    move |_ctx| {
                        if round == r {
                            return Action::Exit;
                        }
                        if posted < n {
                            posted += 1;
                            return Action::SemPost(gate);
                        }
                        posted = 0;
                        round += 1;
                        if pause.is_zero() {
                            Action::Yield
                        } else {
                            Action::Sleep(pause)
                        }
                    }
                }),
            ));
            for i in 0..n {
                threads.push(ThreadSpec::new(
                    format!("herd{i}"),
                    from_fn({
                        let mut round = 0u64;
                        // Per round: SemWait, Run(work), CountOps.
                        let mut step = 0u8;
                        move |_ctx| loop {
                            match step {
                                0 => {
                                    if round == r {
                                        return Action::Exit;
                                    }
                                    step = 1;
                                    return Action::SemWait(gate);
                                }
                                1 => {
                                    step = 2;
                                    if !work.is_zero() {
                                        return Action::Run(work);
                                    }
                                }
                                _ => {
                                    step = 0;
                                    round += 1;
                                    return Action::CountOps(1);
                                }
                            }
                        }
                    }),
                ));
            }
            Ok(AppSpec::new(phase_name, threads))
        }
        WorkloadSpec::MutexMix { threads: specs } => {
            let lock = k.new_mutex();
            let mut threads = Vec::with_capacity(specs.len());
            for t in specs {
                let iters = t.iters.eval(scale, ncpu);
                let hold = dur_ms(t.hold_ms);
                let work = dur_ms(t.work_ms);
                let sleep = t.sleep_ms.map(dur_ms);
                let takes_lock = t.lock;
                threads.push(
                    ThreadSpec::new(
                        t.name.clone(),
                        from_fn({
                            let mut i = 0u64;
                            // Step machine: 0 lock, 1 hold, 2 unlock,
                            // 3 work, 4 sleep, 5 count.
                            let mut step = 0u8;
                            move |_ctx| loop {
                                match step {
                                    0 => {
                                        if i == iters {
                                            return Action::Exit;
                                        }
                                        step = 1;
                                        if takes_lock {
                                            return Action::MutexLock(lock);
                                        }
                                    }
                                    1 => {
                                        step = 2;
                                        if takes_lock && !hold.is_zero() {
                                            return Action::Run(hold);
                                        }
                                    }
                                    2 => {
                                        step = 3;
                                        if takes_lock {
                                            return Action::MutexUnlock(lock);
                                        }
                                    }
                                    3 => {
                                        step = 4;
                                        if !work.is_zero() {
                                            return Action::Run(work);
                                        }
                                    }
                                    4 => {
                                        step = 5;
                                        if let Some(s) = sleep {
                                            if !s.is_zero() {
                                                return Action::Sleep(s);
                                            }
                                        }
                                    }
                                    _ => {
                                        step = 0;
                                        i += 1;
                                        return Action::CountOps(1);
                                    }
                                }
                            }
                        }),
                    )
                    .nice(t.nice as i32),
                );
            }
            Ok(AppSpec::new(phase_name, threads))
        }
    }
}
