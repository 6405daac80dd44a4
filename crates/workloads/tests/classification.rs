//! ULE-classification assertions per workload: the paper's per-application
//! analyses all hinge on *which* threads ULE deems interactive. These tests
//! pin that mapping down for the key workloads.

use kernel::{CheckMode, Kernel, SimConfig};
use simcore::{Dur, Time};
use topology::Topology;
use ule::Ule;
use workloads::{sysbench::SysbenchCfg, P};

fn ule_kernel(cores: u32) -> Kernel {
    let topo = Topology::flat(cores);
    let cfg = SimConfig {
        check: CheckMode::Strict,
        ..SimConfig::with_seed(5)
    };
    Kernel::new(topo.clone(), cfg, Box::new(Ule::new(&topo)))
}

#[test]
fn fibo_is_batch_sysbench_workers_are_interactive() {
    let mut k = ule_kernel(1);
    let fibo = k.queue_app(Time::ZERO, workloads::synthetic::fibo(Dur::secs(30)));
    let spec = workloads::sysbench::sysbench(
        &mut k,
        SysbenchCfg {
            threads: 20,
            total_tx: 50_000,
            ..Default::default()
        },
    );
    let db = k.queue_app(Time::ZERO, spec);
    k.run_until(Time::ZERO + Dur::secs(4));

    let fibo_tid = k.app_tasks(fibo)[0];
    assert_eq!(k.snapshot(fibo_tid).interactive, Some(false), "fibo: batch");
    assert!(k.snapshot(fibo_tid).ule_penalty.unwrap() >= 90);

    let workers: Vec<_> = k.app_tasks(db).into_iter().skip(1).collect();
    let interactive = workers
        .iter()
        .filter(|&&t| k.snapshot(t).interactive == Some(true))
        .count();
    assert!(
        interactive * 10 >= workers.len() * 9,
        "db workers interactive: {interactive}/{}",
        workers.len()
    );
}

#[test]
fn scimark_helpers_are_interactive_compute_is_batch() {
    let mut k = ule_kernel(1);
    let p = P::scaled(1, 0.2);
    let spec = (workloads::phoronix::SCIMARK[0].1)(&mut k, &p);
    let app = k.queue_app(Time::ZERO, spec);
    k.run_until(Time::ZERO + Dur::secs(3));
    let tasks = k.app_tasks(app);
    // Thread 0 is the compute kernel; the rest are JVM service threads.
    assert_eq!(
        k.snapshot(tasks[0]).interactive,
        Some(false),
        "compute thread is batch"
    );
    for &h in &tasks[1..] {
        assert_eq!(
            k.snapshot(h).interactive,
            Some(true),
            "JVM service threads are interactive"
        );
    }
}

#[test]
fn nas_threads_turn_batch_after_startup() {
    // §5.2: "the scientific applications we tested are not impacted by
    // starvation, because their threads never sleep. After a short
    // initialization period all threads are considered as background".
    let mut k = ule_kernel(4);
    let p = P::scaled(4, 0.3);
    let spec = workloads::nas::ep(&mut k, &p);
    let app = k.queue_app(Time::ZERO, spec);
    // Mid-computation (EP phases are seconds long), before any thread exits.
    k.run_until(Time::ZERO + Dur::millis(1200));
    for &t in &k.app_tasks(app) {
        assert_eq!(k.snapshot(t).interactive, Some(false), "EP threads: batch");
    }
}

#[test]
fn apache_server_threads_are_interactive() {
    let mut k = ule_kernel(1);
    let p = P::scaled(1, 0.2);
    let spec = workloads::apache::apache(&mut k, &p);
    let app = k.queue_app(Time::ZERO, spec);
    // Mid-benchmark, while the server threads are alive.
    k.run_until(Time::ZERO + Dur::millis(200));
    let tasks = k.app_tasks(app);
    let live: Vec<_> = tasks
        .iter()
        .copied()
        .filter(|&t| k.task(t).state != sched_api::TaskState::Dead)
        .collect();
    let interactive = live
        .iter()
        .filter(|&&t| k.snapshot(t).interactive == Some(true))
        .count();
    assert!(
        interactive * 10 >= live.len() * 9,
        "httpd + ab are interactive: {interactive}/{}",
        live.len()
    );
}

#[test]
fn hackbench_threads_are_interactive() {
    let mut k = ule_kernel(4);
    let spec = workloads::synthetic::hackbench(&mut k, 2, 2_000);
    let app = k.queue_app(Time::ZERO, spec);
    k.run_until(Time::ZERO + Dur::millis(500));
    let tasks = k.app_tasks(app);
    let live: Vec<_> = tasks
        .iter()
        .filter(|&&t| k.task(t).state != sched_api::TaskState::Dead)
        .collect();
    let interactive = live
        .iter()
        .filter(|&&&t| k.snapshot(t).interactive == Some(true))
        .count();
    assert!(
        interactive * 2 >= live.len(),
        "pipe-bound threads lean interactive: {interactive}/{}",
        live.len()
    );
}
