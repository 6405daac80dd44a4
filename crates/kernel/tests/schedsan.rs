//! SchedSan end-to-end: a buggy scheduler is caught by the invariant
//! checker at the event that corrupts state, surfaces as a `SimError`
//! (no panic), and yields an actionable crash report. Also pins down the
//! bounded-starvation check and clean strict-mode runs under hotplug.

use kernel::{cpu_hog, AppSpec, CheckMode, FaultPlan, Kernel, SimConfig, SimError, ThreadSpec};
use sched_api::{
    DequeueKind, EnqueueKind, Preempt, PreemptCause, Scheduler, SelectError, SelectStats,
    TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};

/// A single-queue FIFO that silently *drops* the Nth enqueue: the task
/// stays Runnable in the kernel's eyes but sits in no runqueue — the
/// classic lost-task bug SchedSan's conservation sweep exists to catch.
struct LossySched {
    queue: Vec<Tid>,
    curr: Option<Tid>,
    enqueues: u32,
    drop_nth: u32,
}

impl LossySched {
    fn new(drop_nth: u32) -> LossySched {
        LossySched {
            queue: Vec::new(),
            curr: None,
            enqueues: 0,
            drop_nth,
        }
    }
}

impl Scheduler for LossySched {
    fn name(&self) -> &'static str {
        "lossy"
    }
    fn select_task_rq(
        &mut self,
        _tasks: &TaskTable,
        _tid: Tid,
        _kind: WakeKind,
        _waking_cpu: CpuId,
        _now: Time,
        _stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        Ok(CpuId(0))
    }
    fn enqueue_task(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        tid: Tid,
        _kind: EnqueueKind,
        _now: Time,
    ) -> Preempt {
        self.enqueues += 1;
        if self.enqueues != self.drop_nth {
            self.queue.push(tid);
        }
        Preempt::No
    }
    fn dequeue_task(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        _now: Time,
    ) {
        if self.curr == Some(tid) {
            self.curr = None;
        } else {
            self.queue.retain(|&t| t != tid);
        }
    }
    fn yield_task(&mut self, _tasks: &mut TaskTable, _cpu: CpuId, _now: Time) {
        if let Some(c) = self.curr.take() {
            self.queue.push(c);
        }
    }
    fn pick_next_task(&mut self, _tasks: &mut TaskTable, _cpu: CpuId, _now: Time) -> Option<Tid> {
        if self.queue.is_empty() {
            return None;
        }
        let next = self.queue.remove(0);
        self.curr = Some(next);
        Some(next)
    }
    fn put_prev_task(&mut self, _tasks: &mut TaskTable, _cpu: CpuId, tid: Tid, _now: Time) {
        self.curr = None;
        self.queue.push(tid);
    }
    fn task_tick(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        _curr: Tid,
        _now: Time,
    ) -> Preempt {
        if self.queue.is_empty() {
            Preempt::No
        } else {
            Preempt::Yes(PreemptCause::SliceExpired)
        }
    }
    fn task_fork(&mut self, _tasks: &TaskTable, _child: Tid, _parent: Option<Tid>, _now: Time) {}
    fn task_dead(&mut self, _tasks: &TaskTable, _tid: Tid, _now: Time) {}
    fn balance_tick(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        _now: Time,
        _targets: &mut Vec<CpuId>,
    ) {
    }
    fn idle_balance(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        _now: Time,
        _stats: &mut SelectStats,
    ) -> bool {
        false
    }
    fn nr_queued(&self, _cpu: CpuId) -> usize {
        self.queue.len() + usize::from(self.curr.is_some())
    }
    fn queued_tids_into(&self, _cpu: CpuId, out: &mut Vec<Tid>) {
        out.extend(self.queue.iter().copied());
    }
    fn snapshot(&self, _tasks: &TaskTable, _tid: Tid) -> TaskSnapshot {
        TaskSnapshot::default()
    }
}

fn strict_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::with_seed(seed);
    cfg.check = CheckMode::Strict;
    cfg.trace_capacity = 64;
    cfg
}

fn sleepy_app(n: usize) -> AppSpec {
    AppSpec::new(
        "sleepy",
        (0..n)
            .map(|i| {
                let mut run = true;
                ThreadSpec::new(
                    format!("t{i}"),
                    kernel::from_fn(move |_ctx| {
                        // Alternate run/sleep forever: the wakeup enqueue
                        // traffic is what trips the lossy scheduler.
                        run = !run;
                        if run {
                            kernel::Action::Run(Dur::micros(500))
                        } else {
                            kernel::Action::Sleep(Dur::micros(800))
                        }
                    }),
                )
            })
            .collect(),
    )
}

/// The lost task is reported as a structured error, not a panic, and the
/// crash report carries everything a bug report needs.
#[test]
fn lost_task_is_caught_with_crash_report() {
    let topo = Topology::single_core();
    // Drop the 20th enqueue: the run has real history by then, so the
    // crash report's trace tail has content.
    let mut k = Kernel::new(topo, strict_cfg(99), Box::new(LossySched::new(20)));
    k.queue_app(Time::ZERO, sleepy_app(4));
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("SchedSan must catch the dropped enqueue");
    let msg = err.to_string();
    assert!(
        msg.contains("lost task") || msg.contains("runqueue"),
        "unexpected error: {msg}"
    );

    let report = k.crash_report(err.kind(), &err);
    assert!(report.starts_with("crash report: invariant violation\n"));
    assert!(report.contains(&msg), "report repeats the error");
    assert!(report.contains("scheduler: lossy"));
    assert!(report.contains("seed:      99"), "seed is the replay key");
    assert!(report.contains("per-CPU state:"));
    assert!(report.contains("live tasks:"));
    assert!(report.contains("trace tail"), "flight recorder included");
}

/// Without strict mode the same bug silently degrades instead of erroring:
/// SchedSan's job is detection, the kernel itself stays permissive.
#[test]
fn checks_off_means_no_error() {
    let topo = Topology::single_core();
    let mut cfg = strict_cfg(99);
    cfg.check = CheckMode::Off;
    let mut k = Kernel::new(topo, cfg, Box::new(LossySched::new(20)));
    k.queue_app(Time::ZERO, sleepy_app(4));
    assert!(k.try_run_until(Time::ZERO + Dur::secs(1)).is_ok());
}

/// Bounded starvation: a scheduler that keeps a runnable task queued
/// forever trips the starvation check once the configured limit passes.
#[test]
fn starvation_limit_is_enforced() {
    // LossySched with drop_nth = 0 never drops, but its FIFO + the
    // always-preempt tick gives round-robin; to starve, pin the limit
    // below the natural wait of the last of many tasks on one core.
    let topo = Topology::single_core();
    let mut cfg = strict_cfg(7);
    cfg.starvation_limit = Dur::micros(50);
    let mut k = Kernel::new(topo, cfg, Box::new(LossySched::new(0)));
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hogs",
            (0..8)
                .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::secs(2), Dur::millis(5))))
                .collect(),
        ),
    );
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("an 8-deep queue cannot meet a 50us latency bound");
    assert!(
        matches!(&err, SimError::Invariant { detail, .. } if detail.contains("runnable-but-unscheduled")),
        "unexpected error: {err}"
    );
}

/// Clean strict-mode run under the full fault storm (spurious wakes,
/// jitter, hotplug) for the reference scheduler: faults must perturb, not
/// corrupt.
#[test]
fn reference_scheduler_clean_under_fault_storm() {
    let topo = Topology::flat(4);
    let mut cfg = strict_cfg(21);
    cfg.faults = FaultPlan {
        spurious_wake_period: Some(Dur::micros(300)),
        tick_jitter: Dur::micros(200),
        missed_tick_pct: 15,
        hotplug_period: Some(Dur::millis(3)),
        hotplug_down: Dur::millis(1),
    };
    let sched = Box::new(kernel::SimpleRR::new(&topo));
    let mut k = Kernel::new(topo, cfg, sched);
    let mut threads: Vec<ThreadSpec> = (0..6)
        .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::millis(40), Dur::millis(1))))
        .collect();
    // Sleepers give the spurious-wake injector targets.
    threads.extend((0..3).map(|i| {
        let mut left = 60u32;
        let mut run = true;
        ThreadSpec::new(
            format!("s{i}"),
            kernel::from_fn(move |_ctx| {
                run = !run;
                if run {
                    kernel::Action::Run(Dur::micros(200))
                } else {
                    if left == 0 {
                        return kernel::Action::Exit;
                    }
                    left -= 1;
                    kernel::Action::Sleep(Dur::micros(900))
                }
            }),
        )
    }));
    k.queue_app(Time::ZERO, AppSpec::new("mix", threads));
    let done = k
        .try_run_until_apps_done(Time::ZERO + Dur::secs(10))
        .expect("faults must never corrupt scheduler state");
    assert!(done, "workload finishes despite hotplug");
    assert!(k.counters().hotplug_events > 0, "hotplug fired");
    assert!(k.counters().spurious_wakes > 0, "spurious wakes fired");
}
