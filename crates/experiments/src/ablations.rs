//! Ablations of the design choices the paper (and DESIGN.md) call out:
//! what happens if you turn each mechanism off?
//!
//! * **CFS cgroups** (§2.1): fairness between applications vs between
//!   threads — decides how much CPU fibo keeps under sysbench (Fig 1a).
//! * **ULE's periodic balancer bug** (§2.2 footnote / the paper’s reference \[1\]): stock FreeBSD
//!   shipped with the long-term balancer running only once; the paper fixed
//!   it. Without the fix, the Figure 6 pile never drains past idle steals.
//! * **CFS NUMA imbalance tolerance** (§6.1): the 25% rule is why "CFS
//!   never achieves perfect load balance".
//! * **CFS wakeup preemption** (§5.3): disabling it closes most of ULE's
//!   apache advantage.

use cfs::{params::CfsParams, Cfs};
use kernel::{FaultPlan, Kernel};
use sched_api::Scheduler;
use simcore::{Dur, Time};
use topology::{CpuId, Topology};
use ule::{params::UleParams, Ule};
use workloads::{synthetic, sysbench::SysbenchCfg, P};

use crate::{or_bail, RunCfg};

/// Results of the four ablations.
#[derive(Debug, serde::Serialize)]
pub struct Ablations {
    /// fibo's CPU share under sysbench with CFS cgroups on vs off.
    pub cfs_fibo_share_cgroups_on: f64,
    /// ... and with per-thread fairness (pre-2.6.38 behaviour).
    pub cfs_fibo_share_cgroups_off: f64,
    /// Threads left on core 0 at the horizon with the paper's balancer fix.
    pub ule_core0_with_balancer: u32,
    /// ... and with the stock FreeBSD bug (balancer never runs).
    pub ule_core0_with_bug: u32,
    /// CFS final spread with the default 25% NUMA tolerance.
    pub cfs_spread_pct125: u32,
    /// ... and with the tolerance removed (pct = 100).
    pub cfs_spread_pct100: u32,
    /// Apache requests/s with CFS wakeup preemption enabled.
    pub cfs_apache_rps_preempt: f64,
    /// ... and effectively disabled (huge wakeup granularity).
    pub cfs_apache_rps_no_preempt: f64,
}

/// A kernel around an ablated class, under `cfg`'s seed and check mode.
fn kernel(topo: &Topology, class: Box<dyn Scheduler>, cfg: &RunCfg) -> Kernel {
    scenario::make_kernel_with_class(topo, class, cfg.seed, cfg.check, FaultPlan::default())
}

fn fibo_share(params: CfsParams, cfg: &RunCfg) -> f64 {
    let topo = Topology::single_core();
    let mut k = kernel(&topo, Box::new(Cfs::with_params(&topo, params)), cfg);
    let fibo = k.queue_app(Time::ZERO, synthetic::fibo(Dur::secs(60)));
    let spec = workloads::sysbench::sysbench(
        &mut k,
        SysbenchCfg {
            threads: 80,
            total_tx: ((80_000.0 * cfg.scale) as u64).max(1000),
            ..Default::default()
        },
    );
    let _db = k.queue_app(Time::ZERO, spec);
    // Measure fibo's share over a window where sysbench is in full swing.
    let start = Time::ZERO + Dur::secs_f64(4.0);
    let span = Dur::secs_f64(6.0);
    let res = k.try_run_until(start);
    or_bail(res, &k, "ablations-fibo_share", "ablations", cfg);
    let tid = k.app_tasks(fibo)[0];
    let before = k.task_runtime(tid);
    let res = k.try_run_until(start + span);
    or_bail(res, &k, "ablations-fibo_share", "ablations", cfg);
    (k.task_runtime(tid) - before).as_secs_f64() / span.as_secs_f64()
}

fn ule_core0_after(params: UleParams, cfg: &RunCfg) -> u32 {
    let topo = Topology::opteron_6172();
    let n = ((512.0 * cfg.scale) as usize).max(64);
    let mut k = kernel(
        &topo,
        Box::new(Ule::with_params(&topo, params, cfg.seed)),
        cfg,
    );
    let app = k.queue_app(Time::ZERO, synthetic::pinned_spinners(n));
    k.queue_unpin(Time::ZERO + Dur::secs(1), app);
    let res = k.try_run_until(Time::ZERO + Dur::secs_f64(1.0 + 60.0 * cfg.scale.max(0.2)));
    or_bail(res, &k, "ablations-ule_core0", "ablations", cfg);
    k.nr_queued(CpuId(0)) as u32
}

fn cfs_spread(params: CfsParams, cfg: &RunCfg) -> u32 {
    let topo = Topology::opteron_6172();
    let n = ((512.0 * cfg.scale) as usize).max(64);
    let mut k = kernel(&topo, Box::new(Cfs::with_params(&topo, params)), cfg);
    let app = k.queue_app(Time::ZERO, synthetic::pinned_spinners(n));
    k.queue_unpin(Time::ZERO + Dur::secs(1), app);
    let res = k.try_run_until(Time::ZERO + Dur::secs(21));
    or_bail(res, &k, "ablations-cfs_spread", "ablations", cfg);
    let counts: Vec<usize> = topo_counts(&k);
    (*counts.iter().max().unwrap() - *counts.iter().min().unwrap()) as u32
}

fn topo_counts(k: &Kernel) -> Vec<usize> {
    k.topology().all_cpus().map(|c| k.nr_queued(c)).collect()
}

fn apache_rps(params: CfsParams, cfg: &RunCfg) -> f64 {
    let topo = Topology::single_core();
    let mut k = kernel(&topo, Box::new(Cfs::with_params(&topo, params)), cfg);
    let p = P::scaled(1, cfg.scale);
    let spec = workloads::apache::apache(&mut k, &p);
    let app = k.queue_app(Time::ZERO, spec);
    let res = k.try_run_until_apps_done(Time::ZERO + Dur::secs(600));
    or_bail(res, &k, "ablations-apache_rps", "ablations", cfg);
    k.app(app).ops_per_sec(k.now())
}

/// Run all four ablations.
pub fn run(cfg: &RunCfg) -> Ablations {
    let defaults = CfsParams::default();
    let mut no_cgroups = CfsParams::default();
    no_cgroups.cgroups = false;
    let mut pct100 = CfsParams::default();
    pct100.imbalance_pct_numa = 100;
    pct100.imbalance_pct_llc = 100;
    let mut no_preempt = CfsParams::default();
    no_preempt.wakeup_granularity = Dur::secs(10); // effectively off

    let ule_fixed = UleParams::default();
    let mut ule_buggy = UleParams::default();
    ule_buggy.periodic_balance = false;

    // All eight ablation runs are independent simulations; hand them to
    // the runner pool. `u32` results are carried as `f64` (they are small
    // integer counts, exactly representable).
    let d2 = defaults.clone();
    let d3 = defaults.clone();
    let jobs: Vec<Box<dyn FnOnce() -> f64 + Send + '_>> = vec![
        Box::new(|| fibo_share(defaults, cfg)),
        Box::new(|| fibo_share(no_cgroups, cfg)),
        Box::new(|| f64::from(ule_core0_after(ule_fixed, cfg))),
        Box::new(|| f64::from(ule_core0_after(ule_buggy, cfg))),
        Box::new(|| f64::from(cfs_spread(d2, cfg))),
        Box::new(|| f64::from(cfs_spread(pct100, cfg))),
        Box::new(|| apache_rps(d3, cfg)),
        Box::new(|| apache_rps(no_preempt, cfg)),
    ];
    let r = crate::runner::par_map(cfg.threads, jobs, |job| job());
    Ablations {
        cfs_fibo_share_cgroups_on: r[0],
        cfs_fibo_share_cgroups_off: r[1],
        ule_core0_with_balancer: r[2] as u32,
        ule_core0_with_bug: r[3] as u32,
        cfs_spread_pct125: r[4] as u32,
        cfs_spread_pct100: r[5] as u32,
        cfs_apache_rps_preempt: r[6],
        cfs_apache_rps_no_preempt: r[7],
    }
}

/// Render the ablation table.
pub fn report(a: &Ablations) -> String {
    let mut t = metrics::Table::new(&["ablation", "default", "ablated", "effect"]);
    t.push(&[
        "CFS cgroups (fibo share under sysbench)".into(),
        format!("{:.0}%", a.cfs_fibo_share_cgroups_on * 100.0),
        format!("{:.0}%", a.cfs_fibo_share_cgroups_off * 100.0),
        "per-app → per-thread fairness (§2.1)".into(),
    ]);
    t.push(&[
        "ULE periodic balancer (threads left on core0)".into(),
        format!("{}", a.ule_core0_with_balancer),
        format!("{}", a.ule_core0_with_bug),
        "stock FreeBSD bug [1]: only idle steals drain the pile".into(),
    ]);
    t.push(&[
        "CFS NUMA tolerance (final spread)".into(),
        format!("{}", a.cfs_spread_pct125),
        format!("{}", a.cfs_spread_pct100),
        "25% rule is why CFS stays imperfect (§6.1)".into(),
    ]);
    t.push(&[
        "CFS wakeup preemption (apache req/s)".into(),
        format!("{:.0}", a.cfs_apache_rps_preempt),
        format!("{:.0}", a.cfs_apache_rps_no_preempt),
        "preempting ab costs throughput (§5.3)".into(),
    ]);
    let mut s = String::from("Ablations — design choices switched off one at a time\n");
    s.push_str(&t.render());
    s
}

/// Shape checks for the ablations.
pub fn validate(a: &Ablations) -> Vec<String> {
    let mut bad = Vec::new();
    if !(a.cfs_fibo_share_cgroups_on > 2.0 * a.cfs_fibo_share_cgroups_off) {
        bad.push(format!(
            "cgroups should protect fibo: {:.2} vs {:.2}",
            a.cfs_fibo_share_cgroups_on, a.cfs_fibo_share_cgroups_off
        ));
    }
    if a.ule_core0_with_bug <= a.ule_core0_with_balancer + 10 {
        bad.push(format!(
            "the balancer bug should leave the pile: {} vs {}",
            a.ule_core0_with_bug, a.ule_core0_with_balancer
        ));
    }
    if a.cfs_spread_pct100 > a.cfs_spread_pct125 {
        bad.push(format!(
            "removing the tolerance should not worsen the spread: {} vs {}",
            a.cfs_spread_pct100, a.cfs_spread_pct125
        ));
    }
    if !(a.cfs_apache_rps_no_preempt > a.cfs_apache_rps_preempt * 1.05) {
        bad.push(format!(
            "disabling wakeup preemption should speed apache up: {:.0} vs {:.0}",
            a.cfs_apache_rps_no_preempt, a.cfs_apache_rps_preempt
        ));
    }
    bad
}
