//! Smoke tests: every suite entry must build, run to completion under
//! strict invariant checking, and produce a positive performance number
//! under *both* real schedulers.

use cfs::Cfs;
use kernel::{CheckMode, Kernel, SimConfig};
use simcore::{Dur, Time};
use topology::Topology;
use ule::Ule;
use workloads::{multicore_extra, suite, Metric, P};

fn run_entry_smoke(entry: &workloads::Entry, use_ule: bool) {
    let topo = Topology::flat(4);
    let sched: Box<dyn sched_api::Scheduler> = if use_ule {
        Box::new(Ule::new(&topo))
    } else {
        Box::new(Cfs::new(&topo))
    };
    let cfg = SimConfig {
        check: CheckMode::Strict,
        ..SimConfig::with_seed(11)
    };
    let mut k = Kernel::new(topo, cfg, sched);
    let p = P::scaled(4, 0.01);
    let spec = (entry.build)(&mut k, &p);
    let app = k.queue_app(Time::ZERO, spec);
    let done = k.run_until_apps_done(Time::ZERO + Dur::secs(400));
    assert!(
        done,
        "{} did not complete under {}",
        entry.name,
        if use_ule { "ULE" } else { "CFS" }
    );
    let a = k.app(app);
    match entry.metric {
        Metric::Ops => assert!(a.ops > 0, "{} produced no ops", entry.name),
        Metric::InvTime => assert!(
            a.elapsed().unwrap() > Dur::ZERO,
            "{} has zero elapsed time",
            entry.name
        ),
    }
}

#[test]
fn every_suite_entry_completes_under_cfs() {
    for entry in suite() {
        run_entry_smoke(&entry, false);
    }
}

#[test]
fn every_suite_entry_completes_under_ule() {
    for entry in suite() {
        run_entry_smoke(&entry, true);
    }
}

#[test]
fn hackbench_entries_complete_under_both() {
    for entry in multicore_extra() {
        run_entry_smoke(&entry, false);
        run_entry_smoke(&entry, true);
    }
}

/// The per-thread counts the paper describes: NAS/PARSEC spawn one worker
/// per core; apache runs 100 servers + ab; c-ray spawns 512 renderers.
#[test]
fn thread_counts_match_paper_descriptions() {
    let topo = Topology::flat(4);
    let mut k = Kernel::new(
        topo.clone(),
        SimConfig::with_seed(1),
        Box::new(Cfs::new(&topo)),
    );
    let p = P::scaled(4, 0.01);

    let all = suite();
    let nas = all.iter().find(|e| e.name == "MG").unwrap();
    assert_eq!((nas.build)(&mut k, &p).threads.len(), 4, "MG: 1/core");

    let apache = all.iter().find(|e| e.name == "Apache").unwrap();
    assert_eq!(
        (apache.build)(&mut k, &p).threads.len(),
        101,
        "apache: 100 httpd + ab"
    );

    let sysbench = all.iter().find(|e| e.name == "Sysbench").unwrap();
    assert_eq!(
        (sysbench.build)(&mut k, &p).threads.len(),
        1,
        "sysbench: master forks its 80 workers at runtime"
    );
}
