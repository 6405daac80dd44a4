//! Workspace-level integration tests: the paper's headline qualitative
//! results, exercised through the public `battle_core` API with scaled-down
//! workloads (the full-size regenerations live in the `battle` binary).

use battle_of_schedulers::{Machine, Sched, Simulation};
use kernel::{cpu_hog, AppSpec, ThreadSpec};
use simcore::Dur;
use topology::CpuId;
use workloads::sysbench::{sysbench, SysbenchCfg};

/// §5.1: ULE starves a CPU hog under a mostly-sleeping database; CFS
/// shares the core between the two applications.
#[test]
fn starvation_contrast_between_schedulers() {
    let run = |kind| {
        let mut sim = Simulation::new(Machine::SingleCore, kind, 42);
        let fibo = sim.spawn_app(workloads::synthetic::fibo(Dur::secs(20)));
        let spec = sysbench(
            sim.kernel_mut(),
            SysbenchCfg {
                threads: 80,
                total_tx: 40_000,
                ..Default::default()
            },
        );
        let _db = sim.spawn_app_at(Dur::millis(200), spec);
        // Sample fibo's progress over the window where the db runs.
        sim.run_for(Dur::secs(4));
        let fibo_tid = sim.kernel().app_tasks(fibo)[0];
        let at4 = sim.kernel().task_runtime(fibo_tid);
        sim.run_for(Dur::secs(6));
        let at10 = sim.kernel().task_runtime(fibo_tid);
        (at10 - at4).as_secs_f64()
    };
    let cfs_gain = run(Sched::Cfs);
    let ule_gain = run(Sched::Ule);
    assert!(
        cfs_gain > 1.5,
        "CFS must keep fibo running (~50% share), got {cfs_gain:.2}s of 6s"
    );
    assert!(
        ule_gain < 1.2,
        "ULE must starve fibo under interactive load, got {ule_gain:.2}s of 6s"
    );
}

/// §5.3 (apache): CFS's wakeup preemption fires constantly on the
/// server/injector pattern; ULE never preempts.
#[test]
fn apache_preemption_contrast() {
    let run = |kind| {
        let mut sim = Simulation::new(Machine::SingleCore, kind, 42);
        let p = workloads::P::scaled(1, 0.05);
        let spec = workloads::apache::apache(sim.kernel_mut(), &p);
        let app = sim.spawn_app(spec);
        assert!(
            sim.run_to_completion(Dur::secs(120)),
            "{kind:?} apache hung"
        );
        (
            sim.kernel().counters().preemptions,
            sim.app_ops_per_sec(app),
        )
    };
    let (cfs_preempt, cfs_rps) = run(Sched::Cfs);
    let (ule_preempt, ule_rps) = run(Sched::Ule);
    assert!(
        cfs_preempt > 100 * (ule_preempt + 1),
        "CFS preempts ab constantly ({cfs_preempt}), ULE never ({ule_preempt})"
    );
    assert!(
        ule_rps > cfs_rps * 1.1,
        "apache should be faster on ULE: {ule_rps:.0} vs {cfs_rps:.0} req/s"
    );
}

/// §6.1: after unpinning a thread pile, CFS converges within ~a second
/// while ULE takes its one-migration-per-period pace.
#[test]
fn rebalancing_speed_contrast() {
    let counts = |sim: &Simulation| -> Vec<usize> {
        (0..8).map(|c| sim.kernel().nr_queued(CpuId(c))).collect()
    };
    let spread_after = |kind, wait: Dur| {
        let mut sim = Simulation::new(Machine::Flat(8), kind, 42);
        let app = sim.spawn_app(workloads::synthetic::pinned_spinners(40));
        sim.run_for(Dur::millis(200));
        let now = sim.kernel().now();
        sim.kernel_mut().queue_unpin(now, app);
        sim.run_for(wait);
        let c = counts(&sim);
        *c.iter().max().unwrap() - *c.iter().min().unwrap()
    };
    // One second after the unpin CFS is roughly even; ULE still has almost
    // everything on core 0 (idle steals took one each).
    assert!(spread_after(Sched::Cfs, Dur::secs(1)) <= 4);
    assert!(spread_after(Sched::Ule, Dur::secs(1)) >= 20);
}

/// §6.3 (HPC): ULE places one thread per core and never migrates them.
#[test]
fn ule_stable_hpc_placement() {
    let mut sim = Simulation::new(Machine::Flat(8), Sched::Ule, 42);
    let _app = sim.spawn_app(AppSpec::new(
        "hpc",
        (0..8)
            .map(|i| ThreadSpec::new(format!("t{i}"), cpu_hog(Dur::secs(1), Dur::millis(10))))
            .collect(),
    ));
    sim.run_for(Dur::millis(500));
    for c in 0..8 {
        assert_eq!(sim.kernel().nr_queued(CpuId(c)), 1);
    }
    assert_eq!(sim.kernel().counters().migrations, 0);
}

/// Determinism across the full stack: identical seeds give identical
/// decision digests for both schedulers.
#[test]
fn determinism_end_to_end() {
    for kind in Sched::BOTH {
        let digest = |seed| {
            let mut sim = Simulation::new(Machine::Flat(4), kind, seed);
            let p = workloads::P::scaled(4, 0.05);
            let spec = workloads::sysbench::sysbench_default(sim.kernel_mut(), &p);
            sim.spawn_app(spec);
            // Long enough that the seed-jittered transaction phase runs.
            sim.run_for(Dur::secs(6));
            sim.kernel().decision_digest()
        };
        assert_eq!(digest(7), digest(7), "{kind:?} must be deterministic");
        assert_ne!(digest(7), digest(8), "{kind:?} seeds must matter");
    }
}

/// Cgroup fairness is CFS-only: one single-threaded app against a
/// four-threaded app gets ~50% under CFS; ULE has no cgroups, so the lone
/// batch thread gets ~1/5.
#[test]
fn cgroup_fairness_is_cfs_specific() {
    let share = |kind| {
        let mut sim = Simulation::new(Machine::SingleCore, kind, 42);
        let solo = sim.spawn_app(AppSpec::new(
            "solo",
            vec![ThreadSpec::new("s", cpu_hog(Dur::secs(5), Dur::millis(20)))],
        ));
        let _many = sim.spawn_app(AppSpec::new(
            "many",
            (0..4)
                .map(|i| ThreadSpec::new(format!("m{i}"), cpu_hog(Dur::secs(5), Dur::millis(20))))
                .collect(),
        ));
        sim.run_for(Dur::secs(2));
        sim.app_cpu_time(solo).as_secs_f64() / 2.0
    };
    let cfs = share(Sched::Cfs);
    let ule = share(Sched::Ule);
    assert!(
        (0.4..=0.6).contains(&cfs),
        "CFS app share ≈ 50%, got {cfs:.2}"
    );
    assert!(
        (0.1..=0.3).contains(&ule),
        "ULE thread share ≈ 20%, got {ule:.2}"
    );
}
