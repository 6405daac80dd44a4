//! Cross-thread-count determinism: the runner's result-order guarantee
//! plus the simulator's own determinism mean every driver's output must be
//! byte-identical whatever `--threads` is set to.

use experiments::{fig5, runner, RunCfg, Sched};
use kernel::{cpu_hog, AppSpec, CheckMode, FaultPlan, ThreadSpec};
use simcore::{Dur, Time};
use topology::Topology;

/// A deterministic digest for one busy-machine simulation.
fn digest_of(sched: Sched, seed: u64) -> (u64, u64) {
    let topo = Topology::core_i7_3770();
    let mut k = scenario::make_kernel(&topo, sched, seed, CheckMode::Off, FaultPlan::default());
    let threads = (0..16)
        .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::millis(300), Dur::millis(4))))
        .collect();
    k.queue_app(Time::ZERO, AppSpec::new("busy", threads));
    k.run_until(Time::ZERO + Dur::secs(1));
    (k.decision_digest(), k.counters().events)
}

#[test]
fn decision_digest_is_identical_across_thread_counts() {
    // 8 simulations; run the batch once on 1 worker and once on 8.
    let jobs = || {
        let mut v: Vec<Box<dyn FnOnce() -> (u64, u64) + Send>> = Vec::new();
        for seed in 0..4u64 {
            for sched in Sched::BOTH {
                v.push(Box::new(move || digest_of(sched, seed)));
            }
        }
        v
    };
    let seq = runner::par_map(1, jobs(), |job| job());
    let par = runner::par_map(8, jobs(), |job| job());
    assert_eq!(seq, par, "digests must not depend on the worker count");
    assert!(seq.iter().all(|&(d, e)| d != 0 && e > 0));
}

#[test]
fn fig5_json_is_byte_identical_across_thread_counts() {
    // A scaled-down fig5 sweep (the most parallel driver): its serialized
    // JSON — what `battle --json` writes — must not change with the pool
    // size.
    let cfg = |threads: usize| RunCfg {
        seed: 7,
        threads,
        ..RunCfg::at_scale(0.02)
    };
    let seq = serde_json::to_string_pretty(&fig5::run(&cfg(1)).unwrap()).unwrap();
    let par = serde_json::to_string_pretty(&fig5::run(&cfg(8)).unwrap()).unwrap();
    assert!(!seq.is_empty());
    assert_eq!(
        seq, par,
        "fig5 JSON must be byte-identical for 1 vs 8 threads"
    );
}
