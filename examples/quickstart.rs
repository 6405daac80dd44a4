//! Quickstart: run the same workload under CFS and ULE and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use battle_of_schedulers::{Machine, Sched, Simulation};
use kernel::{cpu_hog, AppSpec, ThreadSpec};
use simcore::Dur;

fn main() {
    println!("A 4-core machine runs a 4-thread compute job plus one extra hog.\n");

    for kind in Sched::BOTH {
        let mut sim = Simulation::new(Machine::Flat(4), kind, 42);

        // A parallel compute app: 4 threads × 2s of work.
        let compute = sim.spawn_app(AppSpec::new(
            "compute",
            (0..4)
                .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::secs(2), Dur::millis(10))))
                .collect(),
        ));
        // A competing single-threaded hog in its own application (cgroup).
        let hog = sim.spawn_app(AppSpec::new(
            "hog",
            vec![ThreadSpec::new(
                "hog",
                cpu_hog(Dur::secs(2), Dur::millis(10)),
            )],
        ));

        sim.run_to_completion(Dur::secs(60));
        println!("{kind:?}:");
        println!(
            "  compute finished in {:.2}s (CPU {:.2}s)",
            sim.app_elapsed(compute).unwrap().as_secs_f64(),
            sim.app_cpu_time(compute).as_secs_f64()
        );
        println!(
            "  hog     finished in {:.2}s (CPU {:.2}s)",
            sim.app_elapsed(hog).unwrap().as_secs_f64(),
            sim.app_cpu_time(hog).as_secs_f64()
        );
        let k = sim.kernel();
        println!(
            "  context switches: {}, migrations: {}, preemptions: {}\n",
            k.counters().ctx_switches,
            k.counters().migrations,
            k.counters().preemptions
        );
    }
    println!("Try `cargo run --release -p experiments --bin battle -- fig1` next.");
}
