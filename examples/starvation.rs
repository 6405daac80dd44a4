//! The paper's §5.1 starvation demo: a CPU hog (fibo) shares one core with
//! a mostly-sleeping database (sysbench). Under CFS both make progress;
//! under ULE the hog is starved while the database runs — and the database
//! is ~2× faster for it.
//!
//! ```text
//! cargo run --release --example starvation
//! ```

use battle_of_schedulers::{Machine, Sched, Simulation};
use simcore::Dur;
use workloads::sysbench::{sysbench, SysbenchCfg};

fn main() {
    for kind in Sched::BOTH {
        let mut sim = Simulation::new(Machine::SingleCore, kind, 42);

        let fibo = sim.spawn_app(workloads::synthetic::fibo(Dur::secs(8)));
        let spec = sysbench(
            sim.kernel_mut(),
            SysbenchCfg {
                threads: 80,
                total_tx: 12_000,
                ..Default::default()
            },
        );
        let db = sim.spawn_app_at(Dur::millis(500), spec);

        println!("{kind:?}: sampling fibo's cumulative runtime every second");
        let fibo_tid = {
            sim.run_for(Dur::millis(1));
            sim.kernel().app_tasks(fibo)[0]
        };
        for s in 1..=10 {
            sim.run_for(Dur::secs(1));
            let rt = sim.kernel().task_runtime(fibo_tid);
            let pen = sim.kernel().snapshot(fibo_tid).ule_penalty;
            let db_ops = sim.kernel().app(db).ops;
            println!(
                "  t={s:>2}s fibo runtime {:>5.2}s{}  sysbench tx {}",
                rt.as_secs_f64(),
                pen.map(|p| format!(" (penalty {p})")).unwrap_or_default(),
                db_ops
            );
        }
        sim.run_to_completion(Dur::secs(600));
        println!(
            "  sysbench: {:.0} tx/s, avg latency {:?}",
            sim.app_ops_per_sec(db),
            sim.kernel().app(db).avg_latency()
        );
        println!(
            "  fibo finished at t={:.1}s\n",
            sim.kernel().app(fibo).finished.unwrap().as_secs_f64()
        );
    }
}
