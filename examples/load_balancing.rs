//! The paper's §6.1 load-balancing race (Figure 6), miniature edition:
//! spinners pinned to core 0 are unpinned, and the two balancers react very
//! differently — CFS bulk-migrates within milliseconds but tolerates
//! imbalance; ULE's idle steal takes one thread per core and its periodic
//! balancer then moves *one thread per 0.5–1.5s*, eventually reaching an
//! exactly even spread.
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use battle_of_schedulers::{Machine, Sched, Simulation};
use simcore::Dur;
use topology::CpuId;
use workloads::synthetic::pinned_spinners;

const NCORES: u32 = 8;
const NTHREADS: usize = 64;

fn counts(sim: &Simulation) -> Vec<usize> {
    (0..NCORES)
        .map(|c| sim.kernel().nr_queued(CpuId(c)))
        .collect()
}

fn main() {
    for kind in Sched::BOTH {
        let mut sim = Simulation::new(Machine::Flat(NCORES), kind, 42);
        let app = sim.spawn_app(pinned_spinners(NTHREADS));
        sim.run_for(Dur::secs(1));
        println!("{kind:?}: pinned  {:?}", counts(&sim));

        let now = sim.kernel().now();
        sim.kernel_mut().queue_unpin(now, app);
        for (label, dur) in [
            ("+200ms", Dur::millis(200)),
            ("+1s   ", Dur::millis(800)),
            ("+5s   ", Dur::secs(4)),
            ("+20s  ", Dur::secs(15)),
        ] {
            sim.run_for(dur);
            println!("{kind:?}: {label} {:?}", counts(&sim));
        }
        println!();
    }
    println!("(8 cores / 64 spinners; 8 per core is the even spread)");
}
