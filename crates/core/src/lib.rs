//! High-level public API for the "Battle of the Schedulers" reproduction.
//!
//! This facade ties the substrates together the way the paper's methodology
//! does: pick a machine, pick a scheduler (the *only* variable), run
//! workloads, compare. For figure-level drivers use the `experiments`
//! crate; for scheduler internals use `cfs` / `ule` directly.
//!
//! ```
//! use battle_core::{Machine, Sched, Simulation};
//! use simcore::Dur;
//!
//! // Run a CPU hog against a mostly-sleeping app on one core under both
//! // schedulers and compare how much CPU the hog got.
//! let hog_share = |sched: Sched| {
//!     let mut sim = Simulation::new(Machine::SingleCore, sched, 42);
//!     let hog = sim.spawn_app(workloads::synthetic::fibo(Dur::millis(500)));
//!     sim.run_for(Dur::millis(400));
//!     sim.app_cpu_time(hog).as_secs_f64()
//! };
//! assert!(hog_share(Sched::Cfs) > 0.3);
//! assert!(hog_share(Sched::Ule) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kernel::{AppId, AppSpec, Kernel, SimConfig};
use sched_api::Scheduler;
use simcore::Dur;
use topology::Topology;

/// The scheduler registry (every class a [`Simulation`] can run).
pub use scenario::Sched;

/// The machines evaluated in the paper, plus custom topologies.
#[derive(Debug, Clone)]
pub enum Machine {
    /// One core (the §5 per-core experiments).
    SingleCore,
    /// The 32-core AMD Opteron 6172 (4 NUMA nodes × 8 cores).
    Opteron6172,
    /// The 8-thread Intel i7-3770 desktop.
    CoreI7_3770,
    /// `n` cores sharing one LLC.
    Flat(u32),
    /// Any explicit topology (boxed: a topology is far larger than the
    /// other variants).
    Custom(Box<Topology>),
}

impl Machine {
    /// The topology of this machine.
    pub fn topology(&self) -> Topology {
        match self {
            Machine::SingleCore => Topology::single_core(),
            Machine::Opteron6172 => Topology::opteron_6172(),
            Machine::CoreI7_3770 => Topology::core_i7_3770(),
            Machine::Flat(n) => Topology::flat(*n),
            Machine::Custom(t) => Topology::clone(t),
        }
    }
}

/// A running simulation: a simulated kernel plus convenience accessors.
pub struct Simulation {
    kernel: Kernel,
}

impl Simulation {
    /// A simulation of `machine` driven by `sched`, deterministic in
    /// `seed`.
    pub fn new(machine: Machine, sched: Sched, seed: u64) -> Simulation {
        let topo = machine.topology();
        let class = scenario::make_class(&topo, sched, seed);
        Simulation {
            kernel: Kernel::new(topo, SimConfig::with_seed(seed), class),
        }
    }

    /// A simulation with a custom scheduling class (see
    /// `examples/custom_scheduler.rs`).
    pub fn with_scheduler(machine: Machine, class: Box<dyn Scheduler>, seed: u64) -> Simulation {
        Simulation {
            kernel: Kernel::new(machine.topology(), SimConfig::with_seed(seed), class),
        }
    }

    /// Start an application now.
    pub fn spawn_app(&mut self, spec: AppSpec) -> AppId {
        let now = self.kernel.now();
        self.kernel.queue_app(now, spec)
    }

    /// Start an application after a delay.
    pub fn spawn_app_at(&mut self, delay: Dur, spec: AppSpec) -> AppId {
        let at = self.kernel.now() + delay;
        self.kernel.queue_app(at, spec)
    }

    /// Advance simulated time by `d`.
    pub fn run_for(&mut self, d: Dur) {
        let until = self.kernel.now() + d;
        self.kernel.run_until(until);
    }

    /// Run until every non-daemon app finished (true) or `limit` elapsed.
    pub fn run_to_completion(&mut self, limit: Dur) -> bool {
        let until = self.kernel.now() + limit;
        self.kernel.run_until_apps_done(until)
    }

    /// Total CPU time consumed by an app's threads so far.
    pub fn app_cpu_time(&self, app: AppId) -> Dur {
        self.kernel
            .app_tasks(app)
            .iter()
            .map(|&t| self.kernel.task_runtime(t))
            .fold(Dur::ZERO, |a, b| a + b)
    }

    /// Wall-clock completion time of an app, if it finished.
    pub fn app_elapsed(&self, app: AppId) -> Option<Dur> {
        self.kernel.app(app).elapsed()
    }

    /// Operations per second of an app (throughput workloads).
    pub fn app_ops_per_sec(&self, app: AppId) -> f64 {
        self.kernel.app(app).ops_per_sec(self.kernel.now())
    }

    /// Direct access to the underlying kernel for advanced queries
    /// (per-core runqueue lengths, scheduler snapshots, counters, ...).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access (creating sync objects for custom workloads).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }
}

/// Convenience: run `spec_for` under both schedulers to completion and
/// return `(cfs_elapsed, ule_elapsed)`.
pub fn compare_elapsed(
    machine: Machine,
    seed: u64,
    limit: Dur,
    mut spec_for: impl FnMut(&mut Kernel) -> AppSpec,
) -> (Option<Dur>, Option<Dur>) {
    let mut run = |sched| {
        let mut sim = Simulation::new(machine.clone(), sched, seed);
        let spec = spec_for(sim.kernel_mut());
        let app = sim.spawn_app(spec);
        sim.run_to_completion(limit);
        sim.app_elapsed(app)
    };
    (run(Sched::Cfs), run(Sched::Ule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::{cpu_hog, ThreadSpec};

    #[test]
    fn simulation_runs_every_scheduler() {
        for sched in Sched::ALL {
            let mut sim = Simulation::new(Machine::Flat(2), sched, 7);
            let app = sim.spawn_app(AppSpec::new(
                "t",
                vec![
                    ThreadSpec::new("a", cpu_hog(Dur::millis(20), Dur::millis(5))),
                    ThreadSpec::new("b", cpu_hog(Dur::millis(20), Dur::millis(5))),
                ],
            ));
            assert!(sim.run_to_completion(Dur::secs(5)));
            let e = sim.app_elapsed(app).unwrap();
            assert!(
                e >= Dur::millis(20) && e < Dur::millis(60),
                "{}: {e}",
                sched.name()
            );
            assert!(sim.app_cpu_time(app) >= Dur::millis(40));
        }
    }

    #[test]
    fn compare_elapsed_returns_both() {
        let (c, u) = compare_elapsed(Machine::SingleCore, 3, Dur::secs(5), |_k| {
            AppSpec::new(
                "hog",
                vec![ThreadSpec::new(
                    "h",
                    cpu_hog(Dur::millis(30), Dur::millis(5)),
                )],
            )
        });
        assert!(c.is_some() && u.is_some());
    }

    #[test]
    fn machines_have_expected_sizes() {
        assert_eq!(Machine::SingleCore.topology().nr_cpus(), 1);
        assert_eq!(Machine::Opteron6172.topology().nr_cpus(), 32);
        assert_eq!(Machine::CoreI7_3770.topology().nr_cpus(), 8);
        assert_eq!(Machine::Flat(5).topology().nr_cpus(), 5);
    }
}
