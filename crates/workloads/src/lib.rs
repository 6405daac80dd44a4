//! Behaviour models of the paper's benchmark suite (§4.2).
//!
//! "We use 37 applications ranging from scientific HPC applications to
//! databases": fibo and hackbench (synthetic), 16 Phoronix applications,
//! the NAS parallel benchmarks, the PARSEC suite, and sysbench/MySQL and
//! RocksDB as database workloads.
//!
//! Each application is modelled by the run/sleep/synchronisation structure
//! the paper uses to explain its behaviour — e.g. sysbench threads "mostly
//! wait for incoming requests, or for data stored on disk", NAS MG "waits
//! on a spin-barrier for 100 ms and then sleeps", ab sends requests in
//! windows of 100 — so the scheduler-induced effects (starvation,
//! misplacement, preemption costs) *emerge* from the model rather than
//! being scripted.
//!
//! The [`suite`] registry lists every application of Figures 5 and 8 in the
//! paper's x-axis order; [`P`] scales work sizes so tests and Criterion
//! benches can run shortened versions of the same models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apache;
pub mod nas;
pub mod noise;
pub mod parsec;
pub mod phoronix;
pub mod rocksdb;
pub mod synthetic;
pub mod sysbench;

use kernel::{AppSpec, Kernel};
use simcore::Dur;

/// Workload sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct P {
    /// Number of cores of the machine under test (workloads that "spawn as
    /// many threads as there are cores" use this).
    pub ncores: usize,
    /// Scale factor on *work volumes* (iteration/transaction counts), not
    /// on per-operation timing — classification behaviour is preserved
    /// while total simulated time shrinks.
    pub scale: f64,
}

impl P {
    /// Full-size workload on `ncores`.
    pub fn full(ncores: usize) -> P {
        P { ncores, scale: 1.0 }
    }

    /// Scaled-down workload (for tests/benches).
    pub fn scaled(ncores: usize, scale: f64) -> P {
        P { ncores, scale }
    }

    /// Scale a count, keeping it at least 1.
    pub fn count(&self, base: u64) -> u64 {
        ((base as f64 * self.scale).round() as u64).max(1)
    }

    /// Scale a duration that represents total work volume.
    pub fn work(&self, base: Dur) -> Dur {
        Dur(((base.as_nanos() as f64 * self.scale).round() as u64).max(1))
    }
}

/// How an application's "performance" is measured (§5.3): "for database
/// workloads and NAS applications, we compare the number of operations per
/// second, and for the other applications we compare 1/execution time".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Operations per second over the app's lifetime.
    Ops,
    /// Inverse of the completion time.
    InvTime,
}

/// One entry of the benchmark suite.
pub struct Entry {
    /// Display name, matching the paper's figure labels.
    pub name: &'static str,
    /// Performance metric.
    pub metric: Metric,
    /// Builder: creates sync objects on the kernel and returns the app.
    pub build: fn(&mut Kernel, &P) -> AppSpec,
}

/// The Figure 5 / Figure 8 suite, in the paper's x-axis order.
pub fn suite() -> Vec<Entry> {
    let mut v = vec![
        Entry {
            name: "Build-apache",
            metric: Metric::InvTime,
            build: phoronix::build_apache,
        },
        Entry {
            name: "Build-php",
            metric: Metric::InvTime,
            build: phoronix::build_php,
        },
        Entry {
            name: "7zip",
            metric: Metric::InvTime,
            build: phoronix::sevenzip,
        },
        Entry {
            name: "Gzip",
            metric: Metric::InvTime,
            build: phoronix::gzip,
        },
        Entry {
            name: "C-Ray",
            metric: Metric::InvTime,
            build: phoronix::cray_default,
        },
        Entry {
            name: "DCraw",
            metric: Metric::InvTime,
            build: phoronix::dcraw,
        },
        Entry {
            name: "himeno",
            metric: Metric::InvTime,
            build: phoronix::himeno,
        },
        Entry {
            name: "hmmer",
            metric: Metric::InvTime,
            build: phoronix::hmmer,
        },
    ];
    for (name, build) in phoronix::SCIMARK.iter().chain(phoronix::JOHN) {
        v.push(Entry {
            name,
            metric: Metric::InvTime,
            build: *build,
        });
    }
    v.push(Entry {
        name: "Apache",
        metric: Metric::Ops,
        build: apache::apache,
    });
    for (name, build) in nas::ALL {
        v.push(Entry {
            name,
            metric: Metric::Ops,
            build: *build,
        });
    }
    v.push(Entry {
        name: "Sysbench",
        metric: Metric::Ops,
        build: sysbench::sysbench_default,
    });
    v.push(Entry {
        name: "Rocksdb",
        metric: Metric::Ops,
        build: rocksdb::rocksdb,
    });
    for (name, build) in parsec::ALL {
        v.push(Entry {
            name,
            metric: Metric::InvTime,
            build: *build,
        });
    }
    v
}

/// The extra multicore-only entries of Figure 8.
pub fn multicore_extra() -> Vec<Entry> {
    vec![
        Entry {
            name: "Hackb-800",
            metric: Metric::InvTime,
            build: synthetic::hackbench_800,
        },
        Entry {
            name: "Hackb-10",
            metric: Metric::InvTime,
            build: synthetic::hackbench_10,
        },
    ]
}

/// Look up a catalog workload by name: every [`suite`] and
/// [`multicore_extra`] entry, plus `fibo` (the fibo of Figure 9's pairs,
/// [`synthetic::fibo_suite`]) and `kworkers` (the per-core kernel-noise
/// daemon of the multicore runs, [`noise::kernel_noise`], whose metric is
/// never read). The scenario `suite` kind resolves its `entry` here.
pub fn entry(name: &str) -> Option<Entry> {
    let extra = [
        Entry {
            name: "fibo",
            metric: Metric::InvTime,
            build: synthetic::fibo_suite,
        },
        Entry {
            name: "kworkers",
            metric: Metric::InvTime,
            build: noise::kernel_noise,
        },
    ];
    suite()
        .into_iter()
        .chain(multicore_extra())
        .chain(extra)
        .find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_resolves_every_catalog_name() {
        for e in suite().into_iter().chain(multicore_extra()) {
            let found = entry(e.name).expect(e.name);
            assert_eq!((found.name, found.metric), (e.name, e.metric));
        }
        for name in ["fibo", "kworkers"] {
            assert_eq!(entry(name).map(|e| e.name), Some(name));
        }
        for unknown in ["", "nope", "mg", "scimark2-(7)"] {
            assert!(entry(unknown).is_none(), "{unknown}");
        }
    }

    #[test]
    fn suite_has_the_papers_applications() {
        let s = suite();
        let names: Vec<&str> = s.iter().map(|e| e.name).collect();
        // 18 phoronix bars (8 + 6 scimark + 3 john + Apache) + 10 NAS +
        // 2 DB + 12 PARSEC = 42 bars (scimark and john each contribute
        // multiple variants of one app, matching the paper's Figure 5
        // x-axis over its "37 applications").
        assert_eq!(s.len(), 42, "{names:?}");
        for expected in [
            "Build-apache",
            "C-Ray",
            "scimark2-(1)",
            "john-(3)",
            "Apache",
            "MG",
            "EP",
            "Sysbench",
            "Rocksdb",
            "blackscholes",
            "ferret",
            "x264",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn scaling_helpers() {
        let p = P::scaled(4, 0.1);
        assert_eq!(p.count(100), 10);
        assert_eq!(p.count(1), 1);
        assert_eq!(p.work(Dur::secs(10)), Dur::secs(1));
    }
}
