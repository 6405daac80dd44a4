//! Vendored minimal stand-in for the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of criterion's surface its benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] (with
//! `sample_size` and `finish`), [`Bencher::iter`], [`black_box`], and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! As in criterion, the first command-line argument that is not a flag
//! filters the benches: only those whose full name (`group/id`) contains
//! it run, so `cargo bench --bench scheduler_micro -- schedsan` runs just
//! the SchedSan bench. The others print nothing.
//!
//! Measurement is plain wall-clock timing: one calibration call sizes an
//! iteration batch to the window budget, then [`WINDOWS`] batches are
//! timed one by one, and the median and interquartile range of their
//! ns/iter are printed. No plots or saved baselines — good enough to
//! compare hot paths before and after a change.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Timed windows per bench; the printed median and IQR are over these.
pub const WINDOWS: usize = 10;

/// Prevent the optimizer from deleting a computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark harness entry point.
pub struct Criterion {
    /// Target measurement time of one timed window.
    budget: Duration,
    /// Run only the benches whose name contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            budget: Duration::from_millis(30),
            filter: None,
        }
    }
}

impl Criterion {
    /// Take the bench-name filter from the process arguments (what
    /// `criterion_group!` does).
    pub fn configure_from_args(self) -> Criterion {
        Criterion {
            filter: filter_from_args(std::env::args().skip(1)),
            ..self
        }
    }

    /// Run one named benchmark.
    pub fn bench_function<S, F>(&mut self, name: S, f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        self.run(&name.into(), f);
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// `true` if the filter lets `name` run.
    fn selected(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    }

    fn run<F: FnMut(&mut Bencher)>(&self, name: &str, mut f: F) {
        if !self.selected(name) {
            return;
        }
        let mut b = Bencher {
            budget: self.budget,
            iters: 0,
            samples: Vec::new(),
        };
        f(&mut b);
        if b.samples.is_empty() {
            println!("bench: {name:<45} (routine never called Bencher::iter)");
            return;
        }
        b.samples.sort_by(f64::total_cmp);
        let q = |p: f64| quantile(&b.samples, p);
        println!(
            "bench: {name:<45} {:>14.1} ns/iter  (IQR {:.1}, {} windows x {} iters)",
            q(0.5),
            q(0.75) - q(0.25),
            b.samples.len(),
            b.iters
        );
    }
}

/// The bench-name filter in `args` (the arguments after the program
/// name): the first one that is not a flag. `cargo bench` passes
/// `--bench` ahead of the user's arguments.
fn filter_from_args(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

/// The `p` quantile of the ascending, non-empty `sorted`, interpolating
/// between the two nearest samples.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the vendored harness sizes its
    /// iteration batch from the time budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into());
        self.criterion.run(&label, f);
        self
    }

    /// Finish the group.
    pub fn finish(self) {}
}

/// Times a routine inside a benchmark closure.
pub struct Bencher {
    budget: Duration,
    /// Iterations per timed window.
    iters: u64,
    /// ns/iter of each timed window.
    samples: Vec<f64>,
}

impl Bencher {
    /// Measure `routine`: one calibration call, then [`WINDOWS`] timed
    /// batches that each run it enough times to fill the window budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        black_box(routine());
        let per = start.elapsed().max(Duration::from_nanos(20)).as_nanos();
        let iters = (self.budget.as_nanos() / per).clamp(1, 100_000) as u64;
        self.iters = iters;
        self.samples = (0..WINDOWS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
    }
}

/// Collect benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(filter: Option<&str>) -> Criterion {
        Criterion {
            budget: Duration::from_millis(1),
            filter: filter.map(String::from),
        }
    }

    #[test]
    fn bencher_measures_something() {
        let mut c = quick(None);
        let mut ran = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            });
            assert_eq!(b.samples.len(), WINDOWS);
            assert!(b.samples.iter().all(|&ns| ns > 0.0));
        });
        assert!(ran > WINDOWS as u64);
        let mut g = c.benchmark_group("grp");
        g.sample_size(10);
        g.bench_function("inner", |b| b.iter(|| black_box(1 + 1)));
        g.finish();
    }

    #[test]
    fn filter_runs_only_matching_names() {
        let args = |v: &[&str]| filter_from_args(v.iter().map(|s| s.to_string()));
        assert_eq!(args(&["--bench", "depth"]), Some("depth".to_string()));
        assert_eq!(args(&["--bench"]), None);
        assert_eq!(args(&[]), None);

        let mut c = quick(Some("depth"));
        let mut ran = Vec::new();
        for name in ["event_queue", "runqueue_depth_probe"] {
            c.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| black_box(1))
            });
        }
        let mut g = c.benchmark_group("runqueue_depth");
        g.bench_function("cfs/2", |b| {
            ran.push("group");
            b.iter(|| black_box(1))
        });
        g.finish();
        assert_eq!(ran, ["runqueue_depth_probe", "group"]);
        assert!(quick(None).selected("anything"));
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&s, 0.5), 5.5);
        assert_eq!(quantile(&s, 0.25), 3.25);
        assert_eq!(quantile(&s, 0.75), 7.75);
        assert_eq!(quantile(&[4.0], 0.5), 4.0);
    }
}
