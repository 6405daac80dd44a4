//! The 16 Phoronix applications (§4.2): compilation, compression, image
//! processing, scientific kernels, cryptography and the c-ray renderer.

use kernel::{
    cpu_hog, from_fn, Action, AppSpec, Behavior, Ctx, Kernel, QueueId, SemId, ThreadSpec,
};
use simcore::Dur;

use crate::nas::Builder;
use crate::P;

const STOP: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Compilation: a queue of compile jobs drained by one worker per core.
// ---------------------------------------------------------------------

struct BuildWorker {
    jobs: QueueId,
    job_cpu: Dur,
    io: Dur,
    state: u8,
    cur: Dur,
}

impl Behavior for BuildWorker {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Action {
        match self.state {
            0 => {
                self.state = 1;
                Action::QueueGet(self.jobs)
            }
            1 => {
                let v = ctx.value.expect("job token");
                if v == STOP {
                    return Action::Exit;
                }
                // Compile jobs vary widely in size (±50%).
                let base = self.job_cpu.as_nanos();
                self.cur = Dur(ctx.rng.gen_range(base / 2, base * 3 / 2));
                self.state = 2;
                Action::Run(self.cur)
            }
            _ => {
                self.state = 0;
                // Write the object file.
                Action::Sleep(self.io)
            }
        }
    }
}

fn build_app(
    k: &mut Kernel,
    name: &'static str,
    jobs: u64,
    job_cpu: Dur,
    io: Dur,
    workers: usize,
) -> AppSpec {
    let q = k.new_queue(jobs as usize + workers + 1);
    let mut threads = vec![ThreadSpec::new(
        format!("{name}-make"),
        from_fn({
            let mut sent = 0u64;
            let total = jobs + workers as u64; // jobs + stop pills
            move |_ctx| {
                if sent == total {
                    return Action::Exit;
                }
                sent += 1;
                let tok = if sent > jobs { STOP } else { sent };
                Action::QueuePut(q, tok)
            }
        }),
    )];
    for i in 0..workers {
        threads.push(ThreadSpec::new(
            format!("{name}-cc{i}"),
            Box::new(BuildWorker {
                jobs: q,
                job_cpu,
                io,
                state: 0,
                cur: Dur::ZERO,
            }) as Box<dyn Behavior>,
        ));
    }
    AppSpec::new(name, threads)
}

/// build-apache: medium-size C project.
pub fn build_apache(k: &mut Kernel, p: &P) -> AppSpec {
    build_app(
        k,
        "build-apache",
        p.count(400),
        Dur::millis(60),
        Dur::millis(2),
        p.ncores,
    )
}

/// build-php: larger project, smaller average translation units.
pub fn build_php(k: &mut Kernel, p: &P) -> AppSpec {
    build_app(
        k,
        "build-php",
        p.count(800),
        Dur::millis(40),
        Dur::millis(2),
        p.ncores,
    )
}

// ---------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------

/// 7zip: parallel compression, one worker per core over a block queue.
pub fn sevenzip(k: &mut Kernel, p: &P) -> AppSpec {
    build_app(
        k,
        "7zip",
        p.count(1200),
        Dur::millis(15),
        Dur::micros(300),
        p.ncores,
    )
}

/// gzip: single-threaded streaming compression with read I/O.
pub fn gzip(_k: &mut Kernel, p: &P) -> AppSpec {
    let chunks = p.count(4000);
    AppSpec::new(
        "gzip",
        vec![ThreadSpec::new(
            "gzip",
            from_fn({
                let mut done = 0u64;
                let mut phase = false;
                move |_ctx| {
                    if done == chunks {
                        return Action::Exit;
                    }
                    phase = !phase;
                    if phase {
                        Action::Run(Dur::millis(3))
                    } else {
                        done += 1;
                        Action::Sleep(Dur::micros(300))
                    }
                }
            }),
        )],
    )
}

// ---------------------------------------------------------------------
// c-ray (§6.2, Figure 7): 512 threads woken through a cascade.
// ---------------------------------------------------------------------

/// c-ray configuration.
#[derive(Debug, Clone)]
pub struct CrayCfg {
    /// Rendering threads (512 in the paper).
    pub threads: usize,
    /// CPU work per thread.
    pub work: Dur,
    /// Master CPU burned per thread created (drives the §5.2-style
    /// interactivity split among the children).
    pub spawn_cost: Dur,
}

impl Default for CrayCfg {
    fn default() -> Self {
        CrayCfg {
            threads: 512,
            work: Dur::millis(120),
            spawn_cost: Dur::millis(4),
        }
    }
}

/// Build c-ray: the master forks all threads (burning CPU in between, so
/// children inherit increasing penalties), then kicks a cascade where
/// thread i wakes thread i+1; each thread then renders its scanlines.
pub fn cray(k: &mut Kernel, cfg: CrayCfg) -> AppSpec {
    let sems: Vec<SemId> = (0..cfg.threads).map(|_| k.new_sem(0)).collect();
    let master = from_fn({
        let sems = sems.clone();
        let cfg = cfg.clone();
        let mut spawned = 0usize;
        let mut ran = false;
        move |_ctx| {
            if spawned == cfg.threads {
                // Kick the cascade.
                spawned += 1;
                return Action::SemPost(sems[0]);
            }
            if spawned > cfg.threads {
                return Action::Exit;
            }
            if !ran {
                ran = true;
                return Action::Run(cfg.spawn_cost);
            }
            ran = false;
            let i = spawned;
            spawned += 1;
            let wait = sems[i];
            let next = sems.get(i + 1).copied();
            let work = cfg.work;
            let renderer = from_fn({
                let mut state = 0u8;
                move |_ctx| {
                    state += 1;
                    match (state, next) {
                        // Per-thread startup (stack setup, scene copy):
                        // a short run that also spreads fork placement.
                        (1, _) => Action::Run(Dur::micros(200)),
                        // Cascading barrier: wait to be woken...
                        (2, _) => Action::SemWait(wait),
                        // ...wake the next thread...
                        (3, Some(n)) => Action::SemPost(n),
                        (3, None) => Action::Run(work),
                        // ...then render.
                        (4, Some(_)) => Action::Run(work),
                        _ => Action::Exit,
                    }
                }
            });
            Action::Spawn(Box::new(ThreadSpec::new(format!("cray-{i}"), renderer)))
        }
    });
    AppSpec::new(
        "c-ray",
        // The master is forked from a shell with a modest sleep history, so
        // its penalty crosses the threshold partway through thread
        // creation (the §5.2 mechanism driving Figure 7).
        vec![ThreadSpec::new("cray-master", master).with_history(Dur::ZERO, Dur::millis(2200))],
    )
}

/// Suite instance of c-ray (512 threads, per-thread work scaled).
pub fn cray_default(k: &mut Kernel, p: &P) -> AppSpec {
    cray(
        k,
        CrayCfg {
            threads: 512,
            work: p.work(Dur::millis(120)),
            ..Default::default()
        },
    )
}

// ---------------------------------------------------------------------
// Single-threaded image/scientific kernels
// ---------------------------------------------------------------------

/// dcraw: single-threaded RAW photo decoding.
pub fn dcraw(_k: &mut Kernel, p: &P) -> AppSpec {
    AppSpec::new(
        "dcraw",
        vec![ThreadSpec::new(
            "dcraw",
            cpu_hog(p.work(Dur::secs(25)), Dur::millis(5)),
        )],
    )
}

/// himeno: single-threaded memory-bound pressure solver.
pub fn himeno(_k: &mut Kernel, p: &P) -> AppSpec {
    AppSpec::new(
        "himeno",
        vec![ThreadSpec::new(
            "himeno",
            cpu_hog(p.work(Dur::secs(30)), Dur::millis(5)),
        )],
    )
}

/// hmmer: single-threaded profile HMM search.
pub fn hmmer(_k: &mut Kernel, p: &P) -> AppSpec {
    AppSpec::new(
        "hmmer",
        vec![ThreadSpec::new(
            "hmmer",
            cpu_hog(p.work(Dur::secs(20)), Dur::millis(5)),
        )],
    )
}

// ---------------------------------------------------------------------
// scimark2: a single Java compute thread plus JVM service threads
// (§5.3): "the compute thread can be delayed, because Java system threads
// are considered interactive and get priority over the computation
// thread."
// ---------------------------------------------------------------------

fn scimark(k: &mut Kernel, p: &P, variant: usize) -> AppSpec {
    let _ = k;
    // Variants: the six scimark sub-kernels stress the JVM differently;
    // (helpers, burst ms, sleep ms) per service thread. JVM service work
    // (GC, JIT compilation) comes in multi-millisecond bursts separated by
    // longer idle spans, so the threads classify interactive under ULE
    // (they sleep ≈70% of the time) while demanding more than a fair CFS
    // share in aggregate.
    const VARIANTS: [(usize, u64, u64); 6] = [
        (3, 60, 200),  // (1) composite: light GC
        (3, 80, 200),  // (2) FFT: moderate allocation
        (3, 90, 210),  // (3) Jacobi SOR: heavy GC pressure
        (3, 100, 230), // (4) Monte Carlo: heaviest service activity
        (3, 75, 210),  // (5) sparse matmult
        (3, 65, 190),  // (6) dense LU
    ];
    let (helpers, run_ms, sleep_ms) = VARIANTS[variant - 1];
    let mut threads = vec![ThreadSpec::new(
        format!("scimark{variant}-compute"),
        cpu_hog(p.work(Dur::secs(20)), Dur::millis(5)),
    )];
    for h in 0..helpers {
        threads.push(
            ThreadSpec::new(
                format!("scimark{variant}-jvm{h}"),
                from_fn({
                    let mut phase = false;
                    move |ctx| {
                        phase = !phase;
                        if phase {
                            let r = ctx.rng.gen_range(run_ms * 4 / 5, run_ms * 6 / 5);
                            Action::Run(Dur::millis(r))
                        } else {
                            let s = ctx.rng.gen_range(sleep_ms * 4 / 5, sleep_ms * 6 / 5);
                            Action::Sleep(Dur::millis(s))
                        }
                    }
                }),
            )
            .with_history(Dur::ZERO, Dur::secs(2))
            .detached(),
        );
    }
    AppSpec::new(format!("scimark2-({variant})"), threads)
}

macro_rules! scimark_builder {
    ($f:ident, $v:expr) => {
        /// One of the six scimark2 sub-benchmarks.
        pub fn $f(k: &mut Kernel, p: &P) -> AppSpec {
            scimark(k, p, $v)
        }
    };
}
scimark_builder!(scimark1, 1);
scimark_builder!(scimark2, 2);
scimark_builder!(scimark3, 3);
scimark_builder!(scimark4, 4);
scimark_builder!(scimark5, 5);
scimark_builder!(scimark6, 6);

/// The six scimark sub-benchmarks with their suite names.
pub const SCIMARK: &[(&str, Builder)] = &[
    ("scimark2-(1)", scimark1),
    ("scimark2-(2)", scimark2),
    ("scimark2-(3)", scimark3),
    ("scimark2-(4)", scimark4),
    ("scimark2-(5)", scimark5),
    ("scimark2-(6)", scimark6),
];

// ---------------------------------------------------------------------
// john-the-ripper: embarrassingly parallel password cracking.
// ---------------------------------------------------------------------

fn john(_k: &mut Kernel, p: &P, variant: usize) -> AppSpec {
    // Variants are the three hash formats with different kernel sizes.
    let chunk = [Dur::millis(8), Dur::millis(3), Dur::millis(15)][variant - 1];
    let total = p.work(Dur::secs(18));
    AppSpec::new(
        format!("john-({variant})"),
        (0..p.ncores)
            .map(|i| {
                ThreadSpec::new(
                    format!("john{variant}-{i}"),
                    cpu_hog(Dur(total.as_nanos() / p.ncores as u64), chunk),
                )
            })
            .collect(),
    )
}

macro_rules! john_builder {
    ($f:ident, $v:expr) => {
        /// One of the three john-the-ripper hash formats.
        pub fn $f(k: &mut Kernel, p: &P) -> AppSpec {
            john(k, p, $v)
        }
    };
}
john_builder!(john1, 1);
john_builder!(john2, 2);
john_builder!(john3, 3);

/// The three john hash formats with their suite names.
pub const JOHN: &[(&str, Builder)] = &[
    ("john-(1)", john1),
    ("john-(2)", john2),
    ("john-(3)", john3),
];

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::{SimConfig, SimpleRR};
    use simcore::Time;
    use topology::Topology;

    fn mk(cores: u32) -> Kernel {
        let topo = Topology::flat(cores);
        let sched = Box::new(SimpleRR::new(&topo));
        Kernel::new(topo, SimConfig::frictionless(3), sched)
    }

    #[test]
    fn build_app_drains_all_jobs() {
        let mut k = mk(2);
        let p = P::scaled(2, 0.05);
        let spec = build_apache(&mut k, &p);
        let app = k.queue_app(Time::ZERO, spec);
        assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(120)));
        assert!(k.app(app).finished.is_some());
    }

    #[test]
    fn cray_cascade_completes() {
        let mut k = mk(2);
        let spec = cray(
            &mut k,
            CrayCfg {
                threads: 16,
                work: Dur::millis(5),
                spawn_cost: Dur::millis(1),
            },
        );
        let app = k.queue_app(Time::ZERO, spec);
        assert!(k.run_until_apps_done(Time::ZERO + Dur::secs(30)));
        assert_eq!(k.app(app).spawned, 17);
    }

    #[test]
    fn scimark_compute_finishes_despite_detached_helpers() {
        let mut k = mk(1);
        let p = P::scaled(1, 0.01);
        let spec = scimark1(&mut k, &p);
        let app = k.queue_app(Time::ZERO, spec);
        assert!(
            k.run_until_apps_done(Time::ZERO + Dur::secs(60)),
            "detached JVM helpers must not block completion"
        );
        assert!(k.app(app).finished.is_some());
    }
}
