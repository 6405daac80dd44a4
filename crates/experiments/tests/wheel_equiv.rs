//! Differential determinism across event-queue backends: every figure
//! scenario must produce a byte-identical decision digest (and event
//! count) whether the event core runs on the binary heap or the timer
//! wheel. This is the end-to-end counterpart of the op-level differential
//! test in `crates/simcore/tests/backend_equiv.rs`.
//!
//! Each kernel is built the way the scenario engine builds it, through
//! `scenario::make_class` and `scenario::workload::build`, with the backend
//! named explicitly in its `SimConfig`, and runs to the scenario's own end
//! (horizon, all-apps-done rule, spread-based early stop), so task exits
//! and the whole tail of every run are compared. The wheel run must also
//! end exactly where `scenario::run_sched` ends.
//!
//! fig1 runs in every profile; fig6/fig7 cover tens of simulated seconds
//! on 32 cores (fig7 with 512 threads at any scale) and only run in
//! release (`cargo test --release`, which is what CI runs).

use kernel::{Kernel, SimConfig};
use scenario::{EngineOpts, Scenario, Sched};
use simcore::{Backend, Time};
use topology::CpuId;

fn load(name: &str) -> Scenario {
    let path = format!("{}/../../scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Scenario::from_toml(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// (decision digest, events handled) for `sc` under `sched` on `backend`,
/// stepped by the scenario's `[run]` table as the engine steps it.
fn digest_on(sc: &Scenario, sched: Sched, scale: f64, seed: u64, backend: Backend) -> (u64, u64) {
    let topo = sc.topology.build();
    let ncpu = topo.nr_cpus();
    let mut cfg = SimConfig::with_seed(seed);
    cfg.faults = sc.faults.to_plan();
    cfg.event_queue = Some(backend);
    let class = scenario::make_class(&topo, sched, seed);
    let mut k = Kernel::new(topo.clone(), cfg, class);
    let mut apps = Vec::new();
    for phase in &sc.phases {
        let spec = scenario::workload::build(&mut k, &phase.workload, &phase.name, scale, ncpu)
            .expect("phase builds");
        let at = Time::ZERO + phase.at.eval(scale);
        apps.push((phase.name.as_str(), k.queue_app(at, spec)));
    }
    for ev in &sc.events {
        let (_, app) = apps
            .iter()
            .find(|(name, _)| *name == ev.phase)
            .expect("event phase exists");
        k.queue_unpin(Time::ZERO + ev.at.eval(scale), *app);
    }

    let run = &sc.run;
    let horizon = match sched {
        Sched::Cfs => run.horizon_cfs.as_ref(),
        Sched::Ule => run.horizon_ule.as_ref(),
        _ => None,
    }
    .unwrap_or(&run.horizon);
    let limit = Time::ZERO + horizon.eval(scale);
    let step = run.step.eval(scale);
    let stop_after = run
        .stop_spread_after
        .as_ref()
        .map_or(Time::ZERO, |t| Time::ZERO + t.eval(scale));
    while k.now() < limit && !(run.until_apps_done && k.all_apps_done()) {
        k.run_until(k.now() + step);
        if let Some(th) = run.stop_spread_le {
            let queued: Vec<usize> = (0..ncpu).map(|c| k.nr_queued(CpuId(c as u32))).collect();
            let spread = queued.iter().max().unwrap() - queued.iter().min().unwrap();
            if spread as u32 <= th && k.now() > stop_after {
                break;
            }
        }
    }
    (k.decision_digest(), k.counters().events)
}

/// Run the scenario `name` under both schedulers at two scales/seeds and
/// insist the heap and wheel backends agree exactly, on a run that ends
/// where the scenario engine's does.
fn assert_backends_agree(name: &str) {
    let sc = load(name);
    for (scale, seed) in [(0.02, 7), (0.04, 11)] {
        for sched in Sched::BOTH {
            let heap = digest_on(&sc, sched, scale, seed, Backend::Heap);
            let wheel = digest_on(&sc, sched, scale, seed, Backend::Wheel);
            assert_eq!(
                heap,
                wheel,
                "{name}/{} scale={scale} seed={seed}: backends disagree",
                sched.name()
            );
            assert!(heap.0 != 0 && heap.1 > 0, "degenerate run for {name}");
            let opts = EngineOpts {
                scale,
                seed,
                ..EngineOpts::default()
            };
            let engine = scenario::run_sched(&sc, sched, &opts).expect("scenario runs");
            assert_eq!(
                (engine.run.digest, engine.run.counters.events),
                wheel,
                "{name}/{} scale={scale} seed={seed}: run ended short of the engine's stop rule",
                sched.name()
            );
        }
    }
}

#[test]
fn fig1_digest_is_backend_independent() {
    assert_backends_agree("fig1");
}

#[test]
fn fig6_digest_is_backend_independent() {
    if cfg!(debug_assertions) {
        return; // tens of simulated seconds on 32 cores: release-only.
    }
    assert_backends_agree("fig6");
}

#[test]
fn fig7_digest_is_backend_independent() {
    if cfg!(debug_assertions) {
        return; // 512 threads over ~30 simulated seconds: release-only.
    }
    assert_backends_agree("fig7");
}
