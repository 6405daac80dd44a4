//! `battle tune` integration contracts:
//!
//! * the report is byte-identical across worker-pool sizes and the
//!   incumbent never loses to stock;
//! * the tuned construction path with *explicit default* parameters
//!   reproduces the committed golden digests byte-for-byte (hoisting the
//!   tunables changed nothing at stock settings);
//! * the committed `results/tuned/<sched>.toml` artifacts parse and every
//!   value sits inside its declared dimension bounds.

use eevdf::EevdfParams;
use experiments::{tune, RunCfg};
use scenario::{EngineOpts, Scenario, Sched};
use sched_api::params::{ParamSpace, ParamVector};
use std::path::{Path, PathBuf};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn load_scenarios(names: &[&str]) -> Vec<(PathBuf, Scenario)> {
    names
        .iter()
        .map(|n| {
            let p = format!("{ROOT}/scenarios/{n}.toml");
            let src = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
            (
                PathBuf::from(p.clone()),
                Scenario::from_toml(&src).unwrap_or_else(|e| panic!("{p}: {e}")),
            )
        })
        .collect()
}

#[test]
fn report_is_thread_count_independent_and_never_loses_to_stock() {
    let corpus = load_scenarios(&["fig1", "mixed-nice"]);
    let cfg = |threads: usize| tune::TuneCfg {
        budget: 5,
        run: RunCfg {
            threads,
            ..RunCfg::at_scale(0.01)
        },
        ..tune::TuneCfg::default()
    };
    let one = tune::run(&corpus, Sched::Eevdf, &cfg(1));
    let four = tune::run(&corpus, Sched::Eevdf, &cfg(4));
    let j1 = serde_json::to_string_pretty(&one).unwrap();
    let j4 = serde_json::to_string_pretty(&four).unwrap();
    assert_eq!(j1, j4, "tune report depends on --threads");
    assert!(one.failures.is_empty(), "{:?}", one.failures);
    assert!(
        one.tuned_composite >= one.stock_composite,
        "incumbent ({}) lost to stock ({})",
        one.tuned_composite,
        one.stock_composite
    );
    // Evaluation #1 is always the stock vector, and best-so-far is
    // monotone from there.
    assert_eq!(one.trajectory[0].score, one.stock_composite);
    let mut best = f64::NEG_INFINITY;
    for t in &one.trajectory {
        assert!(t.best >= best);
        best = t.best;
    }
}

/// The golden line for `sched` in `results/golden/<stem>.digest`.
fn golden_digest(stem: &str, sched: Sched) -> String {
    let p = format!("{ROOT}/results/golden/{stem}.digest");
    let src = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
    src.lines()
        .find_map(|l| l.strip_prefix(&format!("{} ", sched.flag_name())))
        .unwrap_or_else(|| panic!("{p}: no {} line", sched.flag_name()))
        .trim()
        .to_string()
}

#[test]
fn explicit_default_params_reproduce_golden_digests() {
    // The golden gate pins sc-fig1 at scale 0.05, seed 42, for cfs, ule
    // and eevdf. Running through the tuned construction path with each
    // scheduler's default vector must land on the very same digests:
    // hoisting EEVDF's slice/lag constants (and every other tunable) into
    // params changed nothing at stock settings.
    let corpus = load_scenarios(&["fig1"]);
    for sched in [Sched::Cfs, Sched::Ule, Sched::Eevdf] {
        let params = match sched {
            Sched::Eevdf => EevdfParams::default().to_vector(),
            _ => ParamVector::defaults(&scenario::param_dims(sched)),
        };
        let opts = EngineOpts {
            scale: 0.05,
            seed: 42,
            params: Some(params),
            ..EngineOpts::default()
        };
        let out = scenario::run_sched(&corpus[0].1, sched, &opts)
            .unwrap_or_else(|e| panic!("[{}] {e}", sched.name()));
        assert_eq!(
            out.run.digest_hex,
            golden_digest("sc-fig1", sched),
            "[{}] explicit default params diverged from the pinned golden digest",
            sched.name()
        );
    }
}

fn num(v: &serde::Value, key: &str) -> f64 {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .as_f64()
        .unwrap_or_else(|| panic!("{key} is not a number"))
}

#[test]
fn committed_tuned_artifacts_parse_and_stay_in_bounds() {
    for sched in Sched::TUNABLE {
        let p = format!("{ROOT}/results/tuned/{}.toml", sched.flag_name());
        assert!(
            Path::new(&p).exists(),
            "{p} missing — regenerate with `battle tune scenarios --write`"
        );
        let src = std::fs::read_to_string(&p).unwrap();
        let v = scenario::toml::parse(&src).unwrap_or_else(|e| panic!("{p}: {e}"));
        assert_eq!(
            v.get("sched").and_then(|s| s.as_str()),
            Some(sched.flag_name())
        );
        assert!(
            num(&v, "tuned_composite") >= num(&v, "stock_composite"),
            "{p}: tuned composite regressed stock"
        );
        let params = v
            .get("params")
            .unwrap_or_else(|| panic!("{p}: no [params]"));
        let dims = scenario::param_dims(sched);
        let mut raw = Vec::with_capacity(dims.len());
        for d in &dims {
            let x = num(params, d.name);
            assert!(
                x >= d.lo && x <= d.hi,
                "{p}: {} = {x} outside [{}, {}]",
                d.name,
                d.lo,
                d.hi
            );
            if d.scale.discrete() {
                assert_eq!(x, x.round(), "{p}: {} not integral", d.name);
            }
            raw.push(x);
        }
        // The committed vector is a fixed point of quantization: loading
        // it back yields exactly these values.
        let vec = ParamVector(raw.clone());
        assert_eq!(vec.quantized(&dims), vec, "{p}: values drift on reload");
    }
}

#[test]
fn tuned_toml_roundtrips_through_the_parser() {
    // Emission/parsing round-trip on a freshly built report, independent
    // of the committed artifacts.
    let corpus = load_scenarios(&["mixed-nice"]);
    let cfg = tune::TuneCfg {
        budget: 2,
        run: RunCfg {
            seed: 7,
            ..RunCfg::at_scale(0.01)
        },
        ..tune::TuneCfg::default()
    };
    let r = tune::run(&corpus, Sched::ScxVtime, &cfg);
    let toml = tune::tuned_toml(&r);
    let v = scenario::toml::parse(&toml).unwrap();
    let dims = scenario::param_dims(Sched::ScxVtime);
    let params = v.get("params").unwrap();
    for (i, d) in dims.iter().enumerate() {
        assert_eq!(num(params, d.name), r.incumbent.value(i, &dims));
    }
}
