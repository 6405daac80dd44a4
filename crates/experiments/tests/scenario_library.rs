//! The scenario corpus: every file under `scenarios/` parses, and every
//! scenario beyond the figure workloads runs clean in strict mode and holds
//! its own assertions at the golden scale.

use scenario::{EngineOpts, Scenario};

#[test]
fn scenario_library_parses_and_passes_asserts() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = format!("{root}/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "scenario library should ship the 3 figure workloads plus ≥5 more files, found {}",
        paths.len()
    );
    // The figure workloads take tens of simulated seconds; their drivers'
    // shape tests (`experiment_shapes.rs`) and the golden gate cover them.
    let figs = ["fig1.toml", "fig6.toml", "fig7.toml"];
    for path in &paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_toml(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        if figs.contains(&name.as_str()) {
            continue;
        }
        let opts = EngineOpts {
            scale: 0.05,
            check: kernel::CheckMode::Strict,
            ..EngineOpts::default()
        };
        let mut runs = Vec::new();
        for &sched in &sc.scheds {
            let out = scenario::run_sched(&sc, sched, &opts)
                .unwrap_or_else(|e| panic!("{name} [{}]: {e}", sched.name()));
            runs.push(out.run);
        }
        let failures = scenario::failures(&sc, &runs);
        assert!(failures.is_empty(), "{name}: {failures:?}");
    }
}
