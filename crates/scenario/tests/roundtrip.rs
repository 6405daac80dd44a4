//! Scenario spec round-trips and parse diagnostics.
//!
//! The contract the golden gate relies on: parse → serialize → parse is
//! the identity (so scenarios can be stored in either TOML or JSON form),
//! unknown keys are rejected instead of silently ignored, and errors name
//! the offending field with its line or path.

use kernel::{AppId, Kernel};
use scenario::{EngineOpts, Observer, Scenario, Sched};
use simcore::{Dur, Time};

/// A scenario touching every workload kind, events, faults, tenant
/// labels, a class table and every assertion family.
const KITCHEN_SINK: &str = r#"
name = "kitchen-sink"
description = "every feature at once"
scheds = ["ule"]

[topology]
nodes = 2
llcs_per_node = 1
cores_per_llc = 2
smt_per_core = 2

[faults]
spurious_wake_ms = 50.0
tick_jitter_us = 100.0
missed_tick_pct = 10
hotplug_period_s = 2.0
hotplug_down_ms = 250.0

[[phase]]
name = "spin"
kind = "spinners"
count = { base = 8, min_per_cpu = 1 }
pin = [0, 1]
chunk_ms = 2.0
daemon = false

[[phase]]
kind = "fibo"
work = 10.0

[[phase]]
name = "hogs"
kind = "cpu-hogs"
at = 0.5
count = 4
work = { base_s = 1.0, min_s = 0.1 }
nice = 5
pin = [2]

[[phase]]
kind = "sysbench"
threads = 8
total_tx = { base = 1000, min = 50 }
init_ms = 8.0

[[phase]]
kind = "cray"
threads = 16
work = { base_s = 2.0, scale_min = 0.3, scale_max = 1.0 }

[[phase]]
kind = "hackbench"
groups = 1
msgs = 10

[[phase]]
kind = "fork-join"
workers = 4
rounds = { base = 20, min = 2 }
work_ms = 0.5

[[phase]]
name = "rpc"
tenant = "frontend"
kind = "client-server"
clients = 4
servers = 2
rounds = 10
burst = 2
service_us = 100.0
think_ms = 1.0

[[phase]]
tenant = "batch"
kind = "herd"
waiters = 8
rounds = 5
work_us = 200.0
pause_ms = 2.0

[[phase]]
name = "locks"
kind = "mutex-mix"

[[phase.threads]]
name = "holder"
nice = 10
iters = 10
hold_ms = 2.0
sleep_ms = 0.5

[[phase.threads]]
name = "spinner"
iters = 10
lock = false
work_ms = 1.0

[[event]]
kind = "unpin"
phase = "spin"
at = { base_s = 1.0, min_s = 0.2 }

[budget]
max_events = 5000000
max_sim_time_s = 120.0
max_queue_depth = 100000
max_live_tasks = 4096
stall_events = 50000
pingpong = 5000

[params.ule]
balance_min = 200000000
periodic_balance = false

[run]
horizon = { base_s = 30.0, plus_s = 5.0 }
horizon_ule = { base_s = 60.0, plus_s = 5.0 }
step = { base_s = 0.05, scaled = false }
until_apps_done = false
stop_spread_le = 2
stop_spread_after = 1.5

[assert]
all_apps_done = false

[[assert.counter]]
counter = "ctx_switches"
sched = "ule"
min = 1
max = 1000000

[[assert.latency]]
metric = "run_delay_p99_ms"
max_ms = 10000.0

[[assert.relation]]
metric = "wakeup_p99_ms"
left = "cfs"
right = "ule"
cmp = "le"
factor = 4.0

[[assert.tenant]]
tenant = "frontend"
metric = "run_delay_p99_ms"
sched = "ule"
max_ms = 500.0

[[assert.tenant_relation]]
metric = "run_delay_p99_ms"
left = "frontend"
right = "batch"
cmp = "le"
factor = 2.0

[[assert.digest]]
sched = "ule"
value = "0123456789abcdef"
"#;

#[test]
fn toml_json_toml_round_trip_is_identity() {
    let sc = Scenario::from_toml(KITCHEN_SINK).expect("kitchen sink parses");
    let json = serde_json::to_string_pretty(&sc.to_value()).expect("serializable");
    let back = Scenario::from_json(&json).expect("serialized form re-parses");
    assert_eq!(sc, back, "parse → serialize → parse must be the identity");
    // And once more through the value tree, for the in-memory path.
    let again = Scenario::from_value(&back.to_value()).expect("value round-trip");
    assert_eq!(sc, again);
}

#[test]
fn new_scenario_is_what_a_minimal_file_parses_to() {
    use scenario::expr::TimeExpr;
    use scenario::spec::{PhaseSpec, TopoSpec, WorkloadSpec};
    let src = r#"
name = "minimal"

[topology]
preset = "flat-2"

[[phase]]
kind = "fibo"
work = 1.0

[run]
horizon = 5.0
"#;
    let phase = PhaseSpec {
        name: "fibo".to_string(),
        tenant: None,
        at: TimeExpr::fixed(0.0),
        workload: WorkloadSpec::Fibo {
            work: TimeExpr::scaled(1.0),
        },
    };
    let built = Scenario::new(
        "minimal",
        TopoSpec::Preset("flat-2".to_string()),
        vec![phase],
        TimeExpr::scaled(5.0),
    );
    assert_eq!(Scenario::from_toml(src).expect("parses"), built);
}

#[test]
fn unknown_keys_are_rejected_with_field_path() {
    let src = r#"
name = "x"
[topology]
preset = "single-core"
[[phase]]
kind = "fibo"
work = 1.0
frobnicate = 3
[run]
horizon = 1.0
"#;
    let err = Scenario::from_toml(src).expect_err("unknown key must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("frobnicate") && msg.contains("phase[0]"),
        "error should name the key and its path: {msg}"
    );
}

#[test]
fn json_rejects_a_repeated_key_as_toml_does() {
    // A `run` table that sets `horizon` twice: the parser once kept the
    // first and ran a 1 s scenario that says 5 s.
    let src = r#"{
  "name": "twice",
  "topology": {"preset": "single-core"},
  "phase": [{"kind": "fibo", "work": 1.0}],
  "run": {
    "horizon": {"base_s": 1.0, "scaled": false},
    "horizon": 5.0,
    "until_apps_done": false
  }
}"#;
    let err = Scenario::from_json(src).expect_err("a repeated key must fail");
    let at = src.rfind("\"horizon\"").unwrap();
    assert!(
        err.to_string()
            .contains(&format!("duplicate key `horizon` at byte {at}")),
        "{err}"
    );
    let once = src.replacen("\"horizon\": 5.0,", "", 1);
    Scenario::from_json(&once).expect("the same file with one horizon parses");
}

#[test]
fn a_non_string_scheduler_lists_every_class() {
    let src = r#"
name = "x"
scheds = [1]
[topology]
preset = "single-core"
[[phase]]
kind = "fibo"
work = 1.0
[run]
horizon = 1.0
"#;
    let msg = Scenario::from_toml(src)
        .expect_err("scheds[0] = 1")
        .to_string();
    assert!(msg.contains("scheds[0]") && msg.contains("`1`"), "{msg}");
    for sched in Sched::ALL {
        assert!(msg.contains(sched.flag_name()), "{msg} omits {sched:?}");
    }
}

#[test]
fn toml_errors_carry_line_numbers() {
    let src = "name = \"x\"\nbad line without equals\n";
    let err = Scenario::from_toml(src).expect_err("syntax error must fail");
    assert!(
        err.to_string().contains("line 2"),
        "syntax errors should name the line: {err}"
    );
}

#[test]
fn missing_required_fields_are_named() {
    let no_run = r#"
name = "x"
[topology]
preset = "single-core"
[[phase]]
kind = "fibo"
work = 1.0
"#;
    let err = Scenario::from_toml(no_run).expect_err("missing [run] must fail");
    assert!(err.to_string().contains("run"), "{err}");

    let no_phase = r#"
name = "x"
[topology]
preset = "single-core"
[run]
horizon = 1.0
"#;
    let err = Scenario::from_toml(no_phase).expect_err("missing phases must fail");
    assert!(err.to_string().contains("phase"), "{err}");
}

#[test]
fn bad_names_are_rejected() {
    let bad_counter = r#"
name = "x"
[topology]
preset = "single-core"
[[phase]]
kind = "fibo"
work = 1.0
[run]
horizon = 1.0
[[assert.counter]]
counter = "not_a_counter"
min = 1
"#;
    let err = Scenario::from_toml(bad_counter).expect_err("bad counter name");
    assert!(err.to_string().contains("not_a_counter"), "{err}");

    let bad_event = r#"
name = "x"
[topology]
preset = "single-core"
[[phase]]
kind = "fibo"
work = 1.0
[[event]]
kind = "unpin"
phase = "nope"
at = 1.0
[run]
horizon = 1.0
"#;
    let err = Scenario::from_toml(bad_event).expect_err("unknown event phase");
    assert!(err.to_string().contains("nope"), "{err}");

    let bad_init = r#"
name = "x"
[topology]
preset = "single-core"
[[phase]]
kind = "sysbench"
threads = 2
total_tx = 10
init_ms = -1.0
[run]
horizon = 1.0
"#;
    let err = Scenario::from_toml(bad_init).expect_err("negative init_ms");
    assert!(err.to_string().contains("phase[0].init_ms"), "{err}");
}

/// Every duration field of a phase must be a finite, non-negative number:
/// a negative or endless work segment would otherwise finish at once.
/// Each bad value is rejected with the field's path; the value 1.0 parses.
#[test]
fn duration_fields_must_be_finite_and_non_negative() {
    let threads = "kind = \"mutex-mix\"\n[[phase.threads]]\nname = \"t\"\niters = 2";
    let fields: &[(&str, &str, &str)] = &[
        ("kind = \"spinners\"\ncount = 2", "chunk_ms", "phase[0]"),
        (
            "kind = \"cpu-hogs\"\ncount = 2\nwork = 1.0",
            "chunk_ms",
            "phase[0]",
        ),
        (
            "kind = \"sysbench\"\nthreads = 2\ntotal_tx = 10",
            "init_ms",
            "phase[0]",
        ),
        (
            "kind = \"fork-join\"\nworkers = 2\nrounds = 2",
            "work_ms",
            "phase[0]",
        ),
        (
            "kind = \"client-server\"\nclients = 2\nservers = 1\nrounds = 2",
            "service_us",
            "phase[0]",
        ),
        (
            "kind = \"client-server\"\nclients = 2\nservers = 1\nrounds = 2",
            "think_ms",
            "phase[0]",
        ),
        (
            "kind = \"herd\"\nwaiters = 4\nrounds = 2",
            "work_us",
            "phase[0]",
        ),
        (
            "kind = \"herd\"\nwaiters = 4\nrounds = 2",
            "pause_ms",
            "phase[0]",
        ),
        (threads, "hold_ms", "phase[0].threads[0]"),
        (threads, "work_ms", "phase[0].threads[0]"),
        (threads, "sleep_ms", "phase[0].threads[0]"),
    ];
    for (phase, key, at) in fields {
        let doc = |value: &str| {
            format!(
                "name = \"x\"\n[topology]\npreset = \"single-core\"\n[run]\nhorizon = 1.0\n\
                 [[phase]]\n{phase}\n{key} = {value}\n"
            )
        };
        Scenario::from_toml(&doc("1.0")).unwrap_or_else(|e| panic!("{key} = 1.0: {e}"));
        for bad in ["-1", "-5.0", "1e999"] {
            let err = Scenario::from_toml(&doc(bad)).expect_err("a bad duration");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("{at}.{key}")) && msg.contains("finite, non-negative"),
                "{key} = {bad}: {msg}"
            );
        }
    }
}

#[test]
fn budget_killed_run_salvages_a_deterministic_partial_result() {
    let src = r#"
name = "budgeted"
[topology]
preset = "flat-4"
[[phase]]
kind = "cpu-hogs"
count = { base = 6, min = 6 }
work = { base_s = 0.5, scaled = false }
[budget]
max_events = 2000
[run]
horizon = { base_s = 5.0, scaled = false }
"#;
    let sc = Scenario::from_toml(src).unwrap();
    let opts = EngineOpts::default();
    let a = scenario::run_sched(&sc, Sched::Cfs, &opts).expect("salvaged, not crashed");
    assert!(a.run.partial, "budget must have tripped");
    assert_eq!(a.run.abort_kind, Some(scenario::AbortKind::Budget));
    assert!(a.run.abort.as_deref().unwrap().contains("budget exceeded"));
    assert!(!a.run.all_apps_done);
    assert!(a.run.counters.events >= 2000);
    // The abort point is deterministic, so the partial digest is too.
    let b = scenario::run_sched(&sc, Sched::Cfs, &opts).expect("salvaged");
    assert_eq!(a.run.digest, b.run.digest);
    assert_eq!(a.run.counters.events, b.run.counters.events);
    // Partial runs are excluded from assertion judgement.
    assert!(scenario::failures(&sc, std::slice::from_ref(&a.run)).is_empty());
}

#[test]
fn engine_runs_are_deterministic() {
    let src = r#"
name = "det"
[topology]
preset = "flat-4"
[[phase]]
kind = "cpu-hogs"
count = { base = 6, min = 6 }
work = { base_s = 0.2, scaled = false }
[run]
horizon = { base_s = 5.0, scaled = false }
"#;
    let sc = Scenario::from_toml(src).unwrap();
    let opts = EngineOpts::default();
    for &sched in &Sched::BOTH {
        let a = scenario::run_sched(&sc, sched, &opts).expect("runs");
        let b = scenario::run_sched(&sc, sched, &opts).expect("runs");
        assert_eq!(
            a.run.digest, b.run.digest,
            "{:?}: same scenario + seed must reproduce the digest",
            sched
        );
        assert!(a.run.all_apps_done, "{:?}: hogs must finish", sched);
    }
    // Different seeds must (for this contended mix) explore different
    // schedules — the digest is sensitive, not constant.
    let other = scenario::run_sched(
        &sc,
        Sched::Cfs,
        &EngineOpts {
            seed: 7,
            ..EngineOpts::default()
        },
    )
    .expect("runs");
    let base = scenario::run_sched(&sc, Sched::Cfs, &opts).expect("runs");
    assert_ne!(
        other.run.seed, base.run.seed,
        "sanity: the two runs used different seeds"
    );
}

#[test]
fn empty_pin_set_is_rejected_at_parse_time() {
    let src = r#"
name = "x"
[topology]
preset = "flat-4"
[[phase]]
kind = "cpu-hogs"
count = 2
work = 1.0
pin = []
[run]
horizon = 1.0
"#;
    let err = Scenario::from_toml(src).expect_err("empty pin set must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("pin") && msg.contains("phase[0]"),
        "error should name the field and its path: {msg}"
    );
}

#[test]
fn tenant_assertions_must_reference_declared_tenants() {
    let src = r#"
name = "x"
[topology]
preset = "flat-4"
[[phase]]
tenant = "web"
kind = "fibo"
work = 1.0
[run]
horizon = 1.0
[[assert.tenant]]
tenant = "nosuch"
metric = "run_delay_p99_ms"
max_ms = 1.0
"#;
    let err = Scenario::from_toml(src).expect_err("unknown tenant must fail");
    assert!(err.to_string().contains("nosuch"), "{err}");

    let rel = r#"
name = "x"
[topology]
preset = "flat-4"
[[phase]]
tenant = "web"
kind = "fibo"
work = 1.0
[run]
horizon = 1.0
[[assert.tenant_relation]]
metric = "run_delay_p99_ms"
left = "web"
right = "ghost"
cmp = "le"
"#;
    let err = Scenario::from_toml(rel).expect_err("unknown relation tenant must fail");
    assert!(err.to_string().contains("ghost"), "{err}");
}

#[test]
fn datacenter_presets_parse_and_build() {
    for (preset, cpus) in [("numa-256", 256), ("numa-512", 512)] {
        let src = format!(
            "name = \"x\"\n[topology]\npreset = \"{preset}\"\n\
             [[phase]]\nkind = \"fibo\"\nwork = 1.0\n[run]\nhorizon = 1.0\n"
        );
        let sc = Scenario::from_toml(&src).expect("datacenter preset parses");
        assert_eq!(sc.topology.build().nr_cpus(), cpus);
    }
    let bad = "name = \"x\"\n[topology]\npreset = \"numa-1024\"\n\
               [[phase]]\nkind = \"fibo\"\nwork = 1.0\n[run]\nhorizon = 1.0\n";
    let err = Scenario::from_toml(bad).expect_err("unknown preset must fail");
    assert!(err.to_string().contains("numa-1024"), "{err}");
}

/// Tenant aggregation: phases sharing a label merge into one summary, in
/// first-appearance order, and per-app run-delay sums match the label's.
#[test]
fn tenant_summaries_aggregate_per_phase_histograms() {
    let src = r#"
name = "tenants"
[topology]
preset = "flat-4"
[[phase]]
name = "a1"
tenant = "alpha"
kind = "cpu-hogs"
count = { base = 4, min = 4 }
work = { base_s = 0.05, scaled = false }
[[phase]]
name = "b1"
tenant = "beta"
kind = "cpu-hogs"
count = { base = 4, min = 4 }
work = { base_s = 0.05, scaled = false }
[[phase]]
name = "a2"
tenant = "alpha"
kind = "cpu-hogs"
count = { base = 4, min = 4 }
work = { base_s = 0.05, scaled = false }
[run]
horizon = { base_s = 10.0, scaled = false }
"#;
    let sc = Scenario::from_toml(src).unwrap();
    let out = scenario::run_sched(&sc, Sched::Cfs, &EngineOpts::default()).expect("runs");
    let r = &out.run;
    let labels: Vec<&str> = r.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(labels, ["alpha", "beta"], "first-appearance order");
    let app_count = |name: &str| {
        r.apps
            .iter()
            .find(|a| a.name == name)
            .expect("app present")
            .run_delay
            .count
    };
    assert_eq!(
        r.tenants[0].run_delay.count,
        app_count("a1") + app_count("a2"),
        "alpha merges both of its phases"
    );
    assert_eq!(r.tenants[1].run_delay.count, app_count("b1"));
    let total: u64 = r.apps.iter().map(|a| a.run_delay.count).sum();
    assert_eq!(
        total, r.run_delay.count,
        "apps partition the global histogram"
    );
}

/// Records every instant it is stepped at, and asks for one stop.
struct StopAt {
    at: Time,
    seen: Vec<Time>,
}

impl Observer for StopAt {
    fn step(&mut self, k: &Kernel, _apps: &[(String, AppId)]) {
        self.seen.push(k.now());
    }

    fn stop_at(&self) -> Option<Time> {
        Some(self.at)
    }
}

#[test]
fn observer_stop_off_the_grid_is_stepped_and_steers_nothing() {
    let src = r#"
name = "stop"
[topology]
preset = "flat-2"
[[phase]]
kind = "cpu-hogs"
count = 3
work = { base_s = 0.3, scaled = false }
[run]
horizon = { base_s = 5.0, scaled = false }
step = { base_s = 0.1, scaled = false }
"#;
    let sc = Scenario::from_toml(src).unwrap();
    let opts = EngineOpts::default();
    let ms = |n| Time::ZERO + Dur::millis(n);
    for sched in Sched::ALL {
        let plain = scenario::run_sched(&sc, sched, &opts).unwrap();
        let mut obs = StopAt {
            at: ms(250),
            seen: Vec::new(),
        };
        let out = scenario::run_observed(&sc, sched, &opts, &mut obs).unwrap();
        // The requested instant is a step, and the grid goes on from it.
        assert_eq!(obs.seen[..4], [ms(100), ms(200), ms(250), ms(350)]);
        assert!(out.run.all_apps_done);
        assert_eq!(
            out.run.digest_hex,
            plain.run.digest_hex,
            "[{}] an extra stop changed a decision",
            sched.name()
        );
    }
}
