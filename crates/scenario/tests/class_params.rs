//! The `[params.<class>]` table: round trips, stock defaults and the
//! diagnostics a bad table gets.

use scenario::{ClassParams, Scenario, Sched};

/// A minimal scenario with `tables` appended.
fn with_tables(tables: &str) -> String {
    format!(
        r#"
name = "tables"

[topology]
preset = "flat-2"

[[phase]]
kind = "fibo"
work = 1.0

[run]
horizon = 1.0

{tables}"#
    )
}

/// Every class that has a table, with dimensions, switches and one value
/// equal to its default.
const TABLES: &str = r#"
[params.cfs]
wakeup_granularity = 4000000
nr_latency = 8
imbalance_pct_numa = 100
cgroups = false
wakeup_preemption = false

[params.ule]
balance_min = 200000000
periodic_balance = false

[params.eevdf]
slice = 1000000

[params.scx-vtime]
floor_slices = 3
"#;

fn parse_err(tables: &str) -> String {
    match Scenario::from_toml(&with_tables(tables)) {
        Ok(_) => panic!("accepted:\n{tables}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn tables_round_trip_through_json() {
    let sc = Scenario::from_toml(&with_tables(TABLES)).unwrap();
    let json = serde_json::to_string_pretty(&sc.to_value()).unwrap();
    let back = Scenario::from_json(&json).unwrap();
    assert_eq!(sc, back);
    assert_eq!(sc.params.len(), 4);

    let cfs = sc.class_params(Sched::Cfs).unwrap();
    let decoded: cfs::params::CfsParams = cfs.decode();
    assert_eq!(decoded.wakeup_granularity, simcore::Dur::millis(4));
    assert_eq!(decoded.imbalance_pct_numa, 100);
    assert!(!decoded.cgroups && !decoded.wakeup_preemption);
    // ULE's balance window still follows balance_min.
    let ule: ule::params::UleParams = sc.class_params(Sched::Ule).unwrap().decode();
    assert_eq!(ule.balance_max, simcore::Dur::millis(600));
    assert!(!ule.periodic_balance);

    // Only values that differ from stock are written back.
    let v = sc.to_value();
    let cfs_v = v.get("params").and_then(|p| p.get("cfs")).unwrap();
    assert!(cfs_v.get("nr_latency").is_none(), "{json}");
    assert_eq!(
        cfs_v.get("imbalance_pct_numa").and_then(|x| x.as_u64()),
        Some(100)
    );
}

#[test]
fn a_table_that_sets_nothing_is_stock() {
    let sc = Scenario::from_toml(&with_tables("[params.cfs]\n")).unwrap();
    assert_eq!(
        sc.class_params(Sched::Cfs),
        Some(&ClassParams::stock(Sched::Cfs))
    );
    assert_eq!(sc.class_params(Sched::Ule), None);
    let none = Scenario::from_toml(&with_tables("")).unwrap();
    assert!(none.params.is_empty());
    assert!(none.to_value().get("params").is_none());
}

#[test]
fn unknown_keys_fail_with_the_valid_keys() {
    let e = parse_err("[params.cfs]\nwakeup_granulrity = 1000000\n");
    assert!(e.contains("params.cfs.wakeup_granulrity"), "{e}");
    for key in [
        "sched_latency",
        "migration_cost",
        "cgroups",
        "wakeup_preemption",
    ] {
        assert!(e.contains(key), "{e}");
    }
    let e = parse_err("[params.eevdf]\ncgroups = false\n");
    assert!(
        e.contains("params.eevdf.cgroups") && e.contains("lag_clamp_slices"),
        "{e}"
    );
}

#[test]
fn values_outside_the_bounds_or_fractional_fail_with_path_and_bounds() {
    // The dimension stops at 8 ms: a 10 s granularity is not a way to
    // switch wakeup preemption off.
    let e = parse_err("[params.cfs]\nwakeup_granularity = 10000000000\n");
    assert!(e.contains("params.cfs.wakeup_granularity"), "{e}");
    assert!(e.contains("[100000, 8000000]"), "{e}");
    let e = parse_err("[params.ule]\ninteract_thresh = 4\n");
    assert!(
        e.contains("params.ule.interact_thresh") && e.contains("[5, 60]"),
        "{e}"
    );
    // A fraction for an integer or a duration dimension.
    let e = parse_err("[params.cfs]\nnr_latency = 8.5\n");
    assert!(
        e.contains("params.cfs.nr_latency") && e.contains("[2, 32]"),
        "{e}"
    );
    let e = parse_err("[params.scx-vtime]\nslice = 1000000.5\n");
    assert!(
        e.contains("params.scx-vtime.slice") && e.contains("[500000, 16000000]"),
        "{e}"
    );
    // Switches take booleans only.
    let e = parse_err("[params.cfs]\ncgroups = 0\n");
    assert!(e.contains("params.cfs.cgroups"), "{e}");
}

#[test]
fn classes_without_parameters_have_no_table() {
    for class in ["simple-rr", "scx-fifo", "bfs"] {
        let e = parse_err(&format!("[params.{class}]\n"));
        assert!(e.contains(&format!("params.{class}")), "{e}");
        assert!(e.contains("cfs, ule, eevdf, scx-vtime"), "{e}");
    }
}
