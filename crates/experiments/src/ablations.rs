//! Ablations of the design choices the paper (and DESIGN.md) call out:
//! what happens if you turn each mechanism off?
//!
//! * **CFS cgroups** (§2.1): fairness between applications vs between
//!   threads — decides how much CPU fibo keeps under sysbench (Fig 1a).
//! * **ULE's periodic balancer bug** (§2.2 footnote / the paper’s reference \[1\]): stock FreeBSD
//!   shipped with the long-term balancer running only once; the paper fixed
//!   it. Without the fix, the Figure 6 pile never drains past idle steals.
//! * **CFS NUMA imbalance tolerance** (§6.1): the 25% rule is why "CFS
//!   never achieves perfect load balance".
//! * **CFS wakeup preemption** (§5.3): disabling it closes most of ULE's
//!   apache advantage.
//!
//! Each ablation is a scenario under `scenarios/drivers/` run twice: as it
//! is, and with the `[params.<class>]` table that switches its mechanism
//! off.

use scenario::Scenario;
use topology::CpuId;

use crate::{fibo_window, figure_scenario, try_run_case, Crash, RunCfg, Sched};

/// Results of the four ablations.
#[derive(Debug, serde::Serialize)]
pub struct Ablations {
    /// fibo's CPU share under sysbench with CFS cgroups on vs off.
    pub cfs_fibo_share_cgroups_on: f64,
    /// ... and with per-thread fairness (pre-2.6.38 behaviour).
    pub cfs_fibo_share_cgroups_off: f64,
    /// Threads left on core 0 at the horizon with the paper's balancer fix.
    pub ule_core0_with_balancer: u32,
    /// ... and with the stock FreeBSD bug (balancer never runs).
    pub ule_core0_with_bug: u32,
    /// CFS final spread with the default 25% NUMA tolerance.
    pub cfs_spread_pct125: u32,
    /// ... and with the tolerance removed (pct = 100).
    pub cfs_spread_pct100: u32,
    /// Apache requests/s with CFS wakeup preemption enabled.
    pub cfs_apache_rps_preempt: f64,
    /// ... and with it switched off.
    pub cfs_apache_rps_no_preempt: f64,
}

/// `scenarios/drivers/ablation-fibo-share.toml`, compiled in.
pub const FIBO_SHARE: &str = include_str!("../../../scenarios/drivers/ablation-fibo-share.toml");
/// `scenarios/drivers/ablation-ule-pile.toml`, compiled in.
pub const ULE_PILE: &str = include_str!("../../../scenarios/drivers/ablation-ule-pile.toml");
/// `scenarios/drivers/ablation-cfs-pile.toml`, compiled in.
pub const CFS_PILE: &str = include_str!("../../../scenarios/drivers/ablation-cfs-pile.toml");
/// `scenarios/drivers/ablation-apache.toml`, compiled in.
pub const APACHE: &str = include_str!("../../../scenarios/drivers/ablation-apache.toml");

/// An ablation's two scenarios: `src` as it is, and `src` with the
/// `[params.<class>]` table `table` appended, named `<name>-<suffix>`.
fn pair(src: &str, suffix: &str, table: &str) -> [Scenario; 2] {
    let stock = figure_scenario(src);
    let mut ablated = figure_scenario(&format!("{src}\n{table}"));
    ablated.name = format!("{}-{suffix}", stock.name);
    [stock, ablated]
}

/// The four ablations' scenario pairs: cgroups, the periodic balancer,
/// the imbalance tolerance and wakeup preemption.
fn scenarios() -> [[Scenario; 2]; 4] {
    [
        pair(FIBO_SHARE, "no-cgroups", "[params.cfs]\ncgroups = false\n"),
        pair(
            ULE_PILE,
            "no-periodic-balance",
            "[params.ule]\nperiodic_balance = false\n",
        ),
        pair(
            CFS_PILE,
            "no-imbalance-tolerance",
            "[params.cfs]\nimbalance_pct_llc = 100\nimbalance_pct_numa = 100\n",
        ),
        pair(
            APACHE,
            "no-wakeup-preemption",
            "[params.cfs]\nwakeup_preemption = false\n",
        ),
    ]
}

/// Run all four ablations.
pub fn run(cfg: &RunCfg) -> Result<Ablations, Crash> {
    let [fibo, ule, cfs, apache] = scenarios();

    // fibo's share of the 6 s window that ends at the 10 s horizon.
    let fibo_share = |sc| Ok(fibo_window(sc, Sched::Cfs, cfg)?.as_secs_f64() / 6.0);
    let core0 = |sc| {
        Ok(try_run_case(sc, Sched::Ule, cfg, &mut ())?
            .kernel
            .nr_queued(CpuId(0)) as f64)
    };
    let spread = |sc| {
        Ok(f64::from(
            try_run_case(sc, Sched::Cfs, cfg, &mut ())?.run.final_spread,
        ))
    };
    let rps = |sc| Ok(try_run_case(sc, Sched::Cfs, cfg, &mut ())?.run.apps[0].ops_per_sec);

    // All eight runs are independent simulations; hand them to the runner
    // pool, and report the first failure in input order. Counts are
    // carried as `f64` (small integers, exactly representable).
    type Job<'a> = Box<dyn FnOnce() -> Result<f64, Crash> + Send + 'a>;
    let jobs: Vec<Job> = vec![
        Box::new(|| fibo_share(&fibo[0])),
        Box::new(|| fibo_share(&fibo[1])),
        Box::new(|| core0(&ule[0])),
        Box::new(|| core0(&ule[1])),
        Box::new(|| spread(&cfs[0])),
        Box::new(|| spread(&cfs[1])),
        Box::new(|| rps(&apache[0])),
        Box::new(|| rps(&apache[1])),
    ];
    let r = crate::runner::par_map(cfg.threads, jobs, |job| job())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Ablations {
        cfs_fibo_share_cgroups_on: r[0],
        cfs_fibo_share_cgroups_off: r[1],
        ule_core0_with_balancer: r[2] as u32,
        ule_core0_with_bug: r[3] as u32,
        cfs_spread_pct125: r[4] as u32,
        cfs_spread_pct100: r[5] as u32,
        cfs_apache_rps_preempt: r[6],
        cfs_apache_rps_no_preempt: r[7],
    })
}

/// Render the ablation table.
pub fn report(a: &Ablations) -> String {
    let mut t = metrics::Table::new(&["ablation", "default", "ablated", "effect"]);
    t.push(&[
        "CFS cgroups (fibo share under sysbench)".into(),
        format!("{:.0}%", a.cfs_fibo_share_cgroups_on * 100.0),
        format!("{:.0}%", a.cfs_fibo_share_cgroups_off * 100.0),
        "per-app → per-thread fairness (§2.1)".into(),
    ]);
    t.push(&[
        "ULE periodic balancer (threads left on core0)".into(),
        format!("{}", a.ule_core0_with_balancer),
        format!("{}", a.ule_core0_with_bug),
        "stock FreeBSD bug [1]: only idle steals drain the pile".into(),
    ]);
    t.push(&[
        "CFS NUMA tolerance (final spread)".into(),
        format!("{}", a.cfs_spread_pct125),
        format!("{}", a.cfs_spread_pct100),
        "25% rule is why CFS stays imperfect (§6.1)".into(),
    ]);
    t.push(&[
        "CFS wakeup preemption (apache req/s)".into(),
        format!("{:.0}", a.cfs_apache_rps_preempt),
        format!("{:.0}", a.cfs_apache_rps_no_preempt),
        "preempting ab costs throughput (§5.3)".into(),
    ]);
    let mut s = String::from("Ablations — design choices switched off one at a time\n");
    s.push_str(&t.render());
    s
}

/// Shape checks for the ablations.
pub fn validate(a: &Ablations) -> Vec<String> {
    let mut bad = Vec::new();
    if !(a.cfs_fibo_share_cgroups_on > 2.0 * a.cfs_fibo_share_cgroups_off) {
        bad.push(format!(
            "cgroups should protect fibo: {:.2} vs {:.2}",
            a.cfs_fibo_share_cgroups_on, a.cfs_fibo_share_cgroups_off
        ));
    }
    if a.ule_core0_with_bug <= a.ule_core0_with_balancer + 10 {
        bad.push(format!(
            "the balancer bug should leave the pile: {} vs {}",
            a.ule_core0_with_bug, a.ule_core0_with_balancer
        ));
    }
    if a.cfs_spread_pct100 > a.cfs_spread_pct125 {
        bad.push(format!(
            "removing the tolerance should not worsen the spread: {} vs {}",
            a.cfs_spread_pct100, a.cfs_spread_pct125
        ));
    }
    if !(a.cfs_apache_rps_no_preempt > a.cfs_apache_rps_preempt * 1.05) {
        bad.push(format!(
            "disabling wakeup preemption should speed apache up: {:.0} vs {:.0}",
            a.cfs_apache_rps_no_preempt, a.cfs_apache_rps_preempt
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash;

    /// A failing ablated variant's crash carries a case file with its
    /// table, and `battle run` on that file fails the same way.
    #[test]
    fn failing_variant_writes_a_file_that_replays_its_table() {
        let cfg = RunCfg::at_scale(0.02);
        let [.., [_, mut sc]] = scenarios();
        // Every task of the app spawns at 0 s: two events at one instant
        // already count as a stall.
        sc.budget.stall_events = Some(2);
        let Err(c) = try_run_case(&sc, Sched::Cfs, &cfg, &mut ()) else {
            panic!("a tripped watchdog must fail the run");
        };
        assert_eq!(c.label, "ablation-apache-no-wakeup-preemption-CFS");
        let [(file, json), (bundle, _)] = &c.files()[..] else {
            panic!("a failed variant leaves its case file and its bundle");
        };
        assert_eq!(file, &crash::path(&c.label, "json"));
        assert_eq!(bundle, &crash::path(&c.label, "txt"));
        let json = json.as_ref().unwrap();
        assert!(json.contains("\"wakeup_preemption\": false"), "{json}");
        let replayed = Scenario::from_json(json).unwrap();
        assert_eq!(
            replayed.class_params(Sched::Cfs),
            sc.class_params(Sched::Cfs)
        );
        let out = scenario::run_sched(&replayed, Sched::Cfs, &cfg.engine_opts()).unwrap();
        assert_eq!(out.run.abort.as_ref(), Some(&c.error));
    }

    /// The eight ablation runs and desktop's two fibo runs leave ten
    /// distinct crash labels.
    #[test]
    fn every_run_has_its_own_label() {
        let ablations = scenarios().into_iter().flatten();
        let mut labels: Vec<String> = ablations
            .map(|sc| {
                assert_eq!(sc.scheds.len(), 1, "{}", sc.name);
                crash::case_label(&sc, sc.scheds[0])
            })
            .collect();
        let fibo = figure_scenario(crate::desktop::FIBO);
        labels.extend(Sched::BOTH.map(|s| crash::case_label(&fibo, s)));
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 10, "{labels:?}");
    }
}
