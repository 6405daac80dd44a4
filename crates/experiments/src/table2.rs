//! Table 2: execution time of fibo, sysbench throughput and latency under
//! CFS and ULE.
//!
//! Paper values: fibo 160s/158s; sysbench 290 vs 532 tx/s; average latency
//! 441ms vs 125ms. Absolute numbers differ on the simulated machine; the
//! shape to reproduce is sysbench ≈2× faster and ≈3× lower latency on ULE
//! with fibo's total runtime nearly unchanged.

use metrics::Table;

use crate::fig1::Fig1;
use crate::{fig1, Crash, RunCfg};

/// Run the underlying Figure 1 experiment on both schedulers.
pub fn run(cfg: &RunCfg) -> Result<Fig1, Crash> {
    fig1::run_both(cfg)
}

/// Build the table.
pub fn table(fig: &Fig1) -> Table {
    let mut t = Table::new(&["", "CFS", "ULE"]);
    t.push(&[
        "Fibo - Runtime".into(),
        format!("{:.1}s", fig.cfs.fibo_runtime_total_s),
        format!("{:.1}s", fig.ule.fibo_runtime_total_s),
    ]);
    t.push(&[
        "Sysbench - Transactions/s".into(),
        format!("{:.0}", fig.cfs.sysbench_tx_per_s),
        format!("{:.0}", fig.ule.sysbench_tx_per_s),
    ]);
    t.push(&[
        "Sysbench - Avg. latency".into(),
        format!("{:.0}ms", fig.cfs.sysbench_avg_latency_ms),
        format!("{:.0}ms", fig.ule.sysbench_avg_latency_ms),
    ]);
    t
}

/// Render the table with the paper's reference values alongside.
pub fn report(fig: &Fig1) -> String {
    let mut s = String::from("Table 2 — fibo & sysbench under CFS and ULE\n");
    s.push_str(&table(fig).render());
    s.push_str("(paper: 160s/158s, 290/532 tx/s, 441ms/125ms)\n");
    s
}
