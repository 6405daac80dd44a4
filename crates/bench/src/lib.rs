//! Criterion micro-benchmark harness.
//!
//! One suite, `scheduler_micro`: micro-benchmarks of the scheduler hot
//! paths (enqueue/pick/put, placement scans, balancing passes) and of the
//! simulation substrate (event queue, tick and run lanes, kernel dispatch
//! of behaviour actions and sync hand-offs, PELT math, interactivity
//! scoring, SchedSan sweeps). Run it with
//! `cargo bench -p bench --bench scheduler_micro`, or pass a name filter
//! (`... -- runqueue_depth`) to run only the benches whose name contains
//! it. Each bench prints the median and IQR of ten timed windows.
//!
//! End-to-end simulator speed is measured by `simbench/` (declared in
//! `BENCHMARK.json`), and the paper's tables and figures are regenerated
//! by the `battle` binary (`cargo run --release -p experiments --bin
//! battle -- all`).
