//! The benchmark's fixed inputs: one corpus scenario per workload, at a
//! fixed scale and SchedSan mode. The scenario text is compiled in, so a run
//! reads no files and the parse it times is the parse alone.

use kernel::CheckMode;

/// One benchmark workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Scenario source, in the corpus's TOML form.
    pub toml: &'static str,
    /// Work-volume scale the scenario's expressions are evaluated at.
    pub scale: f64,
    /// SchedSan mode of every run.
    pub check: CheckMode,
}

/// Every workload, in report order. Why each was chosen is in `README.md`.
pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "interactive-1c",
        toml: include_str!("../../scenarios/fig1.toml"),
        scale: 0.25,
        check: CheckMode::Off,
    },
    // herd-4096 fails its own `wakeups >= 1000` assertion under CFS from
    // scale 0.5 up; 0.3 is the largest round scale at which all six pass.
    Workload {
        name: "herd-256",
        toml: include_str!("../../scenarios/herd-4096.toml"),
        scale: 0.3,
        check: CheckMode::Off,
    },
    Workload {
        name: "strict-8c",
        toml: include_str!("../../scenarios/numa-imbalance.toml"),
        scale: 0.25,
        check: CheckMode::Strict,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
