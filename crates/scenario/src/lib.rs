//! Declarative scheduling scenarios.
//!
//! This crate turns a workload × topology × fault-plan × assertion
//! combination into *data*: a TOML (or JSON) file parsed into a
//! [`spec::Scenario`] and executed by [`engine::run_sched`] on any
//! registered scheduler. The `battle run` subcommand is the CLI front-end;
//! `scenarios/` in the repo root is the library of figure workloads and
//! stress scenarios the golden-digest CI gate pins. The figure drivers run
//! every workload through [`engine::run_observed`]: `experiments::fig1`,
//! `fig6` and `fig7` their scenario files, adding only their sampling, and
//! fig5, fig8, fig9 and the desktop check generated suite cells
//! (`experiments::suite_case`).
//!
//! Layering:
//!
//! | Module       | Role |
//! |--------------|------|
//! | [`toml`]     | minimal TOML → [`serde::Value`] parser (the vendored serde has no deserializer) |
//! | [`expr`]     | scale-aware time/count expressions (`{ base_s = 420, plus_s = 30 }`) |
//! | [`spec`]     | the typed scenario schema, with unknown-key rejection and field-path errors |
//! | [`workload`] | phase specs → kernel [`AppSpec`]s |
//! | [`engine`]   | build kernel, queue phases, drive the loop (with an [`Observer`]), evaluate assertions |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod expr;
pub mod spec;
pub mod toml;
pub mod workload;

use cfs::params::CfsParams;
use cfs::Cfs;
use eevdf::{Eevdf, EevdfParams};
use kernel::{CheckMode, FaultPlan, Kernel, SimConfig, SimpleRR};
use sched_api::params::{Dim, ParamSpace, ParamVector};
use sched_api::scx::{FifoPolicy, ScxSched, VtimeParams, VtimePolicy};
use topology::Topology;
use ule::params::UleParams;
use ule::Ule;

pub use engine::{
    failures, run_observed, run_sched, AbortKind, EngineCrash, EngineError, EngineOpts, Observer,
    RunOutput, ScenarioRun,
};
pub use spec::{BudgetSpec, Scenario, SpecError};

/// Which scheduler drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Deserialize)]
pub enum Sched {
    /// Linux CFS.
    Cfs,
    /// FreeBSD ULE (the paper's Linux port).
    Ule,
    /// EEVDF (Linux 6.6's CFS successor).
    Eevdf,
    /// The kernel crate's round-robin reference class.
    SimpleRr,
    /// sched_ext-style example policy: global-arrival FIFO.
    ScxFifo,
    /// sched_ext-style example policy: weight-scaled virtual time.
    ScxVtime,
}

impl Sched {
    /// The paper's two schedulers, CFS first. Figure reproductions and the
    /// default scenario sweep compare exactly these.
    pub const BOTH: [Sched; 2] = [Sched::Cfs, Sched::Ule];

    /// Every registered scheduler, in stable report order. Tournaments,
    /// differential fuzzing and the proptest suite iterate this.
    pub const ALL: [Sched; 6] = [
        Sched::Cfs,
        Sched::Ule,
        Sched::Eevdf,
        Sched::SimpleRr,
        Sched::ScxFifo,
        Sched::ScxVtime,
    ];

    /// The schedulers with a declared, non-empty [`param_dims`] space —
    /// what `battle tune` searches by default. SimpleRR and scx-fifo have
    /// no tunables (their whole point is having no policy state).
    pub const TUNABLE: [Sched; 4] = [Sched::Cfs, Sched::Ule, Sched::Eevdf, Sched::ScxVtime];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Sched::Cfs => "CFS",
            Sched::Ule => "ULE",
            Sched::Eevdf => "EEVDF",
            Sched::SimpleRr => "SimpleRR",
            Sched::ScxFifo => "scx_fifo",
            Sched::ScxVtime => "scx_vtime",
        }
    }

    /// Stable lowercase name used by CLI flags, TOML specs, JSON reports
    /// and golden-digest labels.
    pub fn flag_name(self) -> &'static str {
        match self {
            Sched::Cfs => "cfs",
            Sched::Ule => "ule",
            Sched::Eevdf => "eevdf",
            Sched::SimpleRr => "simple-rr",
            Sched::ScxFifo => "scx-fifo",
            Sched::ScxVtime => "scx-vtime",
        }
    }

    /// Inverse of [`Sched::flag_name`].
    pub fn parse_flag(s: &str) -> Option<Sched> {
        Sched::ALL.into_iter().find(|x| x.flag_name() == s)
    }
}

/// JSON reports carry the display name ("CFS", "scx_fifo", …), matching
/// the bench/latency artifacts that predate this enum growing variants.
impl serde::Serialize for Sched {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(String::from(self.name()))
    }
}

/// Build the scheduling class `sched` for `topo` (the single registry every
/// front-end — scenarios, fuzzing, tournaments — constructs schedulers
/// through). `seed` only matters to classes with internal randomness (ULE's
/// balancer interval jitter).
pub fn make_class(topo: &Topology, sched: Sched, seed: u64) -> Box<dyn sched_api::Scheduler> {
    make_class_tuned(topo, sched, seed, None)
}

/// The tunable dimensions of `sched`'s parameter space (`battle tune`);
/// empty for schedulers without tunables.
pub fn param_dims(sched: Sched) -> Vec<Dim> {
    match sched {
        Sched::Cfs => CfsParams::dims(),
        Sched::Ule => UleParams::dims(),
        Sched::Eevdf => EevdfParams::dims(),
        Sched::ScxVtime => VtimeParams::dims(),
        Sched::SimpleRr | Sched::ScxFifo => Vec::new(),
    }
}

/// [`make_class`] with an optional parameter-vector override: `None` (or a
/// scheduler without tunables) builds the stock defaults, `Some(v)` decodes
/// `v` through the scheduler's [`ParamSpace`] (clamped to the declared
/// bounds). The single construction path for every tuned run.
pub fn make_class_tuned(
    topo: &Topology,
    sched: Sched,
    seed: u64,
    params: Option<&ParamVector>,
) -> Box<dyn sched_api::Scheduler> {
    match sched {
        Sched::Cfs => Box::new(Cfs::with_params(
            topo,
            params.map(CfsParams::from_vector).unwrap_or_default(),
        )),
        Sched::Ule => Box::new(Ule::with_params(
            topo,
            params.map(UleParams::from_vector).unwrap_or_default(),
            seed,
        )),
        Sched::Eevdf => Box::new(Eevdf::with_params(
            topo,
            params.map(EevdfParams::from_vector).unwrap_or_default(),
        )),
        Sched::SimpleRr => Box::new(SimpleRR::new(topo)),
        Sched::ScxFifo => Box::new(ScxSched::new(FifoPolicy, topo.nr_cpus())),
        Sched::ScxVtime => Box::new(ScxSched::new(
            VtimePolicy::with_params(params.map(VtimeParams::from_vector).unwrap_or_default()),
            topo.nr_cpus(),
        )),
    }
}

/// Build a kernel for `topo` driven by `sched`, with an explicit check
/// mode and fault plan.
///
/// The fault plan must be in the [`SimConfig`] before construction: the
/// kernel forks its fault RNG from the seed at `Kernel::new` time.
pub fn make_kernel(
    topo: &Topology,
    sched: Sched,
    seed: u64,
    check: CheckMode,
    faults: FaultPlan,
) -> Kernel {
    make_kernel_tuned(topo, sched, seed, check, faults, None)
}

/// [`make_kernel`] with an optional scheduler parameter-vector override
/// (see [`make_class_tuned`]).
pub fn make_kernel_tuned(
    topo: &Topology,
    sched: Sched,
    seed: u64,
    check: CheckMode,
    faults: FaultPlan,
    params: Option<&ParamVector>,
) -> Kernel {
    make_kernel_with_class(
        topo,
        make_class_tuned(topo, sched, seed, params),
        seed,
        check,
        faults,
    )
}

/// Build a kernel for `topo` around a ready scheduling class (drivers that
/// hand-tune a class's typed parameters, like the ablations). The one
/// place that applies a check mode: strict checking also keeps a
/// 256-event flight-recorder tail so a crash bundle has context.
pub fn make_kernel_with_class(
    topo: &Topology,
    class: Box<dyn sched_api::Scheduler>,
    seed: u64,
    check: CheckMode,
    faults: FaultPlan,
) -> Kernel {
    let mut cfg = SimConfig::with_seed(seed);
    cfg.check = check;
    cfg.faults = faults;
    if cfg.check == CheckMode::Strict {
        cfg.trace_capacity = cfg.trace_capacity.max(256);
    }
    Kernel::new(topo.clone(), cfg, class)
}
