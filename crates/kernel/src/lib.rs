//! The simulated operating-system kernel.
//!
//! This crate is the substrate the paper's methodology requires: a kernel
//! core that is *identical under both schedulers*, so that all observed
//! performance differences are attributable to the scheduling class alone
//! (the role played by the authors' modified Linux 4.9).
//!
//! See [`kernel::Kernel`] for the event loop and execution model,
//! [`behavior`] for the thread-program DSL workloads are written in,
//! [`sync`] for the blocking primitives, and [`simple::SimpleRR`] for a
//! minimal reference scheduling class.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod check;
pub mod config;
pub mod error;
pub mod fault;
pub mod guard;
pub mod kernel;
pub mod simple;
pub mod stats;
pub mod sync;
pub mod ticks;
pub mod trace;

pub use behavior::{
    cpu_hog, from_fn, spinner, Action, BarrierId, Behavior, Ctx, FnBehavior, MutexId, PoolId,
    QueueId, Script, SemId, ThreadSpec,
};
pub use config::{CheckMode, SimConfig};
pub use error::{BudgetKind, SimError};
pub use fault::FaultPlan;
pub use guard::{CancelToken, RunBudget};
pub use kernel::{AppId, AppSpec, Kernel};
pub use simple::SimpleRR;
pub use stats::{AppStats, Counters, CpuStats};
pub use sync::BlockedOn;
pub use trace::{TraceEvent, TraceSink};
