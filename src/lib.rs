//! # The Battle of the Schedulers — FreeBSD ULE vs. Linux CFS, in Rust
//!
//! A reproduction of Bouron et al., *"The Battle of the Schedulers: FreeBSD
//! ULE vs. Linux CFS"* (USENIX ATC 2018), built as a deterministic
//! discrete-event multicore simulator with faithful implementations of both
//! schedulers behind the same scheduling-class interface (the paper's
//! Table 1).
//!
//! This crate is the umbrella: it re-exports every workspace crate.
//! Start with [`battle_core`] for the high-level API, [`experiments`] for
//! the figure/table drivers, and the `battle` binary to regenerate the
//! paper's results:
//!
//! ```text
//! cargo run --release -p experiments --bin battle -- all --scale 0.3
//! ```

pub use battle_core;
pub use cfs;
pub use experiments;
pub use kernel;
pub use metrics;
pub use sched_api;
pub use simcore;
pub use topology;
pub use ule;
pub use workloads;

pub use battle_core::{Machine, Sched, Simulation};
