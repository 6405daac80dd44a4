//! Discrete-event simulation substrate.
//!
//! This crate provides the building blocks shared by every other crate in the
//! workspace: a simulated nanosecond clock ([`Time`], [`Dur`]), an event queue
//! on a binary min-heap with O(log n) push and pop, beside an O(1) FIFO for
//! events due now ([`EventQueue`]), a fully
//! deterministic pseudo-random number generator
//! ([`SimRng`]), and small tracing/hashing helpers used by the determinism
//! tests.
//!
//! Nothing in this crate knows about scheduling; it is a generic simulation
//! core kept deliberately small and heavily tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod hash;
pub mod rng;
pub mod time;
pub mod trace;

pub use events::EventQueue;
pub use hash::Fnv1a;
pub use rng::SimRng;
pub use time::{Dur, Time};
pub use trace::TraceBuffer;
