//! # detkit
//!
//! Deterministic toolkit backing the unisem workspace's hermetic,
//! zero-dependency build policy (see DESIGN.md §"Hermetic builds").
//!
//! Two modules, each a drop-in replacement for a crates-io dependency
//! the build environment cannot resolve offline:
//!
//! - [`rng`] — a seedable SplitMix64/xoshiro256** PRNG (replaces `rand`).
//! - [`prop`] — a property-testing harness with generators, deterministic
//!   per-test seed derivation, linear shrinking, and stored-seed
//!   regression replay (replaces `proptest`).
//!
//! Everything here is reproducible: the same seed always yields the same
//! random stream and the same test name always replays the same cases.

pub mod prop;
pub mod rng;

pub use rng::Rng;
