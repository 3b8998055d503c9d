//! # unisem-semops
//!
//! **Semantic Operator Synthesis** (§III.C task 2 of the paper): "the
//! translation of natural language queries into executable operations …
//! aggregations (e.g., SUM for calculating the total sales) and filtering
//! operations … Operations like SQL joins can also be synthesized".
//!
//! Three layers:
//!
//! - [`intent`]: the structured [`intent::QueryIntent`] a natural-language
//!   question is parsed into,
//! - [`parse`]: SLM-assisted question analysis (entity tagging + pattern
//!   rules) producing intents,
//! - [`synthesize`]: binding an intent to an actual table schema (fuzzy
//!   column resolution with a synonym map) and emitting a
//!   [`unisem_relstore::LogicalPlan`], including joins when the answer
//!   spans two tables.

pub mod intent;
pub mod parse;
pub mod synthesize;

pub use intent::{CmpOp, FilterIntent, QueryIntent, SortIntent};
pub use parse::IntentParser;
pub use synthesize::{OperatorSynthesizer, SynthesisError};
