//! Unified cost-based query planner (DESIGN.md §11).
//!
//! The planner splits query resolution into a **logical** algebra
//! ([`logical::LogicalNode`]) spanning every substrate — relational,
//! semi-structured, document, graph — with the SLM semantic operators as
//! first-class nodes; a deterministic, integer-only **cost model**
//! ([`cost::CostModel`]) that reads the totals each substrate maintains;
//! catalog **pruning**
//! ([`prune::prune_reason`]), which passes over a relational candidate its
//! table's value index proves empty; and the **explain** walk
//! ([`physical::explain`]) that renders the tree the executor ran, each
//! operator with its estimated cost and the actual outcome recorded on it.
//!
//! `UnifiedEngine::answer` synthesizes and executes these plans: it is
//! the only answer path. The answers of the degradation ladder it
//! replaced are frozen in `tests/golden/*_answers*.txt`
//! (`tests/tests/planner_golden.rs`).

pub mod cost;
pub mod logical;
pub mod physical;
pub mod prune;

pub use cost::{Cost, CostModel, RelEstimate};
pub use logical::{CandidatePlan, LogicalNode};
pub use prune::{has_signal, prune_reason};
