//! # unisem-relstore
//!
//! A columnar mini relational engine: the structured-data substrate of the
//! unisem system and the execution target of semantic operator synthesis
//! (§III.C of the paper). It runs the [`LogicalPlan`]s that
//! `unisem-semops` builds, exactly as built: there is no SQL text
//! interface and no rewrite pass.
//!
//! Layered like a classic query engine:
//!
//! - [`value`] / [`schema`] / [`table`]: the storage model — typed values,
//!   named columns, columnar tables.
//! - [`expr`]: scalar expression AST (columns, literals, comparisons,
//!   `AND`/`OR`, `LIKE`), binder (names → the columns' cells, once
//!   per operator) and the one evaluator, which gives a filter a row's
//!   three-valued truth and other operators a row's value.
//! - [`plan`]: logical plans (scan/filter/join/aggregate/sort/limit).
//! - [`index`]: the per-column value index kept beside each base table —
//!   distinct and NULL counts for the planner, and for string columns the
//!   case-folded values' row ids, which a filter probes instead of
//!   scanning.
//! - `exec`: the physical executor (index probe, hash join, hash
//!   aggregate, stable sort); borrows base tables and copies only the rows
//!   it returns.
//! - [`catalog`]: the [`catalog::Database`] catalog tying it together, with
//!   `run_plan` and `run_plan_with_limits_stats`.
//!
//! The engine is intentionally single-node and in-memory: the paper's
//! contribution is the integration layer above it, and experiments need
//! determinism more than scale.

// Panic-free on untrusted input (DESIGN.md §8, §10).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod catalog;
pub mod error;
mod exec;
pub mod expr;
pub mod index;
pub mod plan;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::Database;
pub use error::{RelError, RelResult};
pub use exec::{ExecLimits, ExecStats};
pub use expr::Expr;
pub use index::{Probe, TableIndex};
pub use plan::{AggExpr, AggFunc, LogicalPlan, SortKey};
pub use schema::{Column, DataType, Schema};
pub use table::{CheckedRow, Table};
pub use value::{Date, Value};
