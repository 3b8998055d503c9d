//! # unisem-relstore
//!
//! A columnar mini relational engine: the structured-data substrate of the
//! unisem system and the execution target of both the SQL front-end and the
//! semantic operator synthesis pipeline (§III.C of the paper).
//!
//! Layered like a classic query engine:
//!
//! - [`value`] / [`schema`] / [`table`]: the storage model — typed values,
//!   named columns, columnar tables.
//! - [`expr`]: scalar expression AST, binder (names → column indices, once
//!   per operator) and evaluator over cells read in place.
//! - [`plan`]: logical plans (scan/filter/project/join/aggregate/sort/limit).
//! - [`optimize`]: rule-based logical rewrites (predicate merge/pushdown,
//!   constant folding).
//! - [`exec`]: the physical executor (hash join, hash aggregate, stable
//!   sort); borrows base tables and copies only the rows it returns.
//! - [`sql`]: a SQL subset front-end (lexer → parser → lowering).
//! - [`catalog`]: the [`catalog::Database`] catalog tying it together, with
//!   `run_sql`.
//!
//! The engine is intentionally single-node and in-memory: the paper's
//! contribution is the integration layer above it, and experiments need
//! determinism more than scale.

pub mod catalog;
pub mod error;
pub mod exec;
pub mod expr;
pub mod optimize;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use catalog::Database;
pub use error::{RelError, RelResult};
pub use exec::{ExecLimits, ExecStats};
pub use expr::Expr;
pub use plan::{AggExpr, AggFunc, JoinType, LogicalPlan, SortKey};
pub use schema::{Column, DataType, Schema};
pub use table::{CheckedRow, Table};
pub use value::{Date, Value};
