//! Error types for the relational engine.

use std::fmt;

/// Result alias for relstore operations.
pub type RelResult<T> = Result<T, RelError>;

/// Errors produced by the relational engine.
#[derive(Debug, Clone, PartialEq)]
pub enum RelError {
    /// Referenced column does not exist in the schema.
    UnknownColumn(String),
    /// Referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A value had the wrong type for an operation.
    TypeMismatch { expected: &'static str, found: String },
    /// Row arity differs from schema arity.
    ArityMismatch { expected: usize, found: usize },
    /// Plan construction or execution failed.
    Plan(String),
    /// Two tables/columns conflicted (e.g. duplicate name on create).
    Conflict(String),
    /// A deterministic resource governor tripped: the plan would exceed
    /// `limit` units of `what` (e.g. join output rows). Callers treat this
    /// as a downgrade signal, not a bug.
    ResourceExhausted { what: &'static str, limit: usize },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            RelError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            RelError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected} values, found {found}")
            }
            RelError::Plan(msg) => write!(f, "plan error: {msg}"),
            RelError::Conflict(msg) => write!(f, "conflict: {msg}"),
            RelError::ResourceExhausted { what, limit } => {
                write!(f, "resource exhausted: {what} would exceed limit {limit}")
            }
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(RelError::UnknownColumn("x".into()).to_string().contains("x"));
        assert!(RelError::Plan("bad join".into()).to_string().contains("bad join"));
        let e = RelError::TypeMismatch { expected: "int", found: "str".into() };
        assert!(e.to_string().contains("int") && e.to_string().contains("str"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RelError::UnknownTable("t".into()));
    }
}
