//! Schemas: named, typed columns.

use std::fmt;

use crate::error::{RelError, RelResult};
use crate::value::Value;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Calendar date.
    Date,
}

impl DataType {
    /// Whether `value` is admissible in a column of this type.
    ///
    /// NULL is admissible everywhere; ints are admissible in float columns
    /// (widening).
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_) | Value::Int(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Date, Value::Date(_))
        )
    }

    /// The most specific type admitting a value (`None` for NULL).
    pub fn of(value: &Value) -> Option<DataType> {
        match value {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// The narrowest common supertype of two types, if any.
    ///
    /// Int and Float unify to Float; everything else must match exactly.
    pub fn unify(a: DataType, b: DataType) -> Option<DataType> {
        if a == b {
            return Some(a);
        }
        match (a, b) {
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                Some(DataType::Float)
            }
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Date => "DATE",
        };
        write!(f, "{s}")
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (matched case-insensitively, see [`Schema::index_of`]).
    pub name: String,
    /// Data type.
    pub dtype: DataType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self { name: name.into(), dtype }
    }
}

/// True when two column names are equal ignoring case: `to_lowercase`
/// equality, with a byte-wise fast path when both names are ASCII. This is
/// the relation [`Schema::index_of`] resolves names by.
pub fn same_name(a: &str, b: &str) -> bool {
    if a.is_ascii() && b.is_ascii() {
        a.eq_ignore_ascii_case(b)
    } else {
        a.to_lowercase() == b.to_lowercase()
    }
}

/// An ordered set of uniquely named columns. Tables are a handful of
/// columns wide and operators resolve names once when they bind, so name
/// lookup is a scan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema; duplicate names (case-insensitive) are an error.
    pub fn new(columns: Vec<Column>) -> RelResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|earlier| same_name(&earlier.name, &c.name)) {
                return Err(RelError::Conflict(format!("duplicate column name: {}", c.name)));
            }
        }
        Ok(Self { columns })
    }

    /// Builds a schema from `(name, type)` pairs; panics on duplicates.
    ///
    /// Intended for tests and embedded literals where duplicates are bugs.
    pub fn of(pairs: &[(&str, DataType)]) -> Self {
        match Self::new(pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect()) {
            Ok(s) => s,
            #[expect(clippy::panic, reason = "literal convenience; Schema::new is fallible")]
            Err(e) => panic!("Schema::of: {e}"),
        }
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Case-insensitive index lookup.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| same_name(&c.name, name))
    }

    /// Like [`Self::index_of`] but returns an error naming the column.
    pub fn require(&self, name: &str) -> RelResult<usize> {
        self.index_of(name).ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Concatenates two schemas (for joins), disambiguating duplicate names
    /// by prefixing `right.` on the right side until the name is unique
    /// (so a right column literally named `right.x` cannot collide).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut joined = self.clone();
        for c in right.columns() {
            let mut name = c.name.clone();
            while joined.index_of(&name).is_some() {
                name = format!("right.{name}");
            }
            joined.columns.push(Column::new(name, c.dtype));
        }
        joined
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> =
            self.columns.iter().map(|c| format!("{} {}", c.name, c.dtype)).collect();
        write!(f, "({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;

    #[test]
    fn admits_matrix() {
        assert!(DataType::Int.admits(&Value::Int(1)));
        assert!(DataType::Float.admits(&Value::Int(1)));
        assert!(!DataType::Int.admits(&Value::Float(1.0)));
        assert!(DataType::Str.admits(&Value::Null));
        assert!(!DataType::Date.admits(&Value::str("2024-01-01")));
        assert!(DataType::Date.admits(&Value::Date(Date::new(2024, 1, 1).unwrap())));
    }

    #[test]
    fn unify_rules() {
        assert_eq!(DataType::unify(DataType::Int, DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::unify(DataType::Str, DataType::Str), Some(DataType::Str));
        assert_eq!(DataType::unify(DataType::Str, DataType::Int), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![Column::new("a", DataType::Int), Column::new("A", DataType::Str)]);
        assert!(matches!(r, Err(RelError::Conflict(_))));
    }

    #[test]
    fn case_insensitive_lookup() {
        let s = Schema::of(&[("Sales", DataType::Float), ("quarter", DataType::Str)]);
        assert_eq!(s.index_of("sales"), Some(0));
        assert_eq!(s.index_of("QUARTER"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.require("missing").is_err());
    }

    #[test]
    fn join_disambiguates() {
        let l = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]);
        let r = Schema::of(&[("id", DataType::Int), ("price", DataType::Float)]);
        let j = l.join(&r);
        assert_eq!(j.arity(), 4);
        assert!(j.index_of("right.id").is_some());
        assert!(j.index_of("price").is_some());
    }

    #[test]
    fn display() {
        let s = Schema::of(&[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "(a INT)");
    }
}
