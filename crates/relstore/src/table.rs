//! Columnar tables.
//!
//! Storage is column-major (`Vec<Value>` per column): scans and aggregates
//! touch only the columns they need, per the usual analytical-engine layout.
//! Row views are materialized on demand.

use std::fmt;

use crate::error::{RelError, RelResult};
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// A row that passed [`Table::check_row`]: right arity, admitted types,
/// ints already widened for float columns.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedRow(Vec<Value>);

/// A columnar table: a schema plus one value vector per column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    /// Explicit row count: zero-column relations (legal in the algebra)
    /// still have cardinality.
    rows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.arity()];
        Self { schema, columns, rows: 0 }
    }

    /// Creates a table from rows, validating types against the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> RelResult<Self> {
        let mut t = Self::empty(schema);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.schema.arity()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Validates `row` against the schema (arity and column types) and
    /// widens ints in float columns — everything that can fail about
    /// appending it, without touching the table.
    pub fn check_row(&self, row: Vec<Value>) -> RelResult<CheckedRow> {
        if row.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                found: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            let dtype = self.schema.column(i).dtype;
            if !dtype.admits(v) {
                return Err(RelError::TypeMismatch {
                    expected: self.schema.column(i).name_type(),
                    found: format!("{} in column {}", v.type_name(), self.schema.column(i).name),
                });
            }
        }
        let widened = row
            .into_iter()
            .enumerate()
            .map(|(i, v)| match (self.schema.column(i).dtype, v) {
                (DataType::Float, Value::Int(x)) => Value::Float(x as f64),
                (_, v) => v,
            })
            .collect();
        Ok(CheckedRow(widened))
    }

    /// Appends a row [`Self::check_row`] accepted for this table's schema;
    /// cannot fail.
    pub fn push_checked(&mut self, row: CheckedRow) {
        assert_eq!(row.0.len(), self.columns.len(), "row was checked against another schema");
        for (column, v) in self.columns.iter_mut().zip(row.0) {
            column.push(v);
        }
        self.rows += 1;
    }

    /// Appends a row, validating arity and column types.
    ///
    /// Ints are silently widened in float columns.
    pub fn push_row(&mut self, row: Vec<Value>) -> RelResult<()> {
        let row = self.check_row(row)?;
        self.push_checked(row);
        Ok(())
    }

    /// Borrowed view of a column by index.
    pub fn column(&self, idx: usize) -> &[Value] {
        &self.columns[idx]
    }

    /// Materializes row `idx` as an owned vector.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[idx].clone()).collect()
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Iterates rows as owned vectors.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows()).map(move |i| self.row(i))
    }

    /// Builds a new table containing only the rows at `indices` (in order).
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns =
            self.columns.iter().map(|c| indices.iter().map(|&i| c[i].clone()).collect()).collect();
        Table { schema: self.schema.clone(), columns, rows: indices.len() }
    }

    /// Approximate resident bytes (for the E2 storage experiment).
    pub fn approx_bytes(&self) -> usize {
        let cell = |v: &Value| match v {
            Value::Str(s) => std::mem::size_of::<Value>() + s.len(),
            _ => std::mem::size_of::<Value>(),
        };
        self.columns.iter().flat_map(|c| c.iter()).map(cell).sum()
    }

    /// Renders the table in a fixed-width ASCII grid, capped at `max_rows`.
    pub fn render(&self, max_rows: usize) -> String {
        let headers: Vec<String> = self.schema.columns().iter().map(|c| c.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let shown = self.num_rows().min(max_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            let row: Vec<String> =
                (0..self.num_columns()).map(|j| self.cell(i, j).to_string()).collect();
            for (j, c) in row.iter().enumerate() {
                widths[j] = widths[j].max(c.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        if self.num_rows() > shown {
            out.push_str(&format!("({} more rows)\n", self.num_rows() - shown));
        }
        out
    }
}

impl crate::schema::Column {
    /// Static type name for error messages.
    pub(crate) fn name_type(&self) -> &'static str {
        match self.dtype {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn sample() -> Table {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("price", DataType::Float),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::str("widget"), Value::Float(9.5)],
                vec![Value::Int(2), Value::str("gadget"), Value::Float(12.0)],
                vec![Value::Int(3), Value::str("gizmo"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        let r = t.push_row(vec![Value::Int(4)]);
        assert!(matches!(r, Err(RelError::ArityMismatch { .. })));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = sample();
        let r = t.push_row(vec![Value::str("x"), Value::str("y"), Value::Null]);
        assert!(matches!(r, Err(RelError::TypeMismatch { .. })));
    }

    #[test]
    fn int_widens_in_float_column() {
        let mut t = sample();
        t.push_row(vec![Value::Int(4), Value::str("thing"), Value::Int(7)]).unwrap();
        assert_eq!(t.cell(3, 2), &Value::Float(7.0));
    }

    #[test]
    fn null_allowed_anywhere() {
        let mut t = sample();
        t.push_row(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.num_rows(), 4);
    }

    #[test]
    fn row_and_cell_access() {
        let t = sample();
        assert_eq!(t.row(1), vec![Value::Int(2), Value::str("gadget"), Value::Float(12.0)]);
        assert_eq!(t.cell(0, 1), &Value::str("widget"));
    }

    #[test]
    fn take_reorders() {
        let t = sample();
        let t2 = t.take(&[2, 0]);
        assert_eq!(t2.num_rows(), 2);
        assert_eq!(t2.cell(0, 1), &Value::str("gizmo"));
        assert_eq!(t2.cell(1, 1), &Value::str("widget"));
    }

    #[test]
    fn render_contains_headers_and_values() {
        let t = sample();
        let s = t.render(10);
        assert!(s.contains("name"));
        assert!(s.contains("widget"));
        assert!(s.contains("NULL"));
    }

    #[test]
    fn render_caps_rows() {
        let t = sample();
        let s = t.render(1);
        assert!(s.contains("(2 more rows)"));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(Schema::of(&[("a", DataType::Int)]));
        assert!(t.is_empty());
        assert_eq!(t.rows().count(), 0);
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let small = Table::from_rows(
            Schema::new(vec![Column::new("s", DataType::Str)]).unwrap(),
            vec![vec![Value::str("ab")]],
        )
        .unwrap();
        let big = Table::from_rows(
            Schema::new(vec![Column::new("s", DataType::Str)]).unwrap(),
            vec![vec![Value::str("a much longer string value here")]],
        )
        .unwrap();
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
