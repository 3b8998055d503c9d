//! The database catalog: named tables, each with its value index, plus
//! the plan entry points.

use std::collections::BTreeMap;

use crate::error::{RelError, RelResult};
use crate::exec::{execute, ExecLimits, ExecStats};
use crate::index::TableIndex;
use crate::plan::LogicalPlan;
use crate::table::{CheckedRow, Table};

/// An in-memory database: a catalog of named tables, each kept with its
/// [`TableIndex`].
///
/// Table names are case-insensitive. Iteration order is alphabetical
/// (BTreeMap), keeping catalog dumps deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    tables: BTreeMap<String, (Table, TableIndex)>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table and indexes it; the name must be new.
    pub fn create_table(&mut self, name: &str, table: Table) -> RelResult<()> {
        let key = name.to_lowercase();
        if self.tables.contains_key(&key) {
            return Err(RelError::Conflict(format!("table already exists: {name}")));
        }
        self.create_or_replace_table(&key, table);
        Ok(())
    }

    /// Registers or replaces a table, and indexes it.
    pub fn create_or_replace_table(&mut self, name: &str, table: Table) {
        let index = TableIndex::build(&table);
        self.tables.insert(name.to_lowercase(), (table, index));
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.indexed(name).map(|(table, _)| table)
    }

    /// Looks up a table together with its value index.
    pub fn indexed(&self, name: &str) -> RelResult<(&Table, &TableIndex)> {
        self.tables
            .get(&name.to_lowercase())
            .map(|(table, index)| (table, index))
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Appends a row [`Table::check_row`] accepted for table `name` — the
    /// incremental-ingest path — and takes it into the table's index, in
    /// O(row). Returns the grown table.
    pub fn append(&mut self, name: &str, row: CheckedRow) -> RelResult<&Table> {
        let (table, index) = self
            .tables
            .get_mut(&name.to_lowercase())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))?;
        table.push_checked(row);
        index.insert(table, table.num_rows() - 1);
        Ok(table)
    }

    /// True when `name` is registered.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_lowercase())
    }

    /// All table names, alphabetical.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total approximate resident bytes across all tables and their
    /// indexes.
    pub fn approx_bytes(&self) -> usize {
        self.tables.values().map(|(table, index)| table.approx_bytes() + index.approx_bytes()).sum()
    }

    /// Executes a logical plan as built, with no resource bounds.
    ///
    /// ```
    /// use unisem_relstore::{Database, DataType, Expr, LogicalPlan, Schema, Table, Value};
    /// let mut db = Database::new();
    /// let t = Table::from_rows(
    ///     Schema::of(&[("x", DataType::Int)]),
    ///     vec![vec![Value::Int(1)], vec![Value::Int(5)]],
    /// ).unwrap();
    /// db.create_table("nums", t).unwrap();
    /// let plan = LogicalPlan::scan("nums").filter(Expr::col("x").gt(Expr::lit(2i64)));
    /// assert_eq!(db.run_plan(&plan).unwrap().num_rows(), 1);
    /// ```
    pub fn run_plan(&self, plan: &LogicalPlan) -> RelResult<Table> {
        execute(plan, self, &ExecLimits::default()).0
    }

    /// Executes a logical plan as built under resource governors — a
    /// tripped governor surfaces as [`RelError::ResourceExhausted`] — and
    /// returns deterministic work counters ([`ExecStats`]), valid even when
    /// execution fails.
    pub fn run_plan_with_limits_stats(
        &self,
        plan: &LogicalPlan,
        limits: &ExecLimits,
    ) -> (RelResult<Table>, ExecStats) {
        execute(plan, self, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn nums() -> Table {
        Table::from_rows(
            Schema::of(&[("x", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_table("T", nums()).unwrap();
        assert!(db.has_table("t"));
        assert!(db.table("T").is_ok());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut db = Database::new();
        db.create_table("t", nums()).unwrap();
        assert!(matches!(db.create_table("T", nums()), Err(RelError::Conflict(_))));
        db.create_or_replace_table("t", nums());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn appended_rows_are_indexed_as_a_rebuild_indexes_them() {
        let mut db = Database::new();
        db.create_table("t", nums()).unwrap();
        let row = db.table("t").unwrap().check_row(vec![Value::Int(2)]).unwrap();
        assert_eq!(db.append("T", row).unwrap().num_rows(), 3);
        let mut rebuilt = Database::new();
        let all = vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(2)]];
        rebuilt.create_table("t", Table::from_rows(nums().schema().clone(), all).unwrap()).unwrap();
        assert_eq!(db, rebuilt);
        assert_eq!(db.indexed("t").unwrap().1.distinct(0), 2);
        let row = db.table("t").unwrap().check_row(vec![Value::Int(3)]).unwrap();
        assert!(matches!(db.append("nope", row), Err(RelError::UnknownTable(_))));
    }

    #[test]
    fn names_sorted() {
        let mut db = Database::new();
        db.create_table("zeta", nums()).unwrap();
        db.create_table("alpha", nums()).unwrap();
        assert_eq!(db.table_names(), vec!["alpha", "zeta"]);
    }
}
