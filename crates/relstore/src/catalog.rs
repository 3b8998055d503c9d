//! The database catalog: named tables plus the `run_sql` entry point.

use std::collections::BTreeMap;

use crate::error::{RelError, RelResult};
use crate::exec::{execute, execute_with_limits_stats, ExecLimits, ExecStats};
use crate::optimize::optimize;
use crate::plan::LogicalPlan;
use crate::sql;
use crate::table::Table;

/// An in-memory database: a catalog of named tables.
///
/// Table names are case-insensitive. Iteration order is alphabetical
/// (BTreeMap), keeping catalog dumps deterministic.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table; the name must be new.
    pub fn create_table(&mut self, name: &str, table: Table) -> RelResult<()> {
        let key = name.to_lowercase();
        if self.tables.contains_key(&key) {
            return Err(RelError::Conflict(format!("table already exists: {name}")));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Registers or replaces a table.
    pub fn create_or_replace_table(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_lowercase(), table);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.tables
            .get(&name.to_lowercase())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Looks up a table for in-place mutation (incremental ingest appends
    /// rows without replacing the table).
    pub fn table_mut(&mut self, name: &str) -> RelResult<&mut Table> {
        self.tables
            .get_mut(&name.to_lowercase())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
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

    /// Total approximate resident bytes across all tables.
    pub fn approx_bytes(&self) -> usize {
        self.tables.values().map(Table::approx_bytes).sum()
    }

    /// Executes a logical plan (after optimization).
    pub fn run_plan(&self, plan: &LogicalPlan) -> RelResult<Table> {
        let optimized = optimize(plan.clone());
        execute(&optimized, self)
    }

    /// Executes a logical plan (after optimization) under resource
    /// governors — a tripped governor surfaces as
    /// [`RelError::ResourceExhausted`] — and returns deterministic work
    /// counters ([`ExecStats`]), valid even when execution fails.
    pub fn run_plan_with_limits_stats(
        &self,
        plan: &LogicalPlan,
        limits: &ExecLimits,
    ) -> (RelResult<Table>, ExecStats) {
        let optimized = optimize(plan.clone());
        execute_with_limits_stats(&optimized, self, limits)
    }

    /// Parses, plans, optimizes, and executes a SQL query.
    ///
    /// ```
    /// use unisem_relstore::{Database, Schema, Table, DataType, Value};
    /// let mut db = Database::new();
    /// let t = Table::from_rows(
    ///     Schema::of(&[("x", DataType::Int)]),
    ///     vec![vec![Value::Int(1)], vec![Value::Int(5)]],
    /// ).unwrap();
    /// db.create_table("nums", t).unwrap();
    /// let out = db.run_sql("SELECT x FROM nums WHERE x > 2").unwrap();
    /// assert_eq!(out.num_rows(), 1);
    /// ```
    pub fn run_sql(&self, query: &str) -> RelResult<Table> {
        let plan = sql::plan_sql(query)?;
        self.run_plan(&plan)
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
    fn names_sorted() {
        let mut db = Database::new();
        db.create_table("zeta", nums()).unwrap();
        db.create_table("alpha", nums()).unwrap();
        assert_eq!(db.table_names(), vec!["alpha", "zeta"]);
    }
}
