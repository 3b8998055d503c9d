//! Logical query plans.
//!
//! A [`LogicalPlan`] is a tree of relational operators built by the
//! semantic operator synthesis pipeline in `unisem-semops` — the paper's
//! §III.C maps natural language onto exactly these operators ("aggregations
//! (e.g., SUM …), filtering operations …, SQL joins") — and executed as
//! built by [`crate::Database::run_plan`].

use std::fmt;

use crate::expr::Expr;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`COUNT(*)` when the expression is a literal).
    Count,
    /// Sum of numeric values (NULLs skipped).
    Sum,
    /// Arithmetic mean (NULLs skipped).
    Avg,
    /// Minimum by SQL comparison (NULLs skipped).
    Min,
    /// Maximum by SQL comparison (NULLs skipped).
    Max,
}

impl AggFunc {
    /// SQL keyword.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate in an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input expression (ignored for `COUNT(*)`, conventionally a literal).
    pub input: Expr,
    /// Output column name.
    pub output_name: String,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Sort expression (usually a column).
    pub expr: Expr,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

/// A logical relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a named base table from the catalog.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows where `predicate` evaluates to TRUE.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Filter predicate (NULL counts as false).
        predicate: Expr,
    },
    /// Inner equi-join of two inputs.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Pairs of `(left column, right column)` equality conditions.
        on: Vec<(String, String)>,
    },
    /// Group and aggregate.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions with output names (empty = global aggregate).
        group_by: Vec<(Expr, String)>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Sort rows.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
}

impl LogicalPlan {
    /// Scan constructor.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan { table: table.into() }
    }

    /// Adds a filter above this plan.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter { input: Box::new(self), predicate }
    }

    /// Adds an inner equi-join with another plan.
    pub fn join(self, right: LogicalPlan, on: Vec<(String, String)>) -> LogicalPlan {
        LogicalPlan::Join { left: Box::new(self), right: Box::new(right), on }
    }

    /// Adds an aggregate above this plan.
    pub fn aggregate(self, group_by: Vec<(Expr, String)>, aggs: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate { input: Box::new(self), group_by, aggs }
    }

    /// Adds a sort above this plan.
    pub fn sort(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::Sort { input: Box::new(self), keys }
    }

    /// Adds a limit above this plan.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit { input: Box::new(self), n }
    }

    /// Pretty, indented one-operator-per-line rendering (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { table } => {
                out.push_str(&format!("{pad}Scan: {table}\n"));
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter: {predicate}\n"));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Join { left, right, on } => {
                let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                out.push_str(&format!("{pad}InnerJoin: {}\n", conds.join(" AND ")));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                let groups: Vec<String> = group_by.iter().map(|(e, _)| e.to_string()).collect();
                let fs: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{}({}) AS {}", a.func.name(), a.input, a.output_name))
                    .collect();
                out.push_str(&format!(
                    "{pad}Aggregate: group=[{}] aggs=[{}]\n",
                    groups.join(", "),
                    fs.join(", ")
                ));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.expr, if k.ascending { "ASC" } else { "DESC" }))
                    .collect();
                out.push_str(&format!("{pad}Sort: {}\n", ks.join(", ")));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit: {n}\n"));
                input.explain_into(depth + 1, out);
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let plan = LogicalPlan::scan("sales")
            .filter(Expr::col("qty").gt(Expr::lit(5i64)))
            .sort(vec![SortKey { expr: Expr::col("product"), ascending: true }])
            .limit(10);
        let text = plan.explain();
        assert!(text.contains("Scan: sales"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Limit: 10"));
        // Nested order: limit outermost, scan innermost.
        let limit_pos = text.find("Limit").unwrap();
        let scan_pos = text.find("Scan").unwrap();
        assert!(limit_pos < scan_pos);
    }

    #[test]
    fn explain_join() {
        let plan = LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"), vec![("id".to_string(), "a_id".to_string())]);
        assert!(plan.explain().contains("InnerJoin: id = a_id"));
    }
}
