//! The physical executor.
//!
//! Row-at-a-time and materializing, but it copies only what it returns:
//! borrow → bind → evaluate in place. A `Scan` lends the catalog's table
//! (cloned only when it is the plan root, as the result); each operator
//! binds its expressions to its input's schema once ([`Expr::bind`]),
//! evaluates them against `(table, row index)` without building the row,
//! and copies the rows it keeps with [`Table::take`]. Joins are hash joins
//! on the equi-key; aggregation is hash aggregation; sorting is stable.
//! Every operator is a plain loop over its input: no fan-out.
//!
//! A `Filter` directly over a `Scan` reads only the rows its predicate's
//! probe names when the table's index has one ([`TableIndex::probe`]): a
//! superset of the rows the predicate keeps, evaluated in ascending order,
//! so the result, its order and any error equal the scan's. It reads no
//! more rows than the scan, so the choice needs no cost: there is a probe
//! or there is not. [`ExecStats::rows_scanned`] counts the rows read
//! either way.
//!
//! [`TableIndex::probe`]: crate::index::TableIndex::probe

use std::borrow::Cow;
use std::collections::HashMap;

use crate::catalog::Database;
use crate::error::{RelError, RelResult};
use crate::expr::{Bound, Expr};
use crate::plan::{AggExpr, AggFunc, LogicalPlan, SortKey};
use crate::schema::{Column, DataType, Schema};
use crate::table::Table;
use crate::value::{GroupKey, Value};

/// Deterministic resource governors for plan execution.
///
/// Defaults impose no bounds ([`Database::run_plan`]); the engine's
/// degradation ladder passes finite limits so a pathological plan
/// trips [`RelError::ResourceExhausted`] instead of doing unbounded work.
/// The checks are pure functions of the plan and input tables — never of
/// timing or thread count — so a governed run is replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum rows a single join may materialize (checked against the
    /// exact output cardinality before any output row is built).
    pub max_join_rows: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        Self { max_join_rows: usize::MAX }
    }
}

/// Deterministic work counters for one plan execution.
///
/// Pure functions of the plan and input tables (never of timing or thread
/// count), so they feed the observability layer's byte-identical metric
/// snapshots. Counters accumulate even when execution fails, so a
/// budget-tripped join still reports the scan work that preceded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Base-table rows read: a whole table per `Scan`, or, for a `Filter`
    /// over a `Scan` that probes, the rows its probe names.
    pub rows_scanned: usize,
    /// Output rows materialized by `Join` nodes.
    pub rows_joined: usize,
}

impl ExecStats {
    /// Accumulates another execution's counters into this one.
    pub fn merge(&mut self, other: ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_joined += other.rows_joined;
    }
}

/// Executes a logical plan under the given resource governors, also
/// returning deterministic work counters. The counters are valid whether or
/// not execution succeeded.
pub(crate) fn execute(
    plan: &LogicalPlan,
    db: &Database,
    limits: &ExecLimits,
) -> (RelResult<Table>, ExecStats) {
    let mut stats = ExecStats::default();
    let result = exec_node(plan, db, limits, &mut stats).map(Cow::into_owned);
    (result, stats)
}

fn exec_node<'d>(
    plan: &LogicalPlan,
    db: &'d Database,
    limits: &ExecLimits,
    stats: &mut ExecStats,
) -> RelResult<Cow<'d, Table>> {
    let produced = match plan {
        LogicalPlan::Scan { table } => {
            let t = db.table(table)?;
            stats.rows_scanned += t.num_rows();
            return Ok(Cow::Borrowed(t));
        }
        LogicalPlan::Filter { input, predicate } => match &**input {
            LogicalPlan::Scan { table } => {
                let (t, index) = db.indexed(table)?;
                match index.probe(predicate, t.schema()) {
                    Some(probe) => {
                        let rows = index.rows(&probe);
                        stats.rows_scanned += rows.len();
                        exec_filter(t, predicate, rows)?
                    }
                    None => {
                        stats.rows_scanned += t.num_rows();
                        exec_filter(t, predicate, 0..t.num_rows())?
                    }
                }
            }
            input => {
                let t = exec_node(input, db, limits, stats)?;
                exec_filter(&t, predicate, 0..t.num_rows())?
            }
        },
        LogicalPlan::Join { left, right, on } => {
            let l = exec_node(left, db, limits, stats)?;
            let r = exec_node(right, db, limits, stats)?;
            let joined = exec_join(&l, &r, on, limits)?;
            stats.rows_joined += joined.num_rows();
            joined
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let t = exec_node(input, db, limits, stats)?;
            exec_aggregate(&t, group_by, aggs)?
        }
        LogicalPlan::Sort { input, keys } => {
            let t = exec_node(input, db, limits, stats)?;
            exec_sort(&t, keys)?
        }
        LogicalPlan::Limit { input, n } => {
            let t = exec_node(input, db, limits, stats)?;
            let indices: Vec<usize> = (0..t.num_rows().min(*n)).collect();
            t.take(&indices)
        }
    };
    Ok(Cow::Owned(produced))
}

/// Evaluates `expr` against row `row` of `t`, reading the cells in place.
fn eval_at<'a>(expr: &'a Bound<'_>, t: &'a Table, row: usize) -> RelResult<Cow<'a, Value>> {
    expr.eval(&|col| t.cell(row, col))
}

/// Keeps the `rows` of `t` (ascending) that `predicate` holds on.
fn exec_filter(
    t: &Table,
    predicate: &Expr,
    rows: impl IntoIterator<Item = usize>,
) -> RelResult<Table> {
    let predicate = predicate.bind(t.schema());
    let mut keep = Vec::new();
    for i in rows {
        // SQL WHERE: NULL predicate result drops the row.
        if *eval_at(&predicate, t, i)? == Value::Bool(true) {
            keep.push(i);
        }
    }
    Ok(t.take(&keep))
}

/// Infers a schema from output names and produced rows: each column takes
/// the unified type of its non-NULL values, `Str` when it has none or the
/// types do not unify.
fn infer_schema(names: Vec<String>, rows: &[Vec<Value>]) -> RelResult<Schema> {
    let mut dtypes: Vec<Option<DataType>> = vec![None; names.len()];
    for row in rows {
        for (j, v) in row.iter().enumerate() {
            dtypes[j] = match (dtypes[j], DataType::of(v)) {
                (None, inferred) => inferred,
                (Some(cur), Some(d)) => DataType::unify(cur, d).or(Some(DataType::Str)),
                (cur @ Some(_), None) => cur,
            };
        }
    }
    let cols: Vec<Column> = names
        .into_iter()
        .zip(dtypes)
        .map(|(n, d)| Column::new(n, d.unwrap_or(DataType::Str)))
        .collect();
    Schema::new(cols)
}

fn exec_join(
    l: &Table,
    r: &Table,
    on: &[(String, String)],
    limits: &ExecLimits,
) -> RelResult<Table> {
    if on.is_empty() {
        return Err(RelError::Plan("join requires at least one equality condition".into()));
    }
    let l_keys: Vec<usize> =
        on.iter().map(|(lc, _)| l.schema().require(lc)).collect::<RelResult<_>>()?;
    let r_keys: Vec<usize> =
        on.iter().map(|(_, rc)| r.schema().require(rc)).collect::<RelResult<_>>()?;

    // NULL keys never join: a row with a NULL in any key column has no key.
    let key_of = |t: &Table, cols: &[usize], row: usize| -> Option<Vec<GroupKey>> {
        cols.iter()
            .map(|&k| {
                let cell = t.cell(row, k);
                (!cell.is_null()).then(|| cell.group_key())
            })
            .collect()
    };

    // Always build on the right, inserting in row order, so each bucket
    // lists its rows in table order.
    let mut index: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::new();
    for j in 0..r.num_rows() {
        if let Some(key) = key_of(r, &r_keys, j) {
            index.entry(key).or_default().push(j);
        }
    }
    let matches_of = |i: usize| key_of(l, &l_keys, i).and_then(|key| index.get(&key));

    // Join row budget: the exact output cardinality is a sum of bucket
    // sizes, computable before materializing a single output row. The
    // pre-pass costs one extra key extraction per left row, so it only runs
    // under a finite limit.
    if limits.max_join_rows != usize::MAX {
        let mut total: usize = 0;
        for i in 0..l.num_rows() {
            total = total.saturating_add(matches_of(i).map_or(0, Vec::len));
            if total > limits.max_join_rows {
                return Err(RelError::ResourceExhausted {
                    what: "join output rows",
                    limit: limits.max_join_rows,
                });
            }
        }
    }

    let mut out = Table::empty(l.schema().join(r.schema()));
    for i in 0..l.num_rows() {
        for &j in matches_of(i).into_iter().flatten() {
            let mut row = l.row(i);
            row.extend(r.row(j));
            out.push_row(row)?;
        }
    }
    Ok(out)
}

/// Running state for one aggregate over one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(usize),
    Sum { total: f64, seen: bool, all_int: bool, int_total: i64 },
    Avg { total: f64, n: usize },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum { total: 0.0, seen: false, all_int: true, int_total: 0 },
            AggFunc::Avg => AggState::Avg { total: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: &Value) -> RelResult<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(expr) skips NULLs; COUNT(*) passes a literal.
                if !v.is_null() {
                    *n += 1;
                }
            }
            AggState::Sum { total, seen, all_int, int_total } => {
                if !v.is_null() {
                    let x = v.as_f64().ok_or(RelError::TypeMismatch {
                        expected: "numeric",
                        found: v.type_name().to_string(),
                    })?;
                    *total += x;
                    *seen = true;
                    match v.as_i64() {
                        Some(i) => *int_total = int_total.wrapping_add(i),
                        None => *all_int = false,
                    }
                }
            }
            AggState::Avg { total, n } => {
                if !v.is_null() {
                    let x = v.as_f64().ok_or(RelError::TypeMismatch {
                        expected: "numeric",
                        found: v.type_name().to_string(),
                    })?;
                    *total += x;
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if !v.is_null() {
                    let replace = match cur {
                        None => true,
                        Some(c) => v.compare(c) == Some(std::cmp::Ordering::Less),
                    };
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if !v.is_null() {
                    let replace = match cur {
                        None => true,
                        Some(c) => v.compare(c) == Some(std::cmp::Ordering::Greater),
                    };
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum { total, seen, all_int, int_total } => {
                if !seen {
                    Value::Null
                } else if all_int {
                    Value::Int(int_total)
                } else {
                    Value::float(total)
                }
            }
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::float(total / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

fn exec_aggregate(t: &Table, group_by: &[(Expr, String)], aggs: &[AggExpr]) -> RelResult<Table> {
    let in_schema = t.schema();
    let group_exprs: Vec<Bound> = group_by.iter().map(|(e, _)| e.bind(in_schema)).collect();
    let agg_inputs: Vec<Bound> = aggs.iter().map(|a| a.input.bind(in_schema)).collect();
    let new_states = || -> Vec<AggState> { aggs.iter().map(|a| AggState::new(a.func)).collect() };
    // Groups in first-seen order (representative group values, agg
    // states), found again through the key → position index.
    let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
    let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();

    for i in 0..t.num_rows() {
        let group_vals: RelResult<Vec<Cow<Value>>> =
            group_exprs.iter().map(|e| eval_at(e, t, i)).collect();
        let group_vals = group_vals?;
        let key: Vec<GroupKey> = group_vals.iter().map(|v| v.group_key()).collect();
        let at = *index.entry(key).or_insert_with(|| {
            groups.push((group_vals.into_iter().map(Cow::into_owned).collect(), new_states()));
            groups.len() - 1
        });
        for (input, st) in agg_inputs.iter().zip(groups[at].1.iter_mut()) {
            st.update(&*eval_at(input, t, i)?)?;
        }
    }

    // Global aggregate over an empty input still yields one row.
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), new_states()));
    }

    let names: Vec<String> = group_by
        .iter()
        .map(|(_, n)| n.clone())
        .chain(aggs.iter().map(|a| a.output_name.clone()))
        .collect();
    let rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut row, states)| {
            row.extend(states.into_iter().map(AggState::finish));
            row
        })
        .collect();
    let schema = infer_schema(names, &rows)?;
    Table::from_rows(schema, rows)
}

fn exec_sort(t: &Table, keys: &[SortKey]) -> RelResult<Table> {
    let bound: Vec<Bound> = keys.iter().map(|k| k.expr.bind(t.schema())).collect();
    // Precompute key values per row (decorate-sort-undecorate); a key that
    // is a plain column stays a borrow of the cell.
    let mut decorated: Vec<(Vec<Cow<Value>>, usize)> = Vec::with_capacity(t.num_rows());
    for i in 0..t.num_rows() {
        let kv: RelResult<Vec<Cow<Value>>> = bound.iter().map(|e| eval_at(e, t, i)).collect();
        decorated.push((kv?, i));
    }
    decorated.sort_by(|(ka, ia), (kb, ib)| {
        for (k, (va, vb)) in keys.iter().zip(ka.iter().zip(kb.iter())) {
            let ord = va.sort_cmp(vb);
            let ord = if k.ascending { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        ia.cmp(ib) // stable
    });
    let indices: Vec<usize> = decorated.into_iter().map(|(_, i)| i).collect();
    Ok(t.take(&indices))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        let sales = Table::from_rows(
            Schema::of(&[
                ("product", DataType::Str),
                ("quarter", DataType::Str),
                ("amount", DataType::Float),
                ("units", DataType::Int),
            ]),
            vec![
                vec![Value::str("alpha"), Value::str("Q1"), Value::Float(100.0), Value::Int(10)],
                vec![Value::str("alpha"), Value::str("Q2"), Value::Float(150.0), Value::Int(15)],
                vec![Value::str("beta"), Value::str("Q1"), Value::Float(80.0), Value::Int(8)],
                vec![Value::str("beta"), Value::str("Q2"), Value::Float(60.0), Value::Int(6)],
                vec![Value::str("gamma"), Value::str("Q2"), Value::Null, Value::Int(3)],
            ],
        )
        .unwrap();
        db.create_table("sales", sales).unwrap();
        let products = Table::from_rows(
            Schema::of(&[("name", DataType::Str), ("maker", DataType::Str)]),
            vec![
                vec![Value::str("alpha"), Value::str("Acme")],
                vec![Value::str("beta"), Value::str("Initech")],
            ],
        )
        .unwrap();
        db.create_table("products", products).unwrap();
        db
    }

    #[test]
    fn scan_returns_table() {
        let d = db();
        let t = d.run_plan(&LogicalPlan::scan("sales")).unwrap();
        assert_eq!(t.num_rows(), 5);
        assert!(d.run_plan(&LogicalPlan::scan("nope")).is_err());
    }

    #[test]
    fn filter_drops_nonmatching_and_null() {
        let d = db();
        let plan = LogicalPlan::scan("sales").filter(Expr::col("amount").gt(Expr::lit(90.0)));
        let t = d.run_plan(&plan).unwrap();
        // gamma's NULL amount must not pass.
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn inner_join_matches() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("products"), vec![("product".to_string(), "name".to_string())]);
        let t = d.run_plan(&plan).unwrap();
        // gamma has no product row → dropped. 2+2 remain.
        assert_eq!(t.num_rows(), 4);
        assert!(t.schema().index_of("maker").is_some());
    }

    #[test]
    fn join_null_keys_never_match() {
        let mut d = Database::new();
        let a = Table::from_rows(
            Schema::of(&[("k", DataType::Str)]),
            vec![vec![Value::Null], vec![Value::str("x")]],
        )
        .unwrap();
        let b = Table::from_rows(
            Schema::of(&[("k2", DataType::Str)]),
            vec![vec![Value::Null], vec![Value::str("x")]],
        )
        .unwrap();
        d.create_table("a", a).unwrap();
        d.create_table("b", b).unwrap();
        let plan = LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"), vec![("k".to_string(), "k2".to_string())]);
        let t = d.run_plan(&plan).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn aggregate_group_by() {
        let d = db();
        let plan = LogicalPlan::scan("sales").aggregate(
            vec![(Expr::col("product"), "product".to_string())],
            vec![
                AggExpr {
                    func: AggFunc::Sum,
                    input: Expr::col("amount"),
                    output_name: "total".to_string(),
                },
                AggExpr {
                    func: AggFunc::Count,
                    input: Expr::lit(1i64),
                    output_name: "n".to_string(),
                },
            ],
        );
        let t = d.run_plan(&plan).unwrap();
        assert_eq!(t.num_rows(), 3);
        let alpha = (0..3).find(|&i| t.cell(i, 0) == &Value::str("alpha")).unwrap();
        assert_eq!(t.cell(alpha, 1), &Value::Float(250.0));
        assert_eq!(t.cell(alpha, 2), &Value::Int(2));
        // gamma: SUM of only-NULL amounts is NULL.
        let gamma = (0..3).find(|&i| t.cell(i, 0) == &Value::str("gamma")).unwrap();
        assert!(t.cell(gamma, 1).is_null());
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let mut d = Database::new();
        d.create_table("e", Table::empty(Schema::of(&[("x", DataType::Int)]))).unwrap();
        let plan = LogicalPlan::scan("e").aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Count,
                input: Expr::lit(1i64),
                output_name: "n".to_string(),
            }],
        );
        let t = d.run_plan(&plan).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.cell(0, 0), &Value::Int(0));
    }

    #[test]
    fn avg_min_max() {
        let d = db();
        let plan = LogicalPlan::scan("sales").aggregate(
            vec![],
            vec![
                AggExpr { func: AggFunc::Avg, input: Expr::col("units"), output_name: "a".into() },
                AggExpr { func: AggFunc::Min, input: Expr::col("units"), output_name: "mn".into() },
                AggExpr { func: AggFunc::Max, input: Expr::col("units"), output_name: "mx".into() },
            ],
        );
        let t = d.run_plan(&plan).unwrap();
        assert_eq!(t.cell(0, 0), &Value::Float(8.4));
        assert_eq!(t.cell(0, 1), &Value::Int(3));
        assert_eq!(t.cell(0, 2), &Value::Int(15));
    }

    #[test]
    fn sum_of_ints_stays_int() {
        let d = db();
        let plan = LogicalPlan::scan("sales").aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                input: Expr::col("units"),
                output_name: "s".into(),
            }],
        );
        let t = d.run_plan(&plan).unwrap();
        assert_eq!(t.cell(0, 0), &Value::Int(42));
    }

    #[test]
    fn sort_orders_and_is_stable() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .sort(vec![SortKey { expr: Expr::col("quarter"), ascending: true }]);
        let t = d.run_plan(&plan).unwrap();
        assert_eq!(t.cell(0, 1), &Value::str("Q1"));
        // Stability: alpha Q1 (row 0 originally) before beta Q1.
        assert_eq!(t.cell(0, 0), &Value::str("alpha"));
        assert_eq!(t.cell(1, 0), &Value::str("beta"));
    }

    #[test]
    fn sort_descending_nulls() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .sort(vec![SortKey { expr: Expr::col("amount"), ascending: false }]);
        let t = d.run_plan(&plan).unwrap();
        assert_eq!(t.cell(0, 2), &Value::Float(150.0));
        // NULL sorts first ascending → last descending.
        assert!(t.cell(4, 2).is_null());
    }

    #[test]
    fn limit_caps() {
        let d = db();
        let t = d.run_plan(&LogicalPlan::scan("sales").limit(2)).unwrap();
        assert_eq!(t.num_rows(), 2);
        let t = d.run_plan(&LogicalPlan::scan("sales").limit(100)).unwrap();
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn join_row_budget_trips_deterministically() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("products"), vec![("product".to_string(), "name".to_string())]);
        // The inner join yields 4 rows: a budget of 3 must trip, 4 must not.
        let run =
            |max_join_rows| d.run_plan_with_limits_stats(&plan, &ExecLimits { max_join_rows }).0;
        assert!(matches!(
            run(3),
            Err(RelError::ResourceExhausted { what: "join output rows", limit: 3 })
        ));
        assert_eq!(run(4).unwrap().num_rows(), 4);
    }

    #[test]
    fn exec_stats_count_scans_and_join_output() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("products"), vec![("product".to_string(), "name".to_string())]);
        let (result, stats) = d.run_plan_with_limits_stats(&plan, &ExecLimits::default());
        assert_eq!(result.unwrap().num_rows(), 4);
        assert_eq!(stats.rows_scanned, 7, "5 sales rows + 2 product rows");
        assert_eq!(stats.rows_joined, 4);
        // Counters survive a budget trip: both scans ran before the join
        // budget pre-pass rejected the output.
        let (result, stats) = d.run_plan_with_limits_stats(&plan, &ExecLimits { max_join_rows: 3 });
        assert!(result.is_err());
        assert_eq!(stats.rows_scanned, 7);
        assert_eq!(stats.rows_joined, 0);
        let mut acc = ExecStats::default();
        acc.merge(stats);
        acc.merge(ExecStats { rows_scanned: 1, rows_joined: 2 });
        assert_eq!(acc, ExecStats { rows_scanned: 8, rows_joined: 2 });
    }

    fn count_of(input: Expr) -> AggExpr {
        AggExpr { func: AggFunc::Count, input, output_name: "n".into() }
    }

    #[test]
    fn unknown_column_over_empty_input_is_ok() {
        let mut d = Database::new();
        d.create_table("e", Table::empty(Schema::of(&[("x", DataType::Int)]))).unwrap();
        let nope = || Expr::col("nope");
        let plans = [
            LogicalPlan::scan("e").filter(nope().gt(Expr::lit(1i64))),
            LogicalPlan::scan("e").sort(vec![SortKey { expr: nope(), ascending: true }]),
            LogicalPlan::scan("e")
                .aggregate(vec![(nope(), "g".to_string())], vec![count_of(nope())]),
        ];
        for plan in plans {
            assert_eq!(d.run_plan(&plan).map(|t| t.num_rows()), Ok(0), "{plan:?}");
        }
        // One row is enough for the same plans to fail.
        let plan = LogicalPlan::scan("sales").filter(nope().gt(Expr::lit(1i64)));
        assert_eq!(db().run_plan(&plan), Err(RelError::UnknownColumn("nope".into())));
    }

    #[test]
    fn unknown_column_behind_short_circuit_is_ok() {
        let d = db();
        let nope = || Expr::col("nope").gt(Expr::lit(1i64));
        let none = LogicalPlan::scan("sales").filter(Expr::lit(false).and(nope()));
        assert_eq!(d.run_plan(&none).unwrap().num_rows(), 0);
        let all = LogicalPlan::scan("sales").filter(Expr::lit(true).or(nope()));
        assert_eq!(d.run_plan(&all).unwrap().num_rows(), 5);
        // Decided per row: a left side that is false on every row guards the
        // right; one that is true on any row does not.
        let units = |op: fn(Expr, Expr) -> Expr, n: i64| op(Expr::col("units"), Expr::lit(n));
        let guarded = LogicalPlan::scan("sales").filter(units(Expr::lt, 0).and(nope()));
        assert_eq!(d.run_plan(&guarded).unwrap().num_rows(), 0);
        let reached = LogicalPlan::scan("sales").filter(units(Expr::lt, 4).and(nope()));
        assert_eq!(d.run_plan(&reached), Err(RelError::UnknownColumn("nope".into())));
    }

    #[test]
    fn first_error_in_row_order_wins() {
        // a = 0 matches an int against a LIKE pattern on the left of the OR;
        // any other non-NULL a skips the left (`false AND …`) and uses an int
        // as a boolean on the right. NULL rows raise neither.
        let a = || Expr::col("a");
        let like = Expr::Like { expr: Box::new(a()), pattern: "x".into() };
        let pred = a().eq(Expr::lit(0i64)).and(like).or(a().and(Expr::lit(true)));
        let not_a_str = RelError::TypeMismatch { expected: "str", found: "int".into() };
        let not_a_bool = RelError::TypeMismatch { expected: "bool", found: "int".into() };
        for (first, second, expected) in [(0, 5, not_a_str), (5, 0, not_a_bool)] {
            // Far enough apart that no single sweep of the old fixed-size
            // row chunks saw both.
            let mut rows = vec![vec![Value::Null]; 1500];
            rows[700] = vec![Value::Int(first)];
            rows[1300] = vec![Value::Int(second)];
            let mut d = Database::new();
            let t = Table::from_rows(Schema::of(&[("a", DataType::Int)]), rows).unwrap();
            d.create_table("t", t).unwrap();
            let scan = || LogicalPlan::scan("t");
            let plans = [
                scan().filter(pred.clone()),
                scan().sort(vec![SortKey { expr: pred.clone(), ascending: true }]),
                scan().aggregate(vec![], vec![count_of(pred.clone())]),
            ];
            for plan in plans {
                assert_eq!(d.run_plan(&plan), Err(expected.clone()), "{plan:?}");
            }
        }
    }

    #[test]
    fn join_requires_condition() {
        let d = db();
        let plan = LogicalPlan::scan("sales").join(LogicalPlan::scan("products"), vec![]);
        assert!(d.run_plan(&plan).is_err());
    }
}
