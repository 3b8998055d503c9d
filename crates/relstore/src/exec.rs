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

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use crate::catalog::Database;
use crate::error::{RelError, RelResult};
use crate::expr::{Bound, Expr};
use crate::plan::{AggExpr, AggFunc, JoinType, LogicalPlan, SortKey};
use crate::schema::{Column, DataType, Schema};
use crate::table::Table;
use crate::value::{GroupKey, Value};

/// Deterministic resource governors for plan execution.
///
/// Defaults impose no bounds, so `execute` behaves exactly as before; the
/// engine's degradation ladder passes finite limits so a pathological plan
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
    /// Base-table rows read by `Scan` nodes.
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

/// Executes a logical plan against a database catalog (no resource bounds).
pub fn execute(plan: &LogicalPlan, db: &Database) -> RelResult<Table> {
    execute_with_limits(plan, db, &ExecLimits::default())
}

/// Executes a logical plan under the given resource governors.
pub fn execute_with_limits(
    plan: &LogicalPlan,
    db: &Database,
    limits: &ExecLimits,
) -> RelResult<Table> {
    execute_with_limits_stats(plan, db, limits).0
}

/// Executes a logical plan under the given resource governors, also
/// returning deterministic work counters. The counters are valid whether or
/// not execution succeeded.
pub fn execute_with_limits_stats(
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
        LogicalPlan::Filter { input, predicate } => {
            let t = exec_node(input, db, limits, stats)?;
            exec_filter(&t, predicate)?
        }
        LogicalPlan::Project { input, exprs } => {
            let t = exec_node(input, db, limits, stats)?;
            exec_project(&t, exprs)?
        }
        LogicalPlan::Join { left, right, join_type, on } => {
            let l = exec_node(left, db, limits, stats)?;
            let r = exec_node(right, db, limits, stats)?;
            let joined = exec_join(&l, &r, *join_type, on, limits)?;
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
        LogicalPlan::Distinct { input } => {
            let t = exec_node(input, db, limits, stats)?;
            exec_distinct(&t)
        }
    };
    Ok(Cow::Owned(produced))
}

/// Evaluates `expr` against row `row` of `t`, reading the cells in place.
fn eval_at<'a>(expr: &'a Bound<'_>, t: &'a Table, row: usize) -> RelResult<Cow<'a, Value>> {
    expr.eval(&|col| t.cell(row, col))
}

fn exec_filter(t: &Table, predicate: &Expr) -> RelResult<Table> {
    let predicate = predicate.bind(t.schema());
    let mut keep = Vec::new();
    for i in 0..t.num_rows() {
        // SQL WHERE: NULL predicate result drops the row.
        if *eval_at(&predicate, t, i)? == Value::Bool(true) {
            keep.push(i);
        }
    }
    Ok(t.take(&keep))
}

fn exec_project(t: &Table, exprs: &[(Expr, String)]) -> RelResult<Table> {
    let in_schema = t.schema();
    let bound: Vec<Bound> = exprs.iter().map(|(e, _)| e.bind(in_schema)).collect();
    // Infer output column types from the first non-null result, defaulting
    // to Str for empty/all-null columns.
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(t.num_rows());
    for i in 0..t.num_rows() {
        let out_row: RelResult<Vec<Value>> =
            bound.iter().map(|e| eval_at(e, t, i).map(Cow::into_owned)).collect();
        rows.push(out_row?);
    }
    let out_schema = infer_schema(
        exprs.iter().map(|(_, n)| n.clone()).collect(),
        &rows,
        Some((in_schema, exprs)),
    )?;
    Table::from_rows(out_schema, rows)
}

/// Infers a schema from output names and produced rows; when projecting
/// plain columns, the input schema's declared type is reused.
fn infer_schema(
    names: Vec<String>,
    rows: &[Vec<Value>],
    passthrough: Option<(&Schema, &[(Expr, String)])>,
) -> RelResult<Schema> {
    let arity = names.len();
    let mut dtypes: Vec<Option<DataType>> = vec![None; arity];
    if let Some((in_schema, exprs)) = passthrough {
        for (j, (e, _)) in exprs.iter().enumerate() {
            if let Expr::Column(name) = e {
                if let Some(idx) = in_schema.index_of(name) {
                    dtypes[j] = Some(in_schema.column(idx).dtype);
                }
            }
        }
    }
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
    join_type: JoinType,
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
            let n = matches_of(i).map_or(usize::from(join_type == JoinType::Left), Vec::len);
            total = total.saturating_add(n);
            if total > limits.max_join_rows {
                return Err(RelError::ResourceExhausted {
                    what: "join output rows",
                    limit: limits.max_join_rows,
                });
            }
        }
    }

    let r_arity = r.schema().arity();
    let mut out = Table::empty(l.schema().join(r.schema()));
    for i in 0..l.num_rows() {
        match matches_of(i) {
            Some(js) => {
                for &j in js {
                    let mut row = l.row(i);
                    row.extend(r.row(j));
                    out.push_row(row)?;
                }
            }
            None => {
                if join_type == JoinType::Left {
                    let mut row = l.row(i);
                    row.extend(std::iter::repeat(Value::Null).take(r_arity));
                    out.push_row(row)?;
                }
            }
        }
    }
    Ok(out)
}

/// Running state for one aggregate over one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(usize),
    CountDistinct(HashSet<GroupKey>),
    Sum { total: f64, seen: bool, all_int: bool, int_total: i64 },
    Avg { total: f64, n: usize },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
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
            AggState::CountDistinct(set) => {
                if !v.is_null() {
                    set.insert(v.group_key());
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
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
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
    let schema = infer_schema(names, &rows, None)?;
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

fn exec_distinct(t: &Table) -> Table {
    let mut seen: HashSet<Vec<GroupKey>> = HashSet::new();
    let mut keep = Vec::new();
    for i in 0..t.num_rows() {
        let key: Vec<GroupKey> =
            (0..t.num_columns()).map(|col| t.cell(i, col).group_key()).collect();
        if seen.insert(key) {
            keep.push(i);
        }
    }
    t.take(&keep)
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
        let t = execute(&LogicalPlan::scan("sales"), &d).unwrap();
        assert_eq!(t.num_rows(), 5);
        assert!(execute(&LogicalPlan::scan("nope"), &d).is_err());
    }

    #[test]
    fn filter_drops_nonmatching_and_null() {
        let d = db();
        let plan = LogicalPlan::scan("sales").filter(Expr::col("amount").gt(Expr::lit(90.0)));
        let t = execute(&plan, &d).unwrap();
        // gamma's NULL amount must not pass.
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn project_computes_and_renames() {
        let d = db();
        let plan = LogicalPlan::scan("sales").project(vec![
            (Expr::col("product"), "p".to_string()),
            (Expr::col("amount").binary_div_test(Expr::col("units")), "unit_price".to_string()),
        ]);
        let t = execute(&plan, &d).unwrap();
        assert_eq!(t.schema().index_of("unit_price"), Some(1));
        assert_eq!(t.cell(0, 1), &Value::Float(10.0));
    }

    #[test]
    fn inner_join_matches() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("products"), vec![("product".to_string(), "name".to_string())]);
        let t = execute(&plan, &d).unwrap();
        // gamma has no product row → dropped. 2+2 remain.
        assert_eq!(t.num_rows(), 4);
        assert!(t.schema().index_of("maker").is_some());
    }

    #[test]
    fn left_join_pads_nulls() {
        let d = db();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("sales")),
            right: Box::new(LogicalPlan::scan("products")),
            join_type: JoinType::Left,
            on: vec![("product".to_string(), "name".to_string())],
        };
        let t = execute(&plan, &d).unwrap();
        assert_eq!(t.num_rows(), 5);
        let maker_idx = t.schema().index_of("maker").unwrap();
        let gamma_row = (0..t.num_rows()).find(|&i| t.cell(i, 0) == &Value::str("gamma")).unwrap();
        assert!(t.cell(gamma_row, maker_idx).is_null());
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
        let t = execute(&plan, &d).unwrap();
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
        let t = execute(&plan, &d).unwrap();
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
        let t = execute(&plan, &d).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.cell(0, 0), &Value::Int(0));
    }

    #[test]
    fn avg_min_max_count_distinct() {
        let d = db();
        let plan = LogicalPlan::scan("sales").aggregate(
            vec![],
            vec![
                AggExpr { func: AggFunc::Avg, input: Expr::col("units"), output_name: "a".into() },
                AggExpr { func: AggFunc::Min, input: Expr::col("units"), output_name: "mn".into() },
                AggExpr { func: AggFunc::Max, input: Expr::col("units"), output_name: "mx".into() },
                AggExpr {
                    func: AggFunc::CountDistinct,
                    input: Expr::col("quarter"),
                    output_name: "q".into(),
                },
            ],
        );
        let t = execute(&plan, &d).unwrap();
        assert_eq!(t.cell(0, 0), &Value::Float(8.4));
        assert_eq!(t.cell(0, 1), &Value::Int(3));
        assert_eq!(t.cell(0, 2), &Value::Int(15));
        assert_eq!(t.cell(0, 3), &Value::Int(2));
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
        let t = execute(&plan, &d).unwrap();
        assert_eq!(t.cell(0, 0), &Value::Int(42));
    }

    #[test]
    fn sort_orders_and_is_stable() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .sort(vec![SortKey { expr: Expr::col("quarter"), ascending: true }]);
        let t = execute(&plan, &d).unwrap();
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
        let t = execute(&plan, &d).unwrap();
        assert_eq!(t.cell(0, 2), &Value::Float(150.0));
        // NULL sorts first ascending → last descending.
        assert!(t.cell(4, 2).is_null());
    }

    #[test]
    fn limit_caps() {
        let d = db();
        let t = execute(&LogicalPlan::scan("sales").limit(2), &d).unwrap();
        assert_eq!(t.num_rows(), 2);
        let t = execute(&LogicalPlan::scan("sales").limit(100), &d).unwrap();
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn distinct_dedups() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .project(vec![(Expr::col("quarter"), "q".to_string())])
            .distinct();
        let t = execute(&plan, &d).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn join_row_budget_trips_deterministically() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("products"), vec![("product".to_string(), "name".to_string())]);
        // The inner join yields 4 rows: a budget of 3 must trip, 4 must not.
        let tight = ExecLimits { max_join_rows: 3 };
        assert!(matches!(
            execute_with_limits(&plan, &d, &tight),
            Err(RelError::ResourceExhausted { what: "join output rows", limit: 3 })
        ));
        let exact = ExecLimits { max_join_rows: 4 };
        assert_eq!(execute_with_limits(&plan, &d, &exact).unwrap().num_rows(), 4);
        // Left joins count the NULL-padded rows too (5 total here).
        let left = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("sales")),
            right: Box::new(LogicalPlan::scan("products")),
            join_type: JoinType::Left,
            on: vec![("product".to_string(), "name".to_string())],
        };
        assert!(execute_with_limits(&left, &d, &exact).is_err());
        assert_eq!(
            execute_with_limits(&left, &d, &ExecLimits { max_join_rows: 5 }).unwrap().num_rows(),
            5
        );
    }

    #[test]
    fn exec_stats_count_scans_and_join_output() {
        let d = db();
        let plan = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("products"), vec![("product".to_string(), "name".to_string())]);
        let (result, stats) = execute_with_limits_stats(&plan, &d, &ExecLimits::default());
        assert_eq!(result.unwrap().num_rows(), 4);
        assert_eq!(stats.rows_scanned, 7, "5 sales rows + 2 product rows");
        assert_eq!(stats.rows_joined, 4);
        // Counters survive a budget trip: both scans ran before the join
        // budget pre-pass rejected the output.
        let (result, stats) =
            execute_with_limits_stats(&plan, &d, &ExecLimits { max_join_rows: 3 });
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
            LogicalPlan::scan("e").project(vec![(nope(), "p".to_string())]),
            LogicalPlan::scan("e").sort(vec![SortKey { expr: nope(), ascending: true }]),
            LogicalPlan::scan("e")
                .aggregate(vec![(nope(), "g".to_string())], vec![count_of(nope())]),
        ];
        for plan in plans {
            assert_eq!(execute(&plan, &d).map(|t| t.num_rows()), Ok(0), "{plan:?}");
        }
        // One row is enough for the same plans to fail.
        let plan = LogicalPlan::scan("sales").filter(nope().gt(Expr::lit(1i64)));
        assert_eq!(execute(&plan, &db()), Err(RelError::UnknownColumn("nope".into())));
    }

    #[test]
    fn unknown_column_behind_short_circuit_is_ok() {
        let d = db();
        let nope = || Expr::col("nope").gt(Expr::lit(1i64));
        let none = LogicalPlan::scan("sales").filter(Expr::lit(false).and(nope()));
        assert_eq!(execute(&none, &d).unwrap().num_rows(), 0);
        let all = LogicalPlan::scan("sales").filter(Expr::lit(true).or(nope()));
        assert_eq!(execute(&all, &d).unwrap().num_rows(), 5);
        // Decided per row: a left side that is false on every row guards the
        // right; one that is true on any row does not.
        let units = |op: fn(Expr, Expr) -> Expr, n: i64| op(Expr::col("units"), Expr::lit(n));
        let guarded = LogicalPlan::scan("sales").filter(units(Expr::lt, 0).and(nope()));
        assert_eq!(execute(&guarded, &d).unwrap().num_rows(), 0);
        let reached = LogicalPlan::scan("sales").filter(units(Expr::lt, 4).and(nope()));
        assert_eq!(execute(&reached, &d), Err(RelError::UnknownColumn("nope".into())));
    }

    #[test]
    fn first_error_in_row_order_wins() {
        // a = 0 divides by zero on the left of the OR; any other non-NULL a
        // skips the left (`false AND …`) and negates an int on the right.
        let a = || Expr::col("a");
        let div = Expr::lit(1i64).binary_div_test(a()).gt(Expr::lit(0i64));
        let pred = a().eq(Expr::lit(0i64)).and(div).or(Expr::Not(Box::new(a())));
        let not_an_int = RelError::TypeMismatch { expected: "bool", found: "int".into() };
        for (first, second, expected) in [(0, 5, RelError::DivisionByZero), (5, 0, not_an_int)] {
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
                scan().project(vec![(pred.clone(), "p".to_string())]),
                scan().sort(vec![SortKey { expr: pred.clone(), ascending: true }]),
                scan().aggregate(vec![], vec![count_of(pred.clone())]),
            ];
            for plan in plans {
                assert_eq!(execute(&plan, &d), Err(expected.clone()), "{plan:?}");
            }
        }
    }

    #[test]
    fn join_requires_condition() {
        let d = db();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("sales")),
            right: Box::new(LogicalPlan::scan("products")),
            join_type: JoinType::Inner,
            on: vec![],
        };
        assert!(execute(&plan, &d).is_err());
    }
}

#[cfg(test)]
impl Expr {
    /// Test-only shorthand for division.
    fn binary_div_test(self, other: Expr) -> Expr {
        Expr::Binary { op: crate::expr::BinOp::Div, left: Box::new(self), right: Box::new(other) }
    }
}
