//! Property-based tests: relational algebra invariants (detkit harness).

use std::cmp::Ordering;

use detkit::prop::{
    chars_in, i32s, i8s, just, one_of, string_of, usizes, vec_of, zip, zip3, Config, Gen,
};
use detkit::{prop_assert, prop_assert_eq, prop_check, Rng};
use unisem_relstore::exec::execute_with_limits_stats;
use unisem_relstore::expr::{eval_binary, like_match, BinOp};
use unisem_relstore::{
    AggExpr, AggFunc, Column, DataType, Database, ExecLimits, ExecStats, Expr, JoinType,
    LogicalPlan, RelError, RelResult, Schema, SortKey, Table, Value,
};

/// Generator: a small typed table with (int, float, str) columns.
fn small_table() -> Gen<Table> {
    vec_of(&zip3(&i8s(i8::MIN, i8::MAX), &i32s(-1000, 999), &string_of("abcd", 1, 3)), 0, 29).map(
        |rows| {
            let schema =
                Schema::of(&[("k", DataType::Int), ("v", DataType::Float), ("s", DataType::Str)]);
            Table::from_rows(
                schema,
                rows.iter()
                    .map(|(k, v, s)| {
                        vec![
                            Value::Int(i64::from(*k)),
                            Value::Float(f64::from(*v) / 10.0),
                            Value::str(s.clone()),
                        ]
                    })
                    .collect(),
            )
            .expect("typed rows")
        },
    )
}

fn db_with(t: Table) -> Database {
    let mut db = Database::new();
    db.create_table("t", t).expect("fresh");
    db
}

// Filtering never increases row count, and double-filtering with the
// same predicate is idempotent.
prop_check!(filter_monotone_and_idempotent, small_table(), |t| {
    let db = db_with(t.clone());
    let pred = Expr::col("k").gt(Expr::lit(0i64));
    let once = db.run_plan(&LogicalPlan::scan("t").filter(pred.clone())).unwrap();
    prop_assert!(once.num_rows() <= t.num_rows());
    let mut db2 = Database::new();
    db2.create_table("t", once.clone()).unwrap();
    let twice = db2.run_plan(&LogicalPlan::scan("t").filter(pred)).unwrap();
    prop_assert_eq!(once.num_rows(), twice.num_rows());
    Ok(())
});

// p AND NOT p selects nothing; p OR NOT p selects every non-NULL row.
prop_check!(excluded_middle, small_table(), |t| {
    let db = db_with(t.clone());
    let p = Expr::col("v").gt(Expr::lit(0.0));
    let contradiction = p.clone().and(Expr::Not(Box::new(p.clone())));
    let none = db.run_plan(&LogicalPlan::scan("t").filter(contradiction)).unwrap();
    prop_assert_eq!(none.num_rows(), 0);
    let tautology = p.clone().or(Expr::Not(Box::new(p)));
    let all = db.run_plan(&LogicalPlan::scan("t").filter(tautology)).unwrap();
    prop_assert_eq!(all.num_rows(), t.num_rows());
    Ok(())
});

// SUM over GROUP BY groups equals the global SUM.
prop_check!(group_sums_partition_global_sum, small_table(), |t| {
    let db = db_with(t.clone());
    let global = db.run_sql("SELECT SUM(v) AS s FROM t").unwrap();
    let grouped = db.run_sql("SELECT s, SUM(v) AS part FROM t GROUP BY s").unwrap();
    let total = global.cell(0, 0).as_f64();
    let parts: f64 = (0..grouped.num_rows()).filter_map(|i| grouped.cell(i, 1).as_f64()).sum();
    match total {
        None => prop_assert_eq!(grouped.num_rows(), 0),
        Some(total) => prop_assert!((total - parts).abs() < 1e-6, "{total} vs {parts}"),
    }
    Ok(())
});

// ORDER BY produces a sorted permutation of the input.
prop_check!(sort_is_permutation_and_ordered, small_table(), |t| {
    let db = db_with(t.clone());
    let out = db.run_sql("SELECT * FROM t ORDER BY v ASC").unwrap();
    prop_assert_eq!(out.num_rows(), t.num_rows());
    let vals: Vec<Option<f64>> = (0..out.num_rows()).map(|i| out.cell(i, 1).as_f64()).collect();
    for w in vals.windows(2) {
        if let (Some(a), Some(b)) = (w[0], w[1]) {
            prop_assert!(a <= b);
        }
    }
    // Multiset of keys preserved.
    let mut before: Vec<i64> = t.column(0).iter().filter_map(Value::as_i64).collect();
    let mut after: Vec<i64> = out.column(0).iter().filter_map(Value::as_i64).collect();
    before.sort_unstable();
    after.sort_unstable();
    prop_assert_eq!(before, after);
    Ok(())
});

// LIMIT n yields min(n, rows) and is a prefix of the unlimited result.
prop_check!(limit_prefix, zip(&small_table(), &usizes(0, 39)), |p| {
    let (t, n) = p;
    let db = db_with(t.clone());
    let full = db.run_sql("SELECT * FROM t ORDER BY k").unwrap();
    let limited = db.run_sql(&format!("SELECT * FROM t ORDER BY k LIMIT {n}")).unwrap();
    prop_assert_eq!(limited.num_rows(), full.num_rows().min(*n));
    for i in 0..limited.num_rows() {
        prop_assert_eq!(limited.row(i), full.row(i));
    }
    Ok(())
});

// DISTINCT is idempotent and never increases cardinality.
prop_check!(distinct_idempotent, small_table(), |t| {
    let db = db_with(t.clone());
    let once = db.run_sql("SELECT DISTINCT s FROM t").unwrap();
    prop_assert!(once.num_rows() <= t.num_rows());
    let mut db2 = Database::new();
    db2.create_table("t", once.clone()).unwrap();
    let twice = db2.run_sql("SELECT DISTINCT s FROM t").unwrap();
    prop_assert_eq!(once.num_rows(), twice.num_rows());
    Ok(())
});

// The optimizer never changes results (tested over the plan shapes the
// engine emits: filter over projection over scan).
prop_check!(optimizer_preserves_semantics, zip(&small_table(), &i32s(-10, 9)), |p| {
    let (t, threshold) = p;
    let db = db_with(t.clone());
    let plan = LogicalPlan::scan("t")
        .project(vec![(Expr::col("k"), "a".to_string()), (Expr::col("v"), "b".to_string())])
        .filter(Expr::col("a").gt(Expr::lit(i64::from(*threshold))));
    // run_plan optimizes; exec::execute on the raw plan does not.
    let optimized = db.run_plan(&plan).unwrap();
    let raw = unisem_relstore::exec::execute(&plan, &db).unwrap();
    prop_assert_eq!(optimized, raw);
    Ok(())
});

// ---------------------------------------------------------------------------
// Reference implementations. The executor evaluates bound expressions against
// cells in place and matches LIKE iteratively; these are the forms it
// replaced — recursive LIKE, evaluation by column name over a materialized
// row, operators that build every row — kept as the oracles.
// ---------------------------------------------------------------------------

/// The recursive backtracking LIKE matcher (exponential in the `%` count).
fn like_recursive(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.to_lowercase().chars().collect();
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    rec(&s, &p)
}

fn mismatch(expected: &'static str, found: &Value) -> RelError {
    RelError::TypeMismatch { expected, found: found.type_name().to_string() }
}

/// `Expr::eval` as it was: names resolved per row, every cell cloned.
fn ref_eval(e: &Expr, row: &[Value], schema: &Schema) -> RelResult<Value> {
    match e {
        Expr::Column(name) => Ok(row[schema.require(name)?].clone()),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = ref_eval(left, row, schema)?;
            match op {
                BinOp::And if l == Value::Bool(false) => return Ok(l),
                BinOp::Or if l == Value::Bool(true) => return Ok(l),
                _ => {}
            }
            eval_binary(*op, &l, &ref_eval(right, row, schema)?)
        }
        Expr::Not(inner) => match ref_eval(inner, row, schema)? {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(mismatch("bool", &other)),
        },
        Expr::IsNull { expr, negated } => {
            Ok(Value::Bool(ref_eval(expr, row, schema)?.is_null() != *negated))
        }
        Expr::Like { expr, pattern } => match ref_eval(expr, row, schema)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Bool(like_recursive(&s, pattern))),
            other => Err(mismatch("str", &other)),
        },
        Expr::InList { expr, list } => {
            let v = ref_eval(expr, row, schema)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let hits: Vec<Option<bool>> = list.iter().map(|cand| v.sql_eq(cand)).collect();
            Ok(if hits.contains(&Some(true)) {
                Value::Bool(true)
            } else if hits.contains(&None) {
                Value::Null
            } else {
                Value::Bool(false)
            })
        }
    }
}

/// Output schema of computed rows: declared types where known, else the
/// unified type of the values seen (Str when there is none or no unifier).
fn ref_schema(
    names: Vec<String>,
    mut dtypes: Vec<Option<DataType>>,
    rows: &[Vec<Value>],
) -> RelResult<Schema> {
    for row in rows {
        for (j, v) in row.iter().enumerate() {
            dtypes[j] = match (dtypes[j], DataType::of(v)) {
                (None, seen) => seen,
                (Some(cur), Some(d)) => DataType::unify(cur, d).or(Some(DataType::Str)),
                (cur, None) => cur,
            };
        }
    }
    let cols =
        names.into_iter().zip(dtypes).map(|(n, d)| Column::new(n, d.unwrap_or(DataType::Str)));
    Schema::new(cols.collect())
}

/// One aggregate over the non-NULL inputs of one group, in row order.
fn ref_finish(func: AggFunc, vals: &[Value]) -> Value {
    let pick = |want: Ordering| {
        vals.iter().fold(Value::Null, |cur, v| {
            if cur.is_null() || v.compare(&cur) == Some(want) {
                v.clone()
            } else {
                cur
            }
        })
    };
    let total = || vals.iter().filter_map(Value::as_f64).fold(0.0, |a, x| a + x);
    match func {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::CountDistinct => {
            let mut keys: Vec<_> = vals.iter().map(Value::group_key).collect();
            keys.sort_by_key(|k| format!("{k:?}"));
            keys.dedup();
            Value::Int(keys.len() as i64)
        }
        AggFunc::Sum | AggFunc::Avg if vals.is_empty() => Value::Null,
        AggFunc::Sum => match vals.iter().map(Value::as_i64).collect::<Option<Vec<i64>>>() {
            Some(ints) => Value::Int(ints.iter().fold(0i64, |a, &x| a.wrapping_add(x))),
            None => Value::float(total()),
        },
        AggFunc::Avg => Value::float(total() / vals.len() as f64),
        AggFunc::Min => pick(Ordering::Less),
        AggFunc::Max => pick(Ordering::Greater),
    }
}

/// The executor, materializing every row and resolving every name per row.
fn ref_exec(
    plan: &LogicalPlan,
    db: &Database,
    limits: &ExecLimits,
    stats: &mut ExecStats,
) -> RelResult<Table> {
    let mut child = |p: &LogicalPlan| ref_exec(p, db, limits, stats);
    match plan {
        LogicalPlan::Scan { table } => {
            let t = db.table(table)?.clone();
            stats.rows_scanned += t.num_rows();
            Ok(t)
        }
        LogicalPlan::Filter { input, predicate } => {
            let t = child(input)?;
            let mut kept = Vec::new();
            for row in t.rows() {
                if ref_eval(predicate, &row, t.schema())? == Value::Bool(true) {
                    kept.push(row);
                }
            }
            Table::from_rows(t.schema().clone(), kept)
        }
        LogicalPlan::Project { input, exprs } => {
            let t = child(input)?;
            let mut rows = Vec::new();
            for row in t.rows() {
                let out: RelResult<Vec<Value>> =
                    exprs.iter().map(|(e, _)| ref_eval(e, &row, t.schema())).collect();
                rows.push(out?);
            }
            let declared = exprs.iter().map(|(e, _)| match e {
                Expr::Column(name) => t.schema().index_of(name).map(|i| t.schema().column(i).dtype),
                _ => None,
            });
            let names = exprs.iter().map(|(_, n)| n.clone()).collect();
            Table::from_rows(ref_schema(names, declared.collect(), &rows)?, rows)
        }
        LogicalPlan::Join { left, right, join_type, on } => {
            let (l, r) = (child(left)?, child(right)?);
            if on.is_empty() {
                return Err(RelError::Plan("join requires at least one equality condition".into()));
            }
            let l_keys: Vec<usize> =
                on.iter().map(|(lc, _)| l.schema().require(lc)).collect::<RelResult<_>>()?;
            let r_keys: Vec<usize> =
                on.iter().map(|(_, rc)| r.schema().require(rc)).collect::<RelResult<_>>()?;
            let mut rows = Vec::new();
            for lrow in l.rows() {
                let before = rows.len();
                for rrow in r.rows() {
                    let equal = l_keys.iter().zip(&r_keys).all(|(&a, &b)| {
                        !lrow[a].is_null()
                            && !rrow[b].is_null()
                            && lrow[a].group_key() == rrow[b].group_key()
                    });
                    if equal {
                        rows.push(lrow.iter().chain(&rrow).cloned().collect::<Vec<Value>>());
                    }
                }
                if rows.len() == before && *join_type == JoinType::Left {
                    let pad = std::iter::repeat_n(Value::Null, r.num_columns());
                    rows.push(lrow.iter().cloned().chain(pad).collect());
                }
            }
            if rows.len() > limits.max_join_rows {
                return Err(RelError::ResourceExhausted {
                    what: "join output rows",
                    limit: limits.max_join_rows,
                });
            }
            stats.rows_joined += rows.len();
            Table::from_rows(l.schema().join(r.schema()), rows)
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let t = child(input)?;
            // Per group, in first-seen order: its key, and (group values,
            // non-NULL inputs per aggregate).
            let mut keys: Vec<Vec<_>> = Vec::new();
            let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
            for row in t.rows() {
                let vals: RelResult<Vec<Value>> =
                    group_by.iter().map(|(e, _)| ref_eval(e, &row, t.schema())).collect();
                let vals = vals?;
                let key: Vec<_> = vals.iter().map(Value::group_key).collect();
                let at = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    groups.push((vals, vec![Vec::new(); aggs.len()]));
                    groups.len() - 1
                });
                for (a, seen) in aggs.iter().zip(groups[at].1.iter_mut()) {
                    let v = ref_eval(&a.input, &row, t.schema())?;
                    let numeric = matches!(a.func, AggFunc::Sum | AggFunc::Avg);
                    if numeric && !v.is_null() && v.as_f64().is_none() {
                        return Err(mismatch("numeric", &v));
                    }
                    if !v.is_null() {
                        seen.push(v);
                    }
                }
            }
            if group_by.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), vec![Vec::new(); aggs.len()]));
            }
            let rows: Vec<Vec<Value>> = groups
                .into_iter()
                .map(|(mut row, seen)| {
                    row.extend(aggs.iter().zip(&seen).map(|(a, vals)| ref_finish(a.func, vals)));
                    row
                })
                .collect();
            let names: Vec<String> = group_by
                .iter()
                .map(|(_, n)| n.clone())
                .chain(aggs.iter().map(|a| a.output_name.clone()))
                .collect();
            let undeclared = vec![None; names.len()];
            Table::from_rows(ref_schema(names, undeclared, &rows)?, rows)
        }
        LogicalPlan::Sort { input, keys } => {
            let t = child(input)?;
            let mut decorated = Vec::new();
            for row in t.rows() {
                let kv: RelResult<Vec<Value>> =
                    keys.iter().map(|k| ref_eval(&k.expr, &row, t.schema())).collect();
                decorated.push((kv?, row));
            }
            // `sort_by` is stable, which is the executor's index tie-break.
            decorated.sort_by(|(ka, _), (kb, _)| {
                keys.iter()
                    .zip(ka.iter().zip(kb))
                    .map(|(k, (a, b))| if k.ascending { a.sort_cmp(b) } else { b.sort_cmp(a) })
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            let rows = decorated.into_iter().map(|(_, row)| row).collect();
            Table::from_rows(t.schema().clone(), rows)
        }
        LogicalPlan::Limit { input, n } => {
            let t = child(input)?;
            Table::from_rows(t.schema().clone(), t.rows().take(*n).collect())
        }
        LogicalPlan::Distinct { input } => {
            let t = child(input)?;
            let mut seen: Vec<Vec<_>> = Vec::new();
            let mut rows = Vec::new();
            for row in t.rows() {
                let key: Vec<_> = row.iter().map(Value::group_key).collect();
                if !seen.contains(&key) {
                    seen.push(key);
                    rows.push(row);
                }
            }
            Table::from_rows(t.schema().clone(), rows)
        }
    }
}

// ---------------------------------------------------------------------------
// LIKE: iterative matcher == recursive matcher.
// ---------------------------------------------------------------------------

/// Mixed-case letters, ASCII and not; `Σ` lower-cases by position (final
/// sigma) and `İ` to two chars, so the subject cannot be folded char by char.
const LETTERS: &str = "aAbB \u{3c3}\u{3a3}\u{3c2}\u{130}\u{e9}\u{c9}\u{df}";

/// Patterns of up to five literal runs joined by 0–4 wildcards.
fn like_patterns() -> Gen<String> {
    let runs = vec_of(&string_of(LETTERS, 0, 2), 5, 5);
    let wildcards = vec_of(&chars_in("%_"), 0, 4);
    zip(&runs, &wildcards).map(|(runs, wildcards)| {
        let mut p = runs[0].clone();
        for (w, run) in wildcards.iter().zip(&runs[1..]) {
            p.push(*w);
            p.push_str(run);
        }
        p
    })
}

prop_check!(
    like_iterative_equals_recursive,
    Config::default().with_cases(512),
    zip(&one_of(vec![string_of("aAbB ", 0, 8), string_of(LETTERS, 0, 8)]), &like_patterns()),
    |case| {
        let (subject, pattern) = case;
        prop_assert_eq!(like_match(subject, pattern), like_recursive(subject, pattern));
        Ok(())
    }
);

// ---------------------------------------------------------------------------
// Executor: in-place evaluation == row-materializing reference.
// ---------------------------------------------------------------------------

fn int_cells(lo: i8, hi: i8) -> Gen<Value> {
    i8s(lo, hi).map(|i| Value::Int(i64::from(*i)))
}

/// `t(k INT, v FLOAT, s STR)` and `u(k INT, label STR)`: NULLs anywhere,
/// ints stored into the float column, mixed-case and non-ASCII strings,
/// possibly no rows at all.
fn two_tables() -> Gen<(Table, Table)> {
    let strs = one_of(vec![just(Value::Null), string_of(LETTERS, 0, 3).map(|s| Value::str(s))]);
    let ints = one_of(vec![just(Value::Null), int_cells(-2, 3)]);
    let floats = one_of(vec![
        just(Value::Null),
        int_cells(-2, 3),
        i8s(-5, 5).map(|i| Value::Float(f64::from(*i) / 2.0)),
    ]);
    let t = vec_of(&zip3(&ints, &floats, &strs), 0, 12).map(|rows| {
        let schema =
            Schema::of(&[("k", DataType::Int), ("v", DataType::Float), ("s", DataType::Str)]);
        let rows = rows.iter().map(|(k, v, s)| vec![k.clone(), v.clone(), s.clone()]).collect();
        Table::from_rows(schema, rows).expect("typed rows")
    });
    let u = vec_of(&zip(&ints, &strs), 0, 5).map(|rows| {
        let schema = Schema::of(&[("k", DataType::Int), ("label", DataType::Str)]);
        let rows = rows.iter().map(|(k, l)| vec![k.clone(), l.clone()]).collect();
        Table::from_rows(schema, rows).expect("typed rows")
    });
    zip(&t, &u)
}

/// Names for outputs, and now and then for a reference: the base columns
/// (one in another case) and one that never exists.
const NAMES: [&str; 6] = ["k", "v", "s", "K", "label", "zz"];

fn pick<T: Clone>(rng: &mut Rng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

fn random_value(rng: &mut Rng) -> Value {
    match rng.gen_range(0..6usize) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-2..4i64)),
        3 => Value::Float(rng.gen_range(-5..6i64) as f64 / 2.0),
        _ => Value::str(pick(rng, &["a", "A", "ab", "\u{3c3}", "\u{3a3}a", "", "b%"])),
    }
}

/// A value-shaped expression over (mostly) the columns in `cols`; one time
/// in ten a predicate instead, so operators see the wrong type too.
fn random_scalar(rng: &mut Rng, cols: &[String], depth: usize) -> Expr {
    match rng.gen_range(0..10usize) {
        0 if depth > 0 => random_pred(rng, cols, depth - 1),
        1 | 2 if depth > 0 => {
            let op = pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
            let left = Box::new(random_scalar(rng, cols, depth - 1));
            Expr::Binary { op, left, right: Box::new(random_scalar(rng, cols, depth - 1)) }
        }
        3 | 4 => Expr::Literal(random_value(rng)),
        5 => Expr::col(pick(rng, &NAMES)),
        _ if cols.is_empty() => Expr::Literal(random_value(rng)),
        _ => Expr::col(pick(rng, cols)),
    }
}

/// A predicate-shaped expression; one time in ten a scalar instead.
fn random_pred(rng: &mut Rng, cols: &[String], depth: usize) -> Expr {
    let scalar = |rng: &mut Rng| Box::new(random_scalar(rng, cols, depth.saturating_sub(1)));
    let pred = |rng: &mut Rng| Box::new(random_pred(rng, cols, depth.saturating_sub(1)));
    match rng.gen_range(0..if depth == 0 { 6 } else { 10usize }) {
        0 => *scalar(rng),
        1 | 2 => {
            use BinOp::*;
            let op = pick(rng, &[Eq, Ne, Lt, Le, Gt, Ge]);
            Expr::Binary { op, left: scalar(rng), right: scalar(rng) }
        }
        3 => Expr::IsNull { expr: scalar(rng), negated: rng.gen_bool(0.5) },
        4 => {
            let pattern = pick(rng, &["a%", "%B", "_", "%\u{3c3}%", "A", "%a_%"]).to_string();
            Expr::Like { expr: scalar(rng), pattern }
        }
        5 => {
            let list = (0..rng.gen_range(0..4usize)).map(|_| random_value(rng)).collect();
            Expr::InList { expr: scalar(rng), list }
        }
        6 => Expr::Not(pred(rng)),
        _ => {
            let op = pick(rng, &[BinOp::And, BinOp::Or]);
            Expr::Binary { op, left: pred(rng), right: pred(rng) }
        }
    }
}

/// A random plan and the column names its output should have, so that the
/// operators stacked on top mostly refer to columns that exist.
fn random_plan(rng: &mut Rng, depth: usize) -> (LogicalPlan, Vec<String>) {
    let owned = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    if depth == 0 {
        return match rng.gen_range(0..20usize) {
            0 => (LogicalPlan::scan("missing"), Vec::new()),
            1..=5 => (LogicalPlan::scan("u"), owned(&["k", "label"])),
            _ => (LogicalPlan::scan(pick(rng, &["t", "T"])), owned(&["k", "v", "s"])),
        };
    }
    let (input, cols) = random_plan(rng, depth - 1);
    let named = |rng: &mut Rng| (random_scalar(rng, &cols, 2), pick(rng, &NAMES).to_string());
    match rng.gen_range(0..8usize) {
        0 | 1 => (input.filter(random_pred(rng, &cols, 3)), cols),
        2 => {
            let exprs: Vec<_> = (0..rng.gen_range(0..4usize)).map(|_| named(rng)).collect();
            let names = exprs.iter().map(|(_, n)| n.clone()).collect();
            (input.project(exprs), names)
        }
        3 => {
            let group_by: Vec<_> = (0..rng.gen_range(0..3usize)).map(|_| named(rng)).collect();
            let aggs: Vec<_> = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    use AggFunc::*;
                    let func = pick(rng, &[Count, CountDistinct, Sum, Avg, Min, Max]);
                    let (input, output_name) = named(rng);
                    AggExpr { func, input, output_name }
                })
                .collect();
            let names = group_by.iter().map(|(_, n)| n.clone());
            let names = names.chain(aggs.iter().map(|a| a.output_name.clone())).collect();
            (input.aggregate(group_by, aggs), names)
        }
        4 => {
            let keys = (0..rng.gen_range(1..3usize)).map(|_| SortKey {
                expr: random_scalar(rng, &cols, 2),
                ascending: rng.gen_bool(0.5),
            });
            (input.sort(keys.collect()), cols)
        }
        5 => (input.limit(rng.gen_range(0..8usize)), cols),
        6 => (input.distinct(), cols),
        _ => {
            let (right, right_cols) = random_plan(rng, depth - 1);
            let side = |rng: &mut Rng, cols: &[String]| match cols {
                [] => "zz".to_string(),
                _ if rng.gen_bool(0.1) => pick(rng, &NAMES).to_string(),
                _ => pick(rng, cols),
            };
            let on = (0..rng.gen_range(0..3usize).max(rng.gen_range(0..2usize)))
                .map(|_| (side(rng, &cols), side(rng, &right_cols)))
                .collect();
            let join_type = pick(rng, &[JoinType::Inner, JoinType::Left]);
            let plan =
                LogicalPlan::Join { left: Box::new(input), right: Box::new(right), join_type, on };
            let renamed = right_cols.iter().map(|c| match cols.contains(c) {
                true => format!("right.{c}"),
                false => c.clone(),
            });
            let names = cols.iter().cloned().chain(renamed).collect();
            (plan, names)
        }
    }
}

/// `(plan, join row budget)`; plans do not shrink, the tables beside them do.
fn plans() -> Gen<(LogicalPlan, usize)> {
    Gen::raw(|rng| {
        let depth = rng.gen_range(1..5usize);
        (random_plan(rng, depth).0, pick(rng, &[usize::MAX, usize::MAX, 6]))
    })
}

prop_check!(
    executor_equals_row_materializing_reference,
    Config::default().with_cases(1024),
    zip(&two_tables(), &plans()),
    |case| {
        let ((t, u), (plan, max_join_rows)) = case;
        let mut db = db_with(t.clone());
        db.create_table("u", u.clone()).expect("fresh");
        let limits = ExecLimits { max_join_rows: *max_join_rows };
        let mut ref_stats = ExecStats::default();
        let expected = ref_exec(plan, &db, &limits, &mut ref_stats);
        prop_assert_eq!(execute_with_limits_stats(plan, &db, &limits), (expected, ref_stats));
        Ok(())
    }
);
