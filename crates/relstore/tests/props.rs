//! Property-based tests: relational algebra invariants (detkit harness).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use detkit::prop::{
    chars_in, i32s, i8s, just, one_of, string_of, usizes, vec_of, zip, zip3, Config, Gen,
};
use detkit::{prop_assert, prop_assert_eq, prop_check, Rng};
use unisem_relstore::expr::{like_match, BinOp};
use unisem_relstore::{
    AggExpr, AggFunc, Column, DataType, Database, ExecLimits, ExecStats, Expr, LogicalPlan,
    RelError, RelResult, Schema, SortKey, Table, Value,
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

// v > 0 and its complement v <= 0 never both hold; one of them holds on
// every row whose v is not NULL (here: every row).
prop_check!(excluded_middle, small_table(), |t| {
    let db = db_with(t.clone());
    let p = || Expr::col("v").gt(Expr::lit(0.0));
    let not_p = || Expr::col("v").le(Expr::lit(0.0));
    let none = db.run_plan(&LogicalPlan::scan("t").filter(p().and(not_p()))).unwrap();
    prop_assert_eq!(none.num_rows(), 0);
    let all = db.run_plan(&LogicalPlan::scan("t").filter(p().or(not_p()))).unwrap();
    prop_assert_eq!(all.num_rows(), t.num_rows());
    Ok(())
});

fn sum_of(column: &str, output_name: &str) -> AggExpr {
    AggExpr { func: AggFunc::Sum, input: Expr::col(column), output_name: output_name.into() }
}

fn ascending(column: &str) -> Vec<SortKey> {
    vec![SortKey { expr: Expr::col(column), ascending: true }]
}

// SUM over groups equals the global SUM.
prop_check!(group_sums_partition_global_sum, small_table(), |t| {
    let db = db_with(t.clone());
    let global = db.run_plan(&LogicalPlan::scan("t").aggregate(vec![], vec![sum_of("v", "s")]));
    let global = global.unwrap();
    let by_s = vec![(Expr::col("s"), "s".to_string())];
    let grouped = db.run_plan(&LogicalPlan::scan("t").aggregate(by_s, vec![sum_of("v", "part")]));
    let grouped = grouped.unwrap();
    let total = global.cell(0, 0).as_f64();
    let parts: f64 = (0..grouped.num_rows()).filter_map(|i| grouped.cell(i, 1).as_f64()).sum();
    match total {
        None => prop_assert_eq!(grouped.num_rows(), 0),
        Some(total) => prop_assert!((total - parts).abs() < 1e-6, "{total} vs {parts}"),
    }
    Ok(())
});

// Sorting produces a sorted permutation of the input.
prop_check!(sort_is_permutation_and_ordered, small_table(), |t| {
    let db = db_with(t.clone());
    let out = db.run_plan(&LogicalPlan::scan("t").sort(ascending("v"))).unwrap();
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

// A limit of n yields min(n, rows) and is a prefix of the unlimited result.
prop_check!(limit_prefix, zip(&small_table(), &usizes(0, 39)), |p| {
    let (t, n) = p;
    let db = db_with(t.clone());
    let full = db.run_plan(&LogicalPlan::scan("t").sort(ascending("k"))).unwrap();
    let limited = db.run_plan(&LogicalPlan::scan("t").sort(ascending("k")).limit(*n)).unwrap();
    prop_assert_eq!(limited.num_rows(), full.num_rows().min(*n));
    for i in 0..limited.num_rows() {
        prop_assert_eq!(limited.row(i), full.row(i));
    }
    Ok(())
});

// ---------------------------------------------------------------------------
// Schema: the case-insensitive scan == the lower-cased name map it replaced.
// ---------------------------------------------------------------------------

/// Name characters: mixed-case ASCII, the Kelvin sign (lower-cases to ASCII
/// `k`), `İ` (lower-cases to two chars), final and medial sigma, `ß`. Names
/// of one or two of them collide often, so duplicates are common.
const NAME_CHARS: &str = "aAkK\u{212a}i\u{130}\u{3c3}\u{3a3}\u{3c2}\u{df}";

fn column_names() -> Gen<Vec<String>> {
    vec_of(&string_of(NAME_CHARS, 1, 2), 0, 6)
}

/// The map form: `Some(name → index)` over the lower-cased names, `None`
/// when two names collide.
fn name_map(names: &[String]) -> Option<BTreeMap<String, usize>> {
    let mut map = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        if map.insert(name.to_lowercase(), i).is_some() {
            return None;
        }
    }
    Some(map)
}

/// `Schema::join` as it was: a set of the lower-cased names taken so far.
fn joined_names(left: &[String], right: &[String]) -> Vec<String> {
    let mut taken: BTreeSet<String> = left.iter().map(|n| n.to_lowercase()).collect();
    let mut out = left.to_vec();
    for name in right {
        let mut name = name.clone();
        while taken.contains(&name.to_lowercase()) {
            name = format!("right.{name}");
        }
        taken.insert(name.to_lowercase());
        out.push(name);
    }
    out
}

fn schema_of(names: &[String]) -> RelResult<Schema> {
    Schema::new(names.iter().map(|n| Column::new(n.clone(), DataType::Int)).collect())
}

/// Checks `Schema::new`, `index_of` and `join` over `left`, `right` and the
/// `probes` against the map forms; returns `(ASCII case folds, non-ASCII
/// case folds, duplicates)` seen, for the coverage test.
fn check_schema(left: &[String], right: &[String], probes: &[String]) -> (usize, usize, usize) {
    let (mut ascii, mut unicode, mut duplicates) = (0, 0, 0);
    for names in [left, right] {
        let map = name_map(names);
        assert_eq!(schema_of(names).is_ok(), map.is_some(), "{names:?}");
        duplicates += usize::from(map.is_none());
        let (Some(map), Ok(schema)) = (map, schema_of(names)) else { continue };
        for probe in names.iter().chain(probes) {
            let found = schema.index_of(probe);
            assert_eq!(found, map.get(&probe.to_lowercase()).copied(), "{names:?} {probe:?}");
            if let Some(i) = found.filter(|&i| names[i] != *probe) {
                match names[i].is_ascii() && probe.is_ascii() {
                    true => ascii += 1,
                    false => unicode += 1,
                }
            }
        }
    }
    if let (Ok(l), Ok(r)) = (schema_of(left), schema_of(right)) {
        let joined = l.join(&r);
        let names: Vec<String> = joined.columns().iter().map(|c| c.name.clone()).collect();
        let expected = joined_names(left, right);
        assert_eq!(names, expected, "{left:?} ⋈ {right:?}");
        for (i, name) in expected.iter().enumerate() {
            assert_eq!(joined.index_of(name), Some(i), "{name:?} in {expected:?}");
        }
    }
    (ascii, unicode, duplicates)
}

prop_check!(
    schema_lookup_matches_name_map,
    Config::default().with_cases(512),
    zip3(&column_names(), &column_names(), &vec_of(&string_of(NAME_CHARS, 1, 3), 0, 4)),
    |case| {
        let (left, right, probes) = case;
        check_schema(left, right, probes);
        Ok(())
    }
);

#[test]
fn schema_cases_cover_case_folds_and_duplicates() {
    let (mut ascii, mut unicode, mut duplicates) = (0, 0, 0);
    let mut rng = Rng::new(7);
    let gen = zip(&column_names(), &column_names());
    for _ in 0..256 {
        let (left, right) = gen.generate(&mut rng).value().clone();
        let (a, u, d) = check_schema(&left, &right, &[left.clone(), right.clone()].concat());
        (ascii, unicode, duplicates) = (ascii + a, unicode + u, duplicates + d);
    }
    assert!(ascii > 0 && unicode > 0 && duplicates > 0, "{ascii} {unicode} {duplicates}");
}

// ---------------------------------------------------------------------------
// Reference implementations. The executor evaluates bound expressions against
// cells in place and matches LIKE iteratively; these are the forms it
// replaced — recursive LIKE, evaluation by column name over a materialized
// row, truth tables, operators that build every row — kept as the oracles.
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

/// A binary operator on two values already computed: a comparison is NULL
/// when `Value::compare` is; AND and OR read SQL's three-valued truth
/// tables, left operand checked first.
fn ref_binary(op: BinOp, l: &Value, r: &Value) -> RelResult<Value> {
    let truth = |v: &Value| match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(mismatch("bool", other)),
    };
    let ord = match op {
        BinOp::And | BinOp::Or => {
            let (a, b) = (truth(l)?, truth(r)?);
            // The value that decides on its own: false for AND, true for OR.
            let decisive = op == BinOp::Or;
            return Ok(match (a, b) {
                _ if a == Some(decisive) || b == Some(decisive) => Value::Bool(decisive),
                (Some(_), Some(_)) => Value::Bool(!decisive),
                _ => Value::Null,
            });
        }
        _ => l.compare(r),
    };
    Ok(match (op, ord) {
        (_, None) => Value::Null,
        (BinOp::Eq, Some(o)) => Value::Bool(o == Ordering::Equal),
        (BinOp::Lt, Some(o)) => Value::Bool(o == Ordering::Less),
        (BinOp::Le, Some(o)) => Value::Bool(o != Ordering::Greater),
        (BinOp::Gt, Some(o)) => Value::Bool(o == Ordering::Greater),
        (BinOp::Ge, Some(o)) => Value::Bool(o != Ordering::Less),
        (BinOp::And | BinOp::Or, Some(_)) => unreachable!("handled above"),
    })
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
            ref_binary(*op, &l, &ref_eval(right, row, schema)?)
        }
        Expr::Like { expr, pattern } => match ref_eval(expr, row, schema)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Bool(like_recursive(&s, pattern))),
            other => Err(mismatch("str", &other)),
        },
    }
}

/// Output schema of computed rows: the unified type of the values seen
/// (Str when there is none or no unifier).
fn ref_schema(names: Vec<String>, rows: &[Vec<Value>]) -> RelResult<Schema> {
    let mut dtypes: Vec<Option<DataType>> = vec![None; names.len()];
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
            // A filter over a scan that probes reads only the probed rows.
            if let LogicalPlan::Scan { .. } = **input {
                stats.rows_scanned -= t.num_rows() - ref_rows_read(predicate, &t);
            }
            let mut kept = Vec::new();
            for row in t.rows() {
                if ref_eval(predicate, &row, t.schema())? == Value::Bool(true) {
                    kept.push(row);
                }
            }
            Table::from_rows(t.schema().clone(), kept)
        }
        LogicalPlan::Join { left, right, on } => {
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
            Table::from_rows(ref_schema(names, &rows)?, rows)
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
    }
}

/// A key leaf of the reference probe: (column, fold, is a prefix).
type RefLeaf = (usize, String, bool);

/// The rows a filter over base table `t` reads, from the probe's
/// specification, row by row: when the predicate is total (its columns
/// exist, its `LIKE`s read `Str` columns), each of its top-level conjuncts
/// that is an `OR` of key leaves — `col LIKE 'p'` without wildcards, with
/// only a trailing run of `%`, or `col = 'p'`, on a `Str` column — admits
/// the rows whose lower-cased cell equals a leaf's lower-cased `p` (or
/// starts with it); of those conjuncts the one whose leaves admit fewest
/// rows, summed per leaf, is read (the first on a tie). Otherwise every row.
fn ref_rows_read(predicate: &Expr, t: &Table) -> usize {
    let schema = t.schema();
    let str_column = |e: &Expr| match e {
        Expr::Column(name) => {
            schema.index_of(name).filter(|&i| schema.column(i).dtype == DataType::Str)
        }
        _ => None,
    };
    fn total(e: &Expr, schema: &Schema, str_column: &dyn Fn(&Expr) -> Option<usize>) -> bool {
        let operand = |e: &Expr| match e {
            Expr::Column(name) => schema.index_of(name).is_some(),
            Expr::Literal(_) => true,
            _ => false,
        };
        match e {
            Expr::Binary { op: BinOp::And | BinOp::Or, left, right } => {
                total(left, schema, str_column) && total(right, schema, str_column)
            }
            Expr::Binary { left, right, .. } => operand(left) && operand(right),
            Expr::Like { expr, .. } => str_column(expr).is_some(),
            _ => false,
        }
    }
    if !total(predicate, schema, &str_column) {
        return t.num_rows();
    }
    let leaf = |e: &Expr| -> Option<RefLeaf> {
        match e {
            Expr::Like { expr, pattern } => {
                let folded = pattern.to_lowercase();
                let stem = folded.trim_end_matches('%');
                if stem.contains(['%', '_']) {
                    return None;
                }
                Some((str_column(expr)?, stem.to_string(), stem != folded))
            }
            Expr::Binary { op: BinOp::Eq, left, right } => match &**right {
                Expr::Literal(Value::Str(p)) => Some((str_column(left)?, p.to_lowercase(), false)),
                _ => None,
            },
            _ => None,
        }
    };
    fn leaves(e: &Expr, leaf: &dyn Fn(&Expr) -> Option<RefLeaf>) -> Option<Vec<RefLeaf>> {
        match e {
            Expr::Binary { op: BinOp::Or, left, right } => {
                Some([leaves(left, leaf)?, leaves(right, leaf)?].concat())
            }
            _ => Some(vec![leaf(e)?]),
        }
    }
    fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::Binary { op: BinOp::And, left, right } => {
                conjuncts(left, out);
                conjuncts(right, out);
            }
            _ => out.push(e),
        }
    }
    let admits = |row: usize, (c, key, prefix): &RefLeaf| match t.cell(row, *c) {
        Value::Str(s) if *prefix => s.to_lowercase().starts_with(key.as_str()),
        Value::Str(s) => s.to_lowercase() == *key,
        _ => false,
    };
    let mut all = Vec::new();
    conjuncts(predicate, &mut all);
    let mut best: Option<(usize, Vec<RefLeaf>)> = None;
    for ls in all.into_iter().filter_map(|c| leaves(c, &leaf)) {
        let sum = ls.iter().map(|l| (0..t.num_rows()).filter(|&r| admits(r, l)).count()).sum();
        if best.as_ref().is_none_or(|(b, _)| sum < *b) {
            best = Some((sum, ls));
        }
    }
    match best {
        Some((_, ls)) => (0..t.num_rows()).filter(|&r| ls.iter().any(|l| admits(r, l))).count(),
        None => t.num_rows(),
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
        1..=4 => Expr::Literal(random_value(rng)),
        5 => Expr::col(pick(rng, &NAMES)),
        _ if cols.is_empty() => Expr::Literal(random_value(rng)),
        _ => Expr::col(pick(rng, cols)),
    }
}

/// A predicate-shaped expression; one time in ten a scalar instead.
fn random_pred(rng: &mut Rng, cols: &[String], depth: usize) -> Expr {
    let scalar = |rng: &mut Rng| Box::new(random_scalar(rng, cols, depth.saturating_sub(1)));
    let pred = |rng: &mut Rng| Box::new(random_pred(rng, cols, depth.saturating_sub(1)));
    match rng.gen_range(0..if depth == 0 { 5 } else { 8usize }) {
        0 => *scalar(rng),
        1 | 2 => {
            use BinOp::*;
            let op = pick(rng, &[Eq, Lt, Le, Gt, Ge]);
            Expr::Binary { op, left: scalar(rng), right: scalar(rng) }
        }
        3 | 4 => {
            let pattern = pick(rng, &["a%", "%B", "_", "%\u{3c3}%", "A", "%a_%"]).to_string();
            Expr::Like { expr: scalar(rng), pattern }
        }
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
    match rng.gen_range(0..6usize) {
        0 | 1 => (input.filter(random_pred(rng, &cols, 3)), cols),
        2 => {
            let group_by: Vec<_> = (0..rng.gen_range(0..3usize)).map(|_| named(rng)).collect();
            let aggs: Vec<_> = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    use AggFunc::*;
                    let func = pick(rng, &[Count, Sum, Avg, Min, Max]);
                    let (input, output_name) = named(rng);
                    AggExpr { func, input, output_name }
                })
                .collect();
            let names = group_by.iter().map(|(_, n)| n.clone());
            let names = names.chain(aggs.iter().map(|a| a.output_name.clone())).collect();
            (input.aggregate(group_by, aggs), names)
        }
        3 => {
            let keys = (0..rng.gen_range(1..3usize)).map(|_| SortKey {
                expr: random_scalar(rng, &cols, 2),
                ascending: rng.gen_bool(0.5),
            });
            (input.sort(keys.collect()), cols)
        }
        4 => (input.limit(rng.gen_range(0..8usize)), cols),
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
            let plan = input.join(right, on);
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
        prop_assert_eq!(db.run_plan_with_limits_stats(plan, &limits), (expected, ref_stats));
        Ok(())
    }
);

/// The variants a plan is built from, each named by an exhaustive match: a
/// new variant does not compile here until the coverage test below names
/// it, and then fails until the generator builds it.
fn collect_variants(plan: &LogicalPlan, seen: &mut BTreeSet<&'static str>) {
    fn expr(e: &Expr, seen: &mut BTreeSet<&'static str>) {
        match e {
            Expr::Column(_) => seen.insert("Column"),
            Expr::Literal(_) => seen.insert("Literal"),
            Expr::Binary { op, left, right } => {
                expr(left, seen);
                expr(right, seen);
                seen.insert(match op {
                    BinOp::Eq => "Eq",
                    BinOp::Lt => "Lt",
                    BinOp::Le => "Le",
                    BinOp::Gt => "Gt",
                    BinOp::Ge => "Ge",
                    BinOp::And => "And",
                    BinOp::Or => "Or",
                })
            }
            Expr::Like { expr: inner, .. } => {
                expr(inner, seen);
                seen.insert("Like")
            }
        };
    }
    let name = match plan {
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::Filter { input, predicate } => {
            collect_variants(input, seen);
            expr(predicate, seen);
            "Filter"
        }
        LogicalPlan::Join { left, right, .. } => {
            collect_variants(left, seen);
            collect_variants(right, seen);
            "Join"
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            collect_variants(input, seen);
            group_by.iter().for_each(|(e, _)| expr(e, seen));
            for a in aggs {
                expr(&a.input, seen);
                seen.insert(match a.func {
                    AggFunc::Count => "Count",
                    AggFunc::Sum => "Sum",
                    AggFunc::Avg => "Avg",
                    AggFunc::Min => "Min",
                    AggFunc::Max => "Max",
                });
            }
            "Aggregate"
        }
        LogicalPlan::Sort { input, keys } => {
            collect_variants(input, seen);
            keys.iter().for_each(|k| expr(&k.expr, seen));
            "Sort"
        }
        LogicalPlan::Limit { input, .. } => {
            collect_variants(input, seen);
            "Limit"
        }
    };
    seen.insert(name);
}

/// The differential property above sees every surviving plan, expression,
/// operator and aggregate variant.
#[test]
fn generated_plans_cover_every_variant() {
    let mut seen = BTreeSet::new();
    let mut rng = Rng::new(7);
    for _ in 0..256 {
        collect_variants(&plans().generate(&mut rng).value().0, &mut seen);
    }
    let every: BTreeSet<&str> = [
        "Scan",
        "Filter",
        "Join",
        "Aggregate",
        "Sort",
        "Limit", // plans
        "Column",
        "Literal",
        "Like", // expressions (and Binary, by its operators)
        "Eq",
        "Lt",
        "Le",
        "Gt",
        "Ge",
        "And",
        "Or", // operators
        "Count",
        "Sum",
        "Avg",
        "Min",
        "Max", // aggregates
    ]
    .into();
    assert_eq!(seen, every);
}

// ---------------------------------------------------------------------------
// Index probe == scan.
// ---------------------------------------------------------------------------

/// String cells and the patterns made from them: mixed case, and the folds
/// where `str::to_lowercase` differs from an ASCII or per-char fold — a
/// final sigma, `İ` (two chars lower-cased) and the Kelvin sign (an ASCII
/// `k` lower-cased) — plus period-like values that a `'p %'` prefix reads.
const WORDS: &[&str] = &[
    "Aero",
    "aero",
    "\u{212a}elvin",
    "kelvin",
    "\u{39f}\u{394}\u{39f}\u{3a3}",
    "\u{3bf}\u{3b4}\u{3bf}\u{3c2}",
    "\u{130}pek",
    "i\u{307}pek",
    "Q2 2023",
    "q2 2023 rev",
    "Q2 20234",
];

/// A pattern or literal made from a word: itself, re-cased, absent, with
/// a trailing `%` or `' %'`, or with a `_` (which is never probed).
fn probe_word(rng: &mut Rng) -> String {
    let w = pick(rng, WORDS);
    match rng.gen_range(0..8usize) {
        0 => w.to_uppercase(),
        1 => w.to_lowercase(),
        2 => "Phantom".to_string(),
        3 => format!("{w}%"),
        4 => format!("{w} %"),
        5 => w.replacen(|c: char| c.is_alphabetic(), "_", 1),
        _ => w.to_string(),
    }
}

/// A leaf on a string column — mostly one that exists, under another
/// case, sometimes a float column or none (never probed).
fn probe_leaf(rng: &mut Rng) -> Expr {
    let columns = ["product", "product", "Product", "quarter", "quarter", "amount", "nope"];
    let column = Expr::col(pick(rng, &columns));
    match rng.gen_range(0..10usize) {
        0..=6 => Expr::Like { expr: Box::new(column), pattern: probe_word(rng) },
        7 | 8 => column.eq(Expr::lit(probe_word(rng))),
        _ => column.gt(Expr::lit(1i64)),
    }
}

/// A predicate of one to three conjuncts, each an `OR` of leaves or a
/// numeric threshold.
fn probe_predicates() -> Gen<Expr> {
    Gen::raw(|rng| {
        let conjunct = |rng: &mut Rng| {
            if rng.gen_bool(0.25) {
                Expr::col("amount").gt(Expr::lit(rng.gen_range(0..4i64)))
            } else {
                let n = rng.gen_range(1..=3usize);
                (0..n).map(|_| probe_leaf(rng)).reduce(Expr::or).expect("a leaf")
            }
        };
        let k = rng.gen_range(1..=3usize);
        (0..k).map(|_| conjunct(rng)).reduce(Expr::and).expect("a conjunct")
    })
}

/// `t(Product STR, quarter STR, amount FLOAT)` over the word pool, NULLs
/// anywhere.
fn probe_tables() -> Gen<Table> {
    let words =
        one_of(vec![just(Value::Null), usizes(0, WORDS.len() - 1).map(|&i| Value::str(WORDS[i]))]);
    let amounts = one_of(vec![just(Value::Null), i8s(0, 4).map(|&i| Value::Float(f64::from(i)))]);
    vec_of(&zip3(&words, &words, &amounts), 0, 16).map(|rows| {
        let schema = Schema::of(&[
            ("Product", DataType::Str),
            ("quarter", DataType::Str),
            ("amount", DataType::Float),
        ]);
        let rows = rows.iter().map(|(p, q, a)| vec![p.clone(), q.clone(), a.clone()]).collect();
        Table::from_rows(schema, rows).expect("typed rows")
    })
}

/// Runs `predicate` over `t` probed and scanned; returns whether it was
/// probed and whether the probe read through a prefix.
fn check_probe(t: &Table, predicate: &Expr) -> Result<(bool, bool), String> {
    let db = db_with(t.clone());
    let limits = ExecLimits::default();
    let probed =
        db.run_plan_with_limits_stats(&LogicalPlan::scan("t").filter(predicate.clone()), &limits);
    // A filter over anything but a scan evaluates every row.
    let scan = LogicalPlan::scan("t").limit(usize::MAX).filter(predicate.clone());
    let scanned = db.run_plan_with_limits_stats(&scan, &limits);
    prop_assert_eq!(&probed.0, &scanned.0, "rows, order and error of {predicate}");
    let (table, index) = db.indexed("t").expect("registered");
    let Some(probe) = index.probe(predicate, table.schema()) else {
        prop_assert_eq!(probed.1.rows_scanned, t.num_rows());
        return Ok((false, false));
    };
    let read = index.rows(&probe);
    prop_assert_eq!(probed.1.rows_scanned, read.len(), "{probe}");
    prop_assert!(read.len() <= t.num_rows());
    prop_assert_eq!(probe.is_empty(), read.is_empty());
    Ok((true, probe.conjunct().to_string().contains("%')")))
}

// A filter over a base table returns the same rows, in the same order, or
// the same error, whether it reads the rows its probe names or scans the
// table. 64 cases here; `ci.sh` runs 1024.
prop_check!(probe_equals_scan, zip(&probe_tables(), &probe_predicates()), |case| {
    check_probe(&case.0, &case.1).map(|_| ())
});

/// The differential above sees probed and scanned filters, and prefix
/// probes, in numbers.
#[test]
fn probe_cases_cover_probes_prefixes_and_scans() {
    let gen = zip(&probe_tables(), &probe_predicates());
    let mut rng = Rng::new(0x1DE);
    let (mut probed, mut prefixes, mut scanned) = (0, 0, 0);
    for _ in 0..400 {
        let (t, p) = gen.generate(&mut rng).value().clone();
        match check_probe(&t, &p).expect("the property holds") {
            (true, prefix) => (probed, prefixes) = (probed + 1, prefixes + usize::from(prefix)),
            (false, _) => scanned += 1,
        }
    }
    assert!(probed >= 80 && prefixes >= 20 && scanned >= 80, "{probed} {prefixes} {scanned}");
}
