//! The per-column value index kept beside each base table (DESIGN.md §5b).
//!
//! [`Database`](crate::Database) keeps one [`TableIndex`] beside every
//! table it registers — never inside [`Table`], which every operator
//! builds afresh — and maintains it as rows are appended, in O(row). It is
//! derived state: built from the table, never persisted. For every column
//! it holds the distinct non-NULL values, keyed by [`Value::group_key`]
//! (within one column's type, equal keys are exactly
//! [`Value::sort_cmp`]-equal values): the planner's cardinalities. For a
//! `Str` column it also maps each value's
//! `str::to_lowercase` fold — the fold `LIKE` applies to both its sides —
//! to the ascending ids of the rows holding it.
//!
//! A filter over a base table reads its candidate rows through that map
//! instead of scanning when its predicate has a key conjunct ([`Probe`]):
//! the rows it reads are a superset of the rows the predicate keeps, and it
//! evaluates on them, in ascending order, only the conjuncts the probe did
//! not prove ([`Probe::residual`]), so it returns what the scan returns.
//! A `LIKE` key proves its leaf: `LIKE` folds both its sides with
//! `str::to_lowercase`, the fold the map is keyed by, so every row under a
//! wildcard-free pattern's fold, or in a `'p%'` prefix's range, satisfies
//! that leaf. An `=` key does not: `=` is case-sensitive, so the rows
//! under its fold are only a superset of the rows it keeps.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;

use crate::expr::{BinOp, Expr};
use crate::schema::{DataType, Schema};
use crate::table::Table;
use crate::value::{GroupKey, Value};

/// What the index keeps for one column.
#[derive(Debug, Clone, PartialEq, Default)]
struct ColumnIndex {
    /// Distinct non-NULL values.
    distinct: BTreeSet<GroupKey>,
    /// For a `Str` column: each fold → the ascending ids of its rows.
    keys: Option<BTreeMap<String, Vec<usize>>>,
}

impl ColumnIndex {
    fn new(dtype: DataType) -> Self {
        Self { keys: (dtype == DataType::Str).then(BTreeMap::new), ..Self::default() }
    }

    fn insert(&mut self, row: usize, v: &Value) {
        if v.is_null() {
            return;
        }
        if let (Some(keys), Value::Str(s)) = (&mut self.keys, v) {
            keys.entry(s.to_lowercase()).or_default().push(row);
        }
        self.distinct.insert(v.group_key());
    }

    /// Calls `f` with each row-id list under `key`: the one list of that
    /// fold, or, for a prefix, the list of every fold starting with it.
    fn postings(&self, key: &Key, mut f: impl FnMut(&[usize])) {
        let Some(keys) = &self.keys else { return };
        match key {
            Key::Like(k) | Key::Eq(k) => keys.get(k.as_str()).into_iter().for_each(|rows| f(rows)),
            Key::Prefix(p) => keys
                .range::<str, _>((Bound::Included(p.as_str()), Bound::Unbounded))
                .take_while(|(k, _)| k.starts_with(p.as_str()))
                .for_each(|(_, rows)| f(rows)),
        }
    }
}

/// The value index of one table: per column, its distinct count and, for a
/// `Str` column, its folds' row ids.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableIndex {
    columns: Vec<ColumnIndex>,
}

impl TableIndex {
    /// Indexes every row of `table`.
    pub(crate) fn build(table: &Table) -> Self {
        let mut index = Self {
            columns: table.schema().columns().iter().map(|c| ColumnIndex::new(c.dtype)).collect(),
        };
        for (i, column) in index.columns.iter_mut().enumerate() {
            for (row, v) in table.column(i).iter().enumerate() {
                column.insert(row, v);
            }
        }
        index
    }

    /// Takes in row `row` of `table`: the row just appended.
    pub(crate) fn insert(&mut self, table: &Table, row: usize) {
        for (i, column) in self.columns.iter_mut().enumerate() {
            column.insert(row, table.cell(row, i));
        }
    }

    /// Distinct non-NULL values in column `column`, told apart as
    /// [`Value::sort_cmp`] tells them apart: `'A'` and `'a'` are two,
    /// `0.0` and `-0.0` one.
    pub fn distinct(&self, column: usize) -> usize {
        self.columns[column].distinct.len()
    }

    /// The probe a filter with `predicate` over the table this index
    /// describes (of schema `schema`) reads its rows through, when it has
    /// one.
    ///
    /// A predicate is probed only when it is **total** — every column it
    /// names exists and every `LIKE` reads a `Str` column, so it evaluates
    /// on every row to a boolean or NULL and never raises an error — and
    /// some top-level `AND` conjunct is a **key conjunct**: an `OR` of
    /// leaves on `Str` columns, each `col LIKE 'p'` with a wildcard-free
    /// `p`, `col LIKE 'p%'` (a trailing run of `%`, the rest
    /// wildcard-free), or `col = 'p'`. A row that satisfies such a leaf
    /// has a fold equal to `p`'s (or starting with it), so the rows under
    /// those folds hold every row the predicate keeps. Of several key
    /// conjuncts the one with the fewest rows under its folds is read (the
    /// first on a tie).
    pub fn probe<'e>(&self, predicate: &'e Expr, schema: &Schema) -> Option<Probe<'e>> {
        if !is_total(predicate, schema) {
            return None;
        }
        let mut conjuncts = Vec::new();
        top_level_conjuncts(predicate, &mut conjuncts);
        // (position of the key conjunct, its leaves, rows under their folds)
        let mut best: Option<(usize, Vec<Leaf<'e>>, usize)> = None;
        for (at, conjunct) in conjuncts.iter().enumerate() {
            let mut leaves = Vec::new();
            if !key_leaves(conjunct, schema, &mut leaves) {
                continue;
            }
            let mut reads = 0;
            for l in &leaves {
                self.columns[l.column].postings(&l.key, |rows| reads += rows.len());
            }
            if best.as_ref().is_none_or(|(_, _, fewest)| reads < *fewest) {
                best = Some((at, leaves, reads));
            }
        }
        best.map(|(key, leaves, reads)| Probe { conjuncts, key, leaves, reads })
    }

    /// The rows `probe` reads, ascending and without repeats.
    pub fn rows(&self, probe: &Probe<'_>) -> Vec<usize> {
        let mut rows = Vec::with_capacity(probe.reads);
        for leaf in &probe.leaves {
            self.columns[leaf.column].postings(&leaf.key, |ids| rows.extend_from_slice(ids));
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

/// How a filter reads its candidate rows from a [`TableIndex`]: the key
/// conjunct [`TableIndex::probe`] chose, and its leaves' folds. Displays
/// as the explain plan shows it, e.g. `probe product: 2 keys`.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe<'e> {
    /// The predicate's top-level `AND` conjuncts, left to right.
    conjuncts: Vec<&'e Expr>,
    /// The position of the key conjunct in `conjuncts`.
    key: usize,
    leaves: Vec<Leaf<'e>>,
    /// Rows under the leaves' folds, a row under two of them counted
    /// twice: at least the rows read, and 0 exactly when none is.
    reads: usize,
}

impl<'e> Probe<'e> {
    /// The conjunct the probe reads through.
    pub fn conjunct(&self) -> &'e Expr {
        self.conjuncts[self.key]
    }

    /// The conjuncts a filter still evaluates on the rows the probe reads,
    /// left to right: every top-level conjunct but the key conjunct when
    /// each of its leaves is a `LIKE`, which every row read satisfies (so
    /// the conjunct is true there, and `true AND x` is `x`); every
    /// conjunct when a leaf is an `=`, whose rows are a superset of the
    /// rows it keeps. A probed predicate is total, so no conjunct left
    /// out could have raised an error.
    pub fn residual(&self) -> impl Iterator<Item = &'e Expr> + '_ {
        let proven = self.leaves.iter().all(|l| l.key.proves()).then_some(self.key);
        self.conjuncts
            .iter()
            .enumerate()
            .filter(move |&(at, _)| Some(at) != proven)
            .map(|(_, c)| *c)
    }

    /// True when no row has any of the conjunct's folds: then no row
    /// satisfies the conjunct, nor the predicate.
    pub fn is_empty(&self) -> bool {
        self.reads == 0
    }
}

impl fmt::Display for Probe<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = Vec::new();
        for leaf in &self.leaves {
            if !names.contains(&leaf.name) {
                names.push(leaf.name);
            }
        }
        let n = self.leaves.len();
        write!(f, "probe {}: {n} key{}", names.join(", "), if n == 1 { "" } else { "s" })
    }
}

/// One leaf of a key conjunct: a `Str` column and the fold it asks for.
#[derive(Debug, Clone, PartialEq)]
struct Leaf<'e> {
    /// The column as the predicate names it.
    name: &'e str,
    column: usize,
    key: Key,
}

/// A fold, or a prefix of folds, and the kind of leaf that asks for it.
#[derive(Debug, Clone, PartialEq)]
enum Key {
    /// The fold of a wildcard-free `LIKE` pattern.
    Like(String),
    /// The folds starting with the stem of a `LIKE 'p%'` pattern.
    Prefix(String),
    /// The fold of an `=` literal.
    Eq(String),
}

impl Key {
    /// Whether every row under the key satisfies its leaf: true for a
    /// `LIKE` key, false for an `=` one (see the module docs).
    fn proves(&self) -> bool {
        !matches!(self, Key::Eq(_))
    }
}

/// Whether `e` evaluates on every row of a table of `schema` to a boolean
/// or NULL without error: `AND`/`OR` over comparisons between the
/// schema's columns and literals, and over `LIKE`s reading its `Str`
/// columns.
fn is_total(e: &Expr, schema: &Schema) -> bool {
    let operand = |e: &Expr| match e {
        Expr::Column(c) => schema.index_of(c).is_some(),
        Expr::Literal(_) => true,
        _ => false,
    };
    match e {
        Expr::Binary { op: BinOp::And | BinOp::Or, left, right } => {
            is_total(left, schema) && is_total(right, schema)
        }
        Expr::Binary { left, right, .. } => operand(left) && operand(right),
        Expr::Like { expr, .. } => str_column(expr, schema).is_some(),
        Expr::Column(_) | Expr::Literal(_) => false,
    }
}

/// The top-level `AND` conjuncts of `e`, left to right.
fn top_level_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary { op: BinOp::And, left, right } => {
            top_level_conjuncts(left, out);
            top_level_conjuncts(right, out);
        }
        _ => out.push(e),
    }
}

/// Collects the leaves of `e` into `out` when `e` is an `OR` of key leaves;
/// false otherwise.
fn key_leaves<'e>(e: &'e Expr, schema: &Schema, out: &mut Vec<Leaf<'e>>) -> bool {
    let leaf = |column: &'e Expr, key: Option<Key>| {
        let (name, column) = str_column(column, schema)?;
        Some(Leaf { name, column, key: key? })
    };
    let found = match e {
        Expr::Binary { op: BinOp::Or, left, right } => {
            return key_leaves(left, schema, out) && key_leaves(right, schema, out);
        }
        Expr::Binary { op: BinOp::Eq, left, right } => match &**right {
            Expr::Literal(Value::Str(p)) => leaf(left, Some(Key::Eq(p.to_lowercase()))),
            _ => None,
        },
        Expr::Like { expr, pattern } => leaf(expr, like_key(pattern)),
        _ => None,
    };
    found.map(|l| out.push(l)).is_some()
}

/// The fold a `LIKE` pattern asks for — the pattern lower-cased as the
/// matcher lower-cases it — when it has no wildcard but a trailing run of
/// `%`, which makes it a prefix.
fn like_key(pattern: &str) -> Option<Key> {
    let folded = pattern.to_lowercase();
    let stem = folded.trim_end_matches('%');
    if stem.contains(['%', '_']) {
        None
    } else if stem.len() < folded.len() {
        Some(Key::Prefix(stem.to_string()))
    } else {
        Some(Key::Like(folded))
    }
}

/// The name and index of the `Str` column `e` names, when it names one.
fn str_column<'e>(e: &'e Expr, schema: &Schema) -> Option<(&'e str, usize)> {
    match e {
        Expr::Column(name) => {
            let i = schema.index_of(name)?;
            (schema.column(i).dtype == DataType::Str).then_some((name.as_str(), i))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::from_rows(
            Schema::of(&[("Product", DataType::Str), ("amount", DataType::Float)]),
            vec![
                vec![Value::str("Aero"), Value::Float(1.0)],
                vec![Value::str("AERO x"), Value::Float(-0.0)],
                vec![Value::Null, Value::Float(0.0)],
                vec![Value::str("\u{212a}elvin"), Value::Null],
                vec![Value::str("aero"), Value::Int(1)],
            ],
        )
        .expect("typed rows")
    }

    fn like(column: &str, pattern: &str) -> Expr {
        Expr::Like { expr: Box::new(Expr::col(column)), pattern: pattern.into() }
    }

    #[test]
    fn counts_tell_values_apart_as_sort_cmp_does() {
        let index = TableIndex::build(&table());
        // "Aero", "AERO x", "Kelvin", "aero": case-sensitive.
        assert_eq!(index.distinct(0), 4);
        // 1.0 twice (once widened from an int); -0.0 = 0.0; NULL is no value.
        assert_eq!(index.distinct(1), 2);
    }

    #[test]
    fn appending_row_by_row_equals_building_at_once() {
        let full = table();
        let mut grown = Table::empty(full.schema().clone());
        let mut index = TableIndex::build(&grown);
        for row in full.rows() {
            grown.push_row(row).expect("typed row");
            index.insert(&grown, grown.num_rows() - 1);
        }
        assert_eq!(index, TableIndex::build(&full));
    }

    #[test]
    fn probes_read_the_rows_under_their_folds() {
        let t = table();
        let index = TableIndex::build(&t);
        let rows = |p: &Expr| index.probe(p, t.schema()).map(|probe| index.rows(&probe));
        assert_eq!(rows(&like("product", "AERO")), Some(vec![0, 4]));
        assert_eq!(rows(&like("product", "aero%")), Some(vec![0, 1, 4]));
        // The Kelvin sign folds to an ASCII `k`.
        assert_eq!(rows(&like("product", "kel%")), Some(vec![3]));
        assert_eq!(rows(&Expr::col("product").eq(Expr::lit("Aero"))), Some(vec![0, 4]));
        let either = like("product", "phantom").or(like("product", "aero x"));
        assert_eq!(rows(&either), Some(vec![1]));
        let probe = index.probe(&either, t.schema()).expect("a key conjunct");
        assert_eq!(probe.to_string(), "probe product: 2 keys");
        assert!(index.probe(&like("product", "phantom"), t.schema()).expect("probed").is_empty());
    }

    #[test]
    fn the_conjunct_with_the_fewest_rows_is_read() {
        let t = table();
        let index = TableIndex::build(&t);
        let wide = like("product", "a%");
        let narrow = like("product", "aero x");
        let amount = Expr::col("amount").gt(Expr::lit(0i64));
        let p = wide.clone().and(amount).and(narrow.clone());
        let probe = index.probe(&p, t.schema()).expect("a key conjunct");
        assert_eq!(probe.conjunct(), &narrow);
        let tie = narrow.clone().and(like("product", "aero x%"));
        assert_eq!(index.probe(&tie, t.schema()).expect("probed").conjunct(), &narrow);
    }

    #[test]
    fn only_total_predicates_with_key_conjuncts_are_probed() {
        let t = table();
        let index = TableIndex::build(&t);
        let probed = |p: Expr| index.probe(&p, t.schema()).is_some();
        let key = || like("product", "aero");
        assert!(!probed(like("product", "a_ro")), "`_` is a wildcard");
        assert!(!probed(like("product", "%ero")), "a leading `%` is no prefix");
        assert!(!probed(key().or(Expr::col("amount").gt(Expr::lit(0i64)))), "not every leaf a key");
        assert!(!probed(key().and(like("amount", "1"))), "LIKE over a float");
        assert!(!probed(key().and(Expr::col("nope").gt(Expr::lit(1i64)))), "unknown column");
        assert!(!probed(key().and(Expr::lit(true))), "a bare literal");
        assert!(!probed(Expr::col("amount").eq(Expr::lit("aero"))), "not a Str column");
        assert!(probed(key().and(Expr::col("amount").gt(Expr::lit(0i64)))));
    }

    fn residual(index: &TableIndex, t: &Table, p: &Expr) -> Vec<Expr> {
        index.probe(p, t.schema()).expect("a key conjunct").residual().cloned().collect()
    }

    #[test]
    fn a_like_key_conjunct_is_left_out_of_the_residual() {
        let t = table();
        let index = TableIndex::build(&t);
        let positive = Expr::col("amount").gt(Expr::lit(0i64));
        let small = Expr::col("amount").lt(Expr::lit(5i64));
        // Exact, prefix and an OR of both: each is proven on every row read.
        for key in [
            like("product", "AERO"),
            like("product", "aero%"),
            like("product", "kel%").or(like("product", "aero x")),
        ] {
            assert_eq!(residual(&index, &t, &key), Vec::<Expr>::new(), "{key}");
            let p = positive.clone().and(key.clone()).and(small.clone());
            assert_eq!(residual(&index, &t, &p), vec![positive.clone(), small.clone()], "{key}");
        }
    }

    #[test]
    fn a_key_conjunct_with_an_eq_leaf_stays_in_the_residual() {
        let t = table();
        let index = TableIndex::build(&t);
        let positive = Expr::col("amount").gt(Expr::lit(0i64));
        let eq = Expr::col("product").eq(Expr::lit("aero"));
        let mixed = like("product", "aero x").or(eq.clone());
        for key in [eq, mixed] {
            let p = key.clone().and(positive.clone());
            assert_eq!(residual(&index, &t, &p), vec![key.clone(), positive.clone()], "{key}");
        }
    }

    #[test]
    fn only_the_probed_copy_of_a_repeated_conjunct_is_left_out() {
        let mut db = crate::Database::new();
        db.create_table("t", table()).expect("fresh");
        let (t, index) = db.indexed("t").expect("registered");
        let key = like("product", "aero");
        let twice = key.clone().and(key.clone());
        assert_eq!(residual(index, t, &twice), vec![key.clone()]);
        // Probed, the repeat still filters as a scan does: rows 0 and 4.
        let scan = |p: &Expr| crate::LogicalPlan::scan("t").limit(usize::MAX).filter(p.clone());
        let between = key.clone().and(Expr::col("amount").gt(Expr::lit(0i64))).and(key);
        for p in [twice, between] {
            let probed = db.run_plan(&crate::LogicalPlan::scan("t").filter(p.clone()));
            assert_eq!(probed, db.run_plan(&scan(&p)), "{p}");
            assert_eq!(probed.expect("total").num_rows(), 2, "{p}");
        }
    }
}
