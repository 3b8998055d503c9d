//! Catalog pruning (DESIGN.md §11g): a relational candidate whose scan
//! filter the table's value index proves empty is passed over, not run.
//!
//! The proof is narrow on purpose. [`prune_reason`] prunes a plan only when
//!
//! - **(a, b)** the filter over its scan has a probe
//!   ([`TableIndex::probe`](unisem_relstore::TableIndex::probe)) — it is
//!   total: every column it names exists and every `LIKE` reads a `Str`
//!   column, so no row could have raised the unknown-column or type error
//!   that a run records as a failure, and pruning would hide; and a
//!   top-level `AND` conjunct is an `OR` of `Str`-column key leaves — and
//!   that probe's candidate set is empty: no row's fold is a leaf's key or
//!   starts with a prefix leaf's, so no row passes that conjunct. It is the
//!   probe the executor would read the filter's rows through, so pruning
//!   and execution cannot disagree about it; and
//! - **(c)** the operators above the filter make a result without signal
//!   of no rows, and raise nothing doing so.
//!
//! Run, a pruned plan would return a result [`has_signal`] rejects, which
//! the executor passes over silently: answers and degradations are the
//! same with pruning as without.

use unisem_relstore::plan::{AggFunc, LogicalPlan as RelPlan};
use unisem_relstore::schema::same_name;
use unisem_relstore::{Database, Expr, Table};

/// Why running `plan` against `db` cannot yield a signal-bearing result,
/// when the value index proves it; `None` when the plan must run.
pub fn prune_reason(plan: &RelPlan, db: &Database) -> Option<String> {
    let ((table, predicate), _) = base_filter(plan)?;
    let (table, index) = db.indexed(table).ok()?;
    let probe = index.probe(predicate, table.schema())?;
    probe.is_empty().then(|| format!("{} matches no catalog value", probe.conjunct()))
}

/// A result carries signal when it has rows and at least one non-null cell
/// in its final (aggregate) column: what a relational candidate must return
/// to answer, and what a pruned one provably would not.
pub fn has_signal(result: &Table) -> bool {
    if result.is_empty() || result.num_columns() == 0 {
        return false;
    }
    let last = result.num_columns() - 1;
    (0..result.num_rows()).any(|r| !result.cell(r, last).is_null())
}

/// The table and predicate of `plan`'s `Filter` over a `Scan`, and whether
/// the plan turns no filtered rows into one row (`true`) or none — when
/// that result carries no signal and computing it raises no error
/// (condition (c)). Over no rows nothing above the filter evaluates an
/// expression: filters, sorts and grouped aggregates pass no rows on, and
/// an aggregate without groups makes one row, whose last column is NULL
/// unless its last function is `COUNT`; only `LIMIT`s may sit above that
/// row, as a filter or sort would evaluate it. An aggregate's output names
/// must be distinct, since its schema is built even over no rows.
fn base_filter(plan: &RelPlan) -> Option<((&str, &Expr), bool)> {
    fn no_rows(input: &RelPlan) -> Option<((&str, &Expr), bool)> {
        base_filter(input).filter(|(_, one_row)| !one_row)
    }
    match plan {
        RelPlan::Filter { input, predicate } => match &**input {
            RelPlan::Scan { table } => Some(((table.as_str(), predicate), false)),
            input => no_rows(input),
        },
        RelPlan::Sort { input, .. } => no_rows(input),
        RelPlan::Limit { input, .. } => base_filter(input),
        RelPlan::Aggregate { input, group_by, aggs } => {
            let (base, _) = no_rows(input)?;
            let names: Vec<&str> = group_by
                .iter()
                .map(|(_, name)| name.as_str())
                .chain(aggs.iter().map(|a| a.output_name.as_str()))
                .collect();
            let distinct =
                names.iter().enumerate().all(|(i, n)| names[..i].iter().all(|m| !same_name(m, n)));
            let silent =
                !group_by.is_empty() || aggs.last().is_none_or(|a| a.func != AggFunc::Count);
            (distinct && silent).then_some((base, group_by.is_empty()))
        }
        RelPlan::Scan { .. } | RelPlan::Join { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_relstore::{AggExpr, DataType, Schema, Value};

    /// A `sales` table whose subject column is spelt `Product`, while plans
    /// name it `product`, as the synthesizer does.
    fn catalog() -> Database {
        let table = Table::from_rows(
            Schema::of(&[
                ("Product", DataType::Str),
                ("quarter", DataType::Str),
                ("amount", DataType::Float),
            ]),
            vec![
                vec![Value::str("Aero Widget"), Value::str("Q1 2024"), Value::Float(1.0)],
                vec![Value::str("Nova"), Value::Null, Value::Null],
            ],
        )
        .expect("typed rows");
        let mut db = Database::new();
        db.create_table("sales", table).expect("fresh");
        db
    }

    fn like(column: &str, pattern: &str) -> Expr {
        Expr::Like { expr: Box::new(Expr::col(column)), pattern: pattern.into() }
    }

    fn filtered(predicate: Expr) -> RelPlan {
        RelPlan::scan("sales").filter(predicate)
    }

    fn over_amount(func: AggFunc, output_name: &str) -> AggExpr {
        AggExpr { func, input: Expr::col("amount"), output_name: output_name.into() }
    }

    #[test]
    fn a_filter_no_catalog_value_matches_is_pruned() {
        let cat = catalog();
        let pruned = |p: Expr| prune_reason(&filtered(p), &cat);
        let reason = pruned(like("product", "Phantom")).expect("no product is 'phantom'");
        assert_eq!(reason, "(product LIKE 'Phantom') matches no catalog value");
        assert!(pruned(Expr::col("product").eq(Expr::lit("Phantom"))).is_some());
        assert!(pruned(like("product", "Phantom").or(like("product", "Gizmo"))).is_some());
        let conjuncts = like("quarter", "q1%").and(like("product", "Phantom"));
        assert!(pruned(conjuncts).is_some(), "one refuted conjunct is enough");

        assert_eq!(pruned(like("product", "AERO WIDGET")), None, "LIKE folds case");
        assert_eq!(pruned(like("product", "Phan_om")), None, "a wildcard matches what it likes");
        assert_eq!(pruned(like("product", "Phantom").or(like("product", "nova"))), None);
        assert_eq!(pruned(like("quarter", "Q1 2024").or(like("quarter", "Q1 2024 %"))), None);
        assert_eq!(pruned(like("product", "aero%")), None, "a prefix of a catalog value");
        let no_prefix = pruned(like("product", "Phan%")).expect("no product starts 'phan'");
        assert_eq!(no_prefix, "(product LIKE 'Phan%') matches no catalog value");
        let periods = like("quarter", "Q3 2024").or(like("quarter", "Q3 2024 %"));
        assert!(pruned(periods).is_some(), "no quarter is Q3 2024, nor starts 'q3 2024 '");
    }

    #[test]
    fn a_filter_that_could_fail_is_run() {
        let cat = catalog();
        let pruned = |p: Expr| prune_reason(&filtered(p), &cat);
        let absent = || like("product", "Phantom");
        assert_eq!(pruned(like("amount", "1").and(absent())), None, "LIKE over a float");
        assert_eq!(pruned(like("nope", "x").and(absent())), None, "unknown column");
        assert_eq!(pruned(Expr::col("nope").gt(Expr::lit(1i64)).and(absent())), None);
        assert_eq!(pruned(Expr::lit(true).and(absent())), None, "a bare literal under AND");
        assert!(pruned(Expr::col("amount").gt(Expr::lit(1i64)).and(absent())).is_some());
    }

    #[test]
    fn operators_above_the_filter_must_make_nothing_of_no_rows() {
        let cat = catalog();
        let base = || filtered(like("product", "Phantom"));
        let by_product = || vec![(Expr::col("product"), "product".to_string())];
        let count =
            AggExpr { func: AggFunc::Count, input: Expr::lit(1i64), output_name: "n".into() };
        let pruned = |plan: RelPlan| prune_reason(&plan, &cat).is_some();

        assert!(pruned(base().aggregate(vec![], vec![over_amount(AggFunc::Sum, "s")]).limit(1)));
        assert!(pruned(base().aggregate(by_product(), vec![count.clone()]).sort(vec![]).limit(1)));
        assert!(!pruned(base().aggregate(vec![], vec![count])), "COUNT of nothing is 0");
        let having = Expr::col("s").gt(Expr::lit(0i64));
        let avg = over_amount(AggFunc::Avg, "s");
        assert!(!pruned(base().aggregate(vec![], vec![avg]).filter(having)));
        let clash = over_amount(AggFunc::Max, "PRODUCT");
        assert!(!pruned(base().aggregate(by_product(), vec![clash])), "duplicate output names");
        assert!(!pruned(RelPlan::scan("sales")));
        let on = vec![("product".to_string(), "product".to_string())];
        assert!(!pruned(base().join(RelPlan::scan("sales"), on)));
    }
}
