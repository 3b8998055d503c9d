//! Property-based tests for the cost-based planner (detkit harness,
//! DESIGN.md §11): cost estimates are monotone in table cardinality, and
//! catalog pruning passes over only candidates that would have run clean
//! and found nothing.

use detkit::prop::{usizes, zip3, Config, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check, Rng};
use unisem_core::planner::{has_signal, prune_reason, CostModel};
use unisem_docstore::DocStore;
use unisem_hetgraph::HetGraph;
use unisem_relstore::plan::{AggExpr, AggFunc, LogicalPlan, SortKey};
use unisem_relstore::{DataType, Database, ExecLimits, Expr, Schema, Table, Value};

// Cost estimates are monotone in table cardinality: growing a table never
// shrinks the estimated rows or total cost of a scan-filter plan over it.
prop_check!(
    cost_monotone_in_table_cardinality,
    zip3(&usizes(1, 10_000), &usizes(1, 10_000), &usizes(1, 50)),
    |input| {
        let (rows, delta, distinct) = input;
        // Column `k` cycles through `distinct` values.
        let key = |i: usize| vec![Value::Int((i % distinct) as i64)];
        let schema = Schema::of(&[("k", DataType::Int)]);
        let table = Table::from_rows(schema, (0..*rows).map(key).collect()).expect("typed rows");
        let mut db = db_with(&table);
        let (docs, graph) = (DocStore::default(), HetGraph::new());
        let plan = LogicalPlan::scan("t").filter(Expr::col("k").eq(Expr::lit(1i64)));
        let small = CostModel::new(&db, &docs, &graph).rel_plan(&plan).cost;
        for i in *rows..rows + delta {
            let checked = table.check_row(key(i)).expect("typed row");
            db.append("t", checked).expect("registered");
        }
        let big = CostModel::new(&db, &docs, &graph).rel_plan(&plan).cost;
        prop_assert!(small.rows <= big.rows, "row estimate shrank: {} -> {}", small.rows, big.rows);
        prop_assert!(
            small.total() <= big.total(),
            "total cost shrank: {} -> {}",
            small.total(),
            big.total()
        );
        Ok(())
    }
);

/// String cells and patterns: mixed case, and the folds where
/// `str::to_lowercase` differs from an ASCII or per-char fold — a final
/// sigma, `İ` (two chars lower-cased) and the Kelvin sign (an ASCII `k`
/// lower-cased).
const WORDS: &[&str] = &[
    "Aero",
    "aero",
    "AERO",
    "\u{212a}elvin",
    "kelvin",
    "\u{39f}\u{394}\u{39f}\u{3a3}",
    "\u{3bf}\u{3b4}\u{3bf}\u{3c3}",
    "\u{130}pek",
    "i\u{307}pek",
    "Q2 2024",
    "q2",
];

/// A table, the filter over its scan, the whole plan in one of the shapes
/// the operator synthesizer emits, and where the table splits into the
/// rows a catalog was collected from and the rows ingest appended.
#[derive(Debug, Clone)]
struct Case {
    table: Table,
    filter: Expr,
    plan: LogicalPlan,
    split: usize,
}

fn word(rng: &mut Rng) -> String {
    let w = *rng.choose(WORDS).expect("non-empty pool");
    match rng.gen_range(0..6usize) {
        0 => w.to_uppercase(),
        1 => w.to_lowercase(),
        2 => w.to_ascii_uppercase(),
        3 => "Phantom".to_string(),
        4 if rng.gen_bool(0.5) => format!("{w}%"),
        4 => w.replacen(|c: char| c.is_alphabetic(), "_", 1),
        _ => w.to_string(),
    }
}

fn cell(rng: &mut Rng) -> Value {
    if rng.gen_bool(0.2) {
        Value::Null
    } else {
        Value::str(*rng.choose(WORDS).expect("non-empty pool"))
    }
}

/// A filter leaf over a string column — mostly one that exists, under the
/// synthesizer's lower-case name, sometimes a float column or none at all
/// (condition (b) must keep those running).
fn string_leaf(rng: &mut Rng) -> Expr {
    let columns = ["product", "product", "Product", "quarter", "amount", "nope"];
    let column = Expr::col(*rng.choose(&columns).expect("non-empty pool"));
    if rng.gen_bool(0.7) {
        Expr::Like { expr: Box::new(column), pattern: word(rng) }
    } else {
        column.eq(Expr::lit(word(rng)))
    }
}

/// One conjunct: a subject `OR`, a prefix-tolerant period pair, or a
/// numeric threshold.
fn conjunct(rng: &mut Rng) -> Expr {
    match rng.gen_range(0..4usize) {
        0 | 1 => {
            let n = rng.gen_range(1..=3usize);
            (0..n).map(|_| string_leaf(rng)).reduce(Expr::or).expect("at least one leaf")
        }
        2 => {
            let p = word(rng);
            let like = |pattern| Expr::Like { expr: Box::new(Expr::col("quarter")), pattern };
            like(p.clone()).or(like(format!("{p} %")))
        }
        _ => {
            let column = Expr::col(*rng.choose(&["amount", "units"]).expect("non-empty pool"));
            let x = Expr::lit(rng.gen_range(0..4i64));
            if rng.gen_bool(0.5) {
                column.gt(x)
            } else {
                column.le(x)
            }
        }
    }
}

/// The operators the synthesizer puts above the filter: nothing, a global
/// or per-subject aggregate (any function, `COUNT` included) with an
/// optional `HAVING` filter, a sort and a limit.
fn above(rng: &mut Rng, plan: LogicalPlan) -> LogicalPlan {
    let funcs = [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Count];
    let func = *rng.choose(&funcs).expect("non-empty");
    let input = if func == AggFunc::Count { Expr::lit(1i64) } else { Expr::col("amount") };
    let agg = vec![AggExpr { func, input, output_name: "x_value".into() }];
    let by_value = |ascending| vec![SortKey { expr: Expr::col("x_value"), ascending }];
    let plan = match rng.gen_range(0..4usize) {
        0 => plan,
        1 => {
            let plan = plan.aggregate(vec![], agg);
            if rng.gen_bool(0.3) {
                plan.filter(Expr::col("x_value").gt(Expr::lit(0i64)))
            } else {
                plan
            }
        }
        2 => plan
            .aggregate(vec![(Expr::col("product"), "product".into())], agg)
            .sort(by_value(rng.gen_bool(0.5))),
        _ => plan.sort(vec![SortKey { expr: Expr::col("amount"), ascending: false }]),
    };
    if rng.gen_bool(0.3) {
        plan.limit(1)
    } else {
        plan
    }
}

fn cases() -> Gen<Case> {
    Gen::raw(|rng| {
        let schema = Schema::of(&[
            ("Product", DataType::Str),
            ("quarter", DataType::Str),
            ("amount", DataType::Float),
            ("units", DataType::Int),
        ]);
        let n = rng.gen_range(0..=10usize);
        let rows = (0..n)
            .map(|_| {
                let amount = rng.gen_range(0..5i64);
                let units = rng.gen_range(0..5i64);
                let number =
                    |rng: &mut Rng, v: Value| if rng.gen_bool(0.2) { Value::Null } else { v };
                vec![
                    cell(rng),
                    cell(rng),
                    number(rng, Value::Float(amount as f64)),
                    number(rng, Value::Int(units)),
                ]
            })
            .collect();
        let table = Table::from_rows(schema, rows).expect("typed rows");
        let k = rng.gen_range(1..=3usize);
        let filter = (0..k).map(|_| conjunct(rng)).reduce(Expr::and).expect("a conjunct");
        let plan = above(rng, LogicalPlan::scan("t").filter(filter.clone()));
        Case { table, filter, plan, split: rng.gen_range(0..=n) }
    })
}

fn db_with(table: &Table) -> Database {
    let mut db = Database::new();
    db.create_table("t", table.clone()).expect("fresh");
    db
}

/// Checks one case; `Ok(true)` when the value index pruned it.
fn check_pruning(case: &Case) -> Result<bool, String> {
    let Case { table, filter, plan, split } = case;
    let db = db_with(table);
    let prefix = Table::from_rows(table.schema().clone(), table.rows().take(*split).collect())
        .expect("typed rows");
    let mut maintained = db_with(&prefix);
    for row in table.rows().skip(*split) {
        let checked = prefix.check_row(row).expect("typed row");
        maintained.append("t", checked).expect("registered");
    }
    prop_assert_eq!(&maintained, &db, "index maintained over appended rows");

    let Some(reason) = prune_reason(plan, &db) else { return Ok(false) };
    let (result, _) = db.run_plan_with_limits_stats(plan, &ExecLimits::default());
    match result {
        Ok(result) => prop_assert!(!has_signal(&result), "pruned ({reason}), yet {result}"),
        Err(e) => return Err(format!("pruned ({reason}), yet the run fails: {e}")),
    }
    // The plan reads its filter's rows through the same probe pruning asks;
    // a `LIMIT` between scan and filter makes the filter evaluate every row.
    let every_row = LogicalPlan::scan("t").limit(usize::MAX).filter(filter.clone());
    let filtered = db.run_plan(&every_row);
    prop_assert_eq!(filtered.map(|t| t.num_rows()), Ok(0), "pruned ({reason})");
    Ok(true)
}

// The differential for catalog pruning: a candidate the value index
// prunes, run against its table, returns a result without signal and
// without error, and its scan filter selects no row — so passing over it
// changes no answer and hides no failure. The index it is checked against
// is also the one ingest maintains: built over a prefix of the rows and
// appended the rest, it equals one built over all of them, and so do the
// statistics read from it.
prop_check!(
    pruned_candidates_run_clean_and_find_nothing,
    Config::default().with_cases(512),
    cases(),
    |case| check_pruning(case).map(|_| ())
);

/// The property above is not vacuous: the generator makes cases the
/// index prunes and cases it lets run, in both large numbers.
#[test]
fn the_pruning_property_sees_both_outcomes() {
    let gen = cases();
    let mut rng = Rng::new(0x9A11);
    let mut pruned = 0;
    for _ in 0..400 {
        let case = gen.generate(&mut rng);
        if check_pruning(case.value()).expect("the property holds") {
            pruned += 1;
        }
    }
    assert!((40..=360).contains(&pruned), "{pruned} of 400 cases pruned");
}
