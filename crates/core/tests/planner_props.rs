//! Property-based tests for the cost-based planner (detkit harness,
//! DESIGN.md §11): cost estimates are monotone in table cardinality.

use detkit::prop::{usizes, zip3};
use detkit::{prop_assert, prop_check};
use unisem_core::planner::{ColumnStats, CostModel, StatsCatalog, TableStats};
use unisem_relstore::plan::LogicalPlan;
use unisem_relstore::Expr;

// Cost estimates are monotone in table cardinality: growing a table never
// shrinks the estimated rows or total cost of a scan-filter plan over it.
prop_check!(
    cost_monotone_in_table_cardinality,
    zip3(&usizes(1, 10_000), &usizes(1, 10_000), &usizes(1, 50)),
    |input| {
        let (rows, delta, distinct) = input;
        let cat_with = |n: usize| {
            let mut cat = StatsCatalog::default();
            cat.tables.insert(
                "t".into(),
                TableStats {
                    rows: n,
                    columns: vec![ColumnStats { name: "k".into(), distinct: *distinct, nulls: 0 }],
                },
            );
            cat
        };
        let plan = LogicalPlan::scan("t").filter(Expr::col("k").eq(Expr::lit(1i64)));
        let small_cat = cat_with(*rows);
        let big_cat = cat_with(rows + delta);
        let small = CostModel::new(&small_cat).rel_plan(&plan).cost;
        let big = CostModel::new(&big_cat).rel_plan(&plan).cost;
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
