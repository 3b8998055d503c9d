//! The deterministic cost model (DESIGN.md §11).
//!
//! Costs are integers — `u64` row estimates and abstract work units — so
//! every estimate is bit-stable by construction and totally ordered
//! without float tie-breaking hazards. Selectivities are fixed-point
//! per-mille fractions (`x / 1000`), monotone in table cardinality.
//!
//! The model charges three currencies, folded into one total:
//!
//! ```text
//! total = cpu + 2·io + 50·slm
//! ```
//!
//! `cpu` counts row visits and comparisons, `io` counts cells touched in
//! base tables and postings walked in indexes, and `slm` counts semantic
//! operator invocations — weighted heaviest because a model call dominates
//! any per-row arithmetic (the premise of every SLM-operator paper the
//! algebra follows).

use unisem_relstore::plan::LogicalPlan;
use unisem_relstore::Expr;

use super::stats::{StatsCatalog, TableStats};

/// Fixed-point selectivity denominator.
pub const SEL_DENOM: u64 = 1000;
/// io weight in [`Cost::total`].
pub const IO_WEIGHT: u64 = 2;
/// slm weight in [`Cost::total`].
pub const SLM_WEIGHT: u64 = 50;

/// One operator's cumulative cost estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Estimated output rows (or items) of this operator.
    pub rows: u64,
    /// Row visits / comparisons.
    pub cpu: u64,
    /// Cells or postings touched.
    pub io: u64,
    /// Semantic operator (SLM) invocations.
    pub slm: u64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost { rows: 0, cpu: 0, io: 0, slm: 0 };

    /// Weighted scalar total (saturating).
    pub fn total(self) -> u64 {
        self.cpu
            .saturating_add(self.io.saturating_mul(IO_WEIGHT))
            .saturating_add(self.slm.saturating_mul(SLM_WEIGHT))
    }

    /// Componentwise saturating sum, keeping `self.rows` (the output
    /// cardinality of the downstream operator).
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            rows: self.rows,
            cpu: self.cpu.saturating_add(other.cpu),
            io: self.io.saturating_add(other.io),
            slm: self.slm.saturating_add(other.slm),
        }
    }

    /// Compact deterministic rendering for explain plans.
    pub fn render(self) -> String {
        format!(
            "rows~{} cpu={} io={} slm={} total={}",
            self.rows,
            self.cpu,
            self.io,
            self.slm,
            self.total()
        )
    }
}

/// Estimate for one relational subtree.
#[derive(Debug, Clone)]
pub struct RelEstimate {
    /// Cumulative cost of the subtree; `cost.rows` is the output estimate.
    pub cost: Cost,
    /// The single base table feeding this subtree, when unambiguous —
    /// the context column selectivities resolve against.
    pub base: Option<String>,
}

/// The cost model: pure functions of a [`StatsCatalog`].
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    stats: &'a StatsCatalog,
}

impl<'a> CostModel<'a> {
    /// A model over the given catalog.
    pub fn new(stats: &'a StatsCatalog) -> Self {
        CostModel { stats }
    }

    /// The backing catalog.
    pub fn stats(&self) -> &StatsCatalog {
        self.stats
    }

    /// Row-count estimate for a base table (1 when unknown, so products
    /// never collapse to zero).
    pub fn table_rows(&self, name: &str) -> u64 {
        self.stats.table(name).map(|t| t.rows as u64).unwrap_or(1)
    }

    /// Fixed-point selectivity (`x / 1000`) of a predicate against a
    /// table's column statistics:
    ///
    /// - equality on a column: `1000 / distinct(column)`,
    /// - ordering comparison: 1/3,
    /// - `LIKE`: 1/4,
    /// - `AND`: product; `OR`: capped sum,
    /// - a bare column or literal: 1/2.
    pub fn selectivity_permille(&self, table: Option<&TableStats>, pred: &Expr) -> u64 {
        use unisem_relstore::expr::BinOp;
        match pred {
            Expr::Binary { op, left, right } => match op {
                BinOp::And => {
                    let l = self.selectivity_permille(table, left);
                    let r = self.selectivity_permille(table, right);
                    (l.saturating_mul(r) / SEL_DENOM).max(1)
                }
                BinOp::Or => {
                    let l = self.selectivity_permille(table, left);
                    let r = self.selectivity_permille(table, right);
                    l.saturating_add(r).min(SEL_DENOM)
                }
                BinOp::Eq => {
                    let distinct = column_of(left)
                        .or_else(|| column_of(right))
                        .and_then(|c| table.map(|t| t.distinct(c)))
                        .unwrap_or(2) as u64;
                    (SEL_DENOM / distinct.max(1)).max(1)
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => SEL_DENOM / 3,
            },
            Expr::Like { .. } => SEL_DENOM / 4,
            Expr::Column(_) | Expr::Literal(_) => SEL_DENOM / 2,
        }
    }

    /// Recursive estimate for a relational plan subtree.
    pub fn rel_plan(&self, plan: &LogicalPlan) -> RelEstimate {
        match plan {
            LogicalPlan::Scan { table } => {
                let rows = self.table_rows(table);
                let arity =
                    self.stats.table(table).map(|t| t.columns.len() as u64).unwrap_or(1).max(1);
                RelEstimate {
                    cost: Cost { rows, cpu: rows, io: rows.saturating_mul(arity), slm: 0 },
                    base: Some(table.clone()),
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let inner = self.rel_plan(input);
                let tstats = inner.base.as_deref().and_then(|b| self.stats.table(b));
                let sel = self.selectivity_permille(tstats, predicate);
                let rows = (inner.cost.rows.saturating_mul(sel) / SEL_DENOM)
                    .min(inner.cost.rows)
                    .max(u64::from(inner.cost.rows > 0));
                let cost = Cost { rows, cpu: inner.cost.rows, io: 0, slm: 0 }.plus(inner.cost);
                RelEstimate { cost, base: inner.base }
            }
            LogicalPlan::Join { left, right, on, .. } => {
                let l = self.rel_plan(left);
                let r = self.rel_plan(right);
                let rows = self.join_rows(&l, &r, on);
                let cost = Cost {
                    rows,
                    cpu: l.cost.rows.saturating_add(r.cost.rows).saturating_add(rows),
                    io: 0,
                    slm: 0,
                }
                .plus(l.cost)
                .plus(r.cost);
                RelEstimate { cost, base: None }
            }
            LogicalPlan::Aggregate { input, group_by, .. } => {
                let inner = self.rel_plan(input);
                let tstats = inner.base.as_deref().and_then(|b| self.stats.table(b));
                let rows = if group_by.is_empty() {
                    1
                } else {
                    let mut groups: u64 = 1;
                    for (expr, _) in group_by {
                        let d = column_of(expr)
                            .and_then(|c| tstats.map(|t| t.distinct(c) as u64))
                            .unwrap_or(2);
                        groups = groups.saturating_mul(d.max(1));
                    }
                    groups.min(inner.cost.rows.max(1))
                };
                let cost = Cost { rows, cpu: inner.cost.rows, io: 0, slm: 0 }.plus(inner.cost);
                RelEstimate { cost, base: inner.base }
            }
            LogicalPlan::Sort { input, .. } => {
                let inner = self.rel_plan(input);
                let n = inner.cost.rows;
                let cost = Cost {
                    rows: n,
                    cpu: n.saturating_mul(64 - n.leading_zeros() as u64),
                    io: 0,
                    slm: 0,
                }
                .plus(inner.cost);
                RelEstimate { cost, base: inner.base }
            }
            LogicalPlan::Limit { input, n } => {
                let inner = self.rel_plan(input);
                let cost = Cost { rows: inner.cost.rows.min(*n as u64), cpu: 0, io: 0, slm: 0 }
                    .plus(inner.cost);
                RelEstimate { cost, base: inner.base }
            }
        }
    }

    /// Equi-join output estimate: `|L|·|R| / max(distinct keys)` per key
    /// pair, floored at 1 when both sides are non-empty.
    pub fn join_rows(&self, l: &RelEstimate, r: &RelEstimate, on: &[(String, String)]) -> u64 {
        let mut rows = l.cost.rows.saturating_mul(r.cost.rows);
        for (lc, rc) in on {
            let ld = l
                .base
                .as_deref()
                .and_then(|b| self.stats.table(b))
                .map(|t| t.distinct(lc) as u64)
                .unwrap_or(2);
            let rd = r
                .base
                .as_deref()
                .and_then(|b| self.stats.table(b))
                .map(|t| t.distinct(rc) as u64)
                .unwrap_or(2);
            rows /= ld.max(rd).max(1);
        }
        if l.cost.rows > 0 && r.cost.rows > 0 {
            rows.max(1)
        } else {
            0
        }
    }

    /// Topology traversal: anchors expand across the frontier (bounded by
    /// the governor), then candidate chunks are scored.
    pub fn graph_traverse(&self, top_k: usize, max_frontier: usize) -> Cost {
        let frontier = (self.stats.graph.nodes as u64).min(max_frontier as u64);
        let expand = frontier.saturating_mul((self.stats.graph.avg_degree_x1000 as u64) / 1000 + 1);
        let scored = (self.stats.text.chunks as u64).min(frontier);
        Cost { rows: (top_k as u64).min(scored.max(1)), cpu: expand, io: scored, slm: 1 }
    }

    /// BM25 scan: every posting of the query's terms is walked and scored,
    /// charged as one walk of the longest posting list (a question's most
    /// frequent term dominates its scan). No model call.
    pub fn lexical_scan(&self, top_k: usize) -> Cost {
        let text = &self.stats.text;
        let postings = text.max_posting as u64;
        Cost {
            rows: (top_k as u64).min(text.chunks.max(1) as u64),
            cpu: postings,
            io: postings,
            slm: 0,
        }
    }

    /// Grounded evidence extraction over retrieved chunks.
    pub fn sem_extract(&self, chunks: u64, max_sentences: usize) -> Cost {
        Cost {
            rows: (max_sentences as u64).min(chunks.saturating_mul(4).max(1)),
            cpu: chunks.saturating_mul(8),
            io: 0,
            slm: chunks,
        }
    }

    /// Semantic-entropy verification: sampling plus pairwise entailment
    /// clustering.
    pub fn sem_entail(&self, samples: usize) -> Cost {
        let s = samples as u64;
        Cost { rows: 1, cpu: s.saturating_mul(s), io: 0, slm: s }
    }
}

/// The column name a predicate side refers to, if it is a plain column.
fn column_of(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column(c) => Some(c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::stats::{ColumnStats, TableStats};

    fn catalog(rows: usize, distinct: usize) -> StatsCatalog {
        let mut cat = StatsCatalog::default();
        cat.tables.insert(
            "t".into(),
            TableStats {
                rows,
                columns: vec![
                    ColumnStats { name: "k".into(), distinct, nulls: 0 },
                    ColumnStats { name: "v".into(), distinct: rows.max(1), nulls: 0 },
                ],
            },
        );
        cat
    }

    #[test]
    fn totals_weight_slm_heaviest() {
        let c = Cost { rows: 10, cpu: 5, io: 3, slm: 2 };
        assert_eq!(c.total(), 5 + 2 * 3 + 50 * 2);
        assert!(c.render().contains("total=111"));
    }

    #[test]
    fn eq_selectivity_uses_distinct_counts() {
        let cat = catalog(100, 4);
        let model = CostModel::new(&cat);
        let t = cat.table("t");
        let eq = Expr::col("k").eq(Expr::lit(1i64));
        assert_eq!(model.selectivity_permille(t, &eq), 250);
        let conj = Expr::col("k").eq(Expr::lit(1i64)).and(Expr::col("v").gt(Expr::lit(0i64)));
        assert!(model.selectivity_permille(t, &conj) < 250);
    }

    #[test]
    fn filter_estimates_are_monotone_in_cardinality() {
        let plan = LogicalPlan::scan("t").filter(Expr::col("k").eq(Expr::lit(1i64)));
        let mut last = 0u64;
        for rows in [0usize, 1, 10, 100, 1000, 10_000] {
            let cat = catalog(rows, 4);
            let total = CostModel::new(&cat).rel_plan(&plan).cost.total();
            assert!(total >= last, "rows={rows}: {total} < {last}");
            last = total;
        }
    }

    #[test]
    fn aggregate_groups_bound_by_distinct() {
        let cat = catalog(100, 4);
        let model = CostModel::new(&cat);
        let grouped = LogicalPlan::scan("t").aggregate(vec![(Expr::col("k"), "k".into())], vec![]);
        assert_eq!(model.rel_plan(&grouped).cost.rows, 4);
        let global = LogicalPlan::scan("t").aggregate(vec![], vec![]);
        assert_eq!(model.rel_plan(&global).cost.rows, 1);
    }

    #[test]
    fn join_rows_divide_by_key_cardinality() {
        let cat = catalog(100, 10);
        let model = CostModel::new(&cat);
        let l = model.rel_plan(&LogicalPlan::scan("t"));
        let r = model.rel_plan(&LogicalPlan::scan("t"));
        let rows = model.join_rows(&l, &r, &[("k".into(), "k".into())]);
        assert_eq!(rows, 100 * 100 / 10);
    }
}
