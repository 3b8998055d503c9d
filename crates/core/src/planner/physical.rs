//! Explain: the plan tree the executor ran, costed and annotated in one
//! walk (DESIGN.md §11e).
//!
//! [`explain`] renders a [`LogicalNode`] tree depth-first, two spaces per
//! depth: each operator's label, its cumulative [`Cost`] estimate and, on
//! the operators that ran, the outcome the executor recorded against the
//! node's pre-order position — the order this walk visits nodes in. Each
//! call returns its subtree's cost, so a parent's line, printed above its
//! children, is written once they are costed. Embedded relstore plans are
//! expanded operator-by-operator, each subtree costed independently; they
//! take no pre-order positions.
//!
//! [`Alternatives`] branches are costed pessimistically — the estimate
//! sums all branches, because the ladder may have to try each one —
//! while a [`GraphTraverse`] fallback is *not* added to its parent: only
//! one of the two retrieval strategies ever runs.
//!
//! [`Alternatives`]: LogicalNode::Alternatives
//! [`GraphTraverse`]: LogicalNode::GraphTraverse

use unisem_relstore::plan::LogicalPlan as RelPlan;
use unisem_relstore::Database;

use super::cost::{Cost, CostModel};
use super::logical::{CandidatePlan, LogicalNode};

/// Renders `plan` for the explain trace: `op [est …]`, with ` | actual: …`
/// on each operator an entry of `actuals` — (pre-order position, outcome)
/// — names. Byte-deterministic (integer costs).
pub fn explain(
    plan: &LogicalNode,
    model: &CostModel,
    db: &Database,
    actuals: &[(usize, String)],
) -> String {
    let mut walk = Explain { model, db, actuals, next: 0, out: String::new() };
    walk.node(plan, 0);
    walk.out
}

/// One explain walk.
struct Explain<'a> {
    model: &'a CostModel<'a>,
    db: &'a Database,
    actuals: &'a [(usize, String)],
    /// Pre-order position of the next logical node.
    next: usize,
    out: String,
}

impl Explain<'_> {
    /// Renders `node`'s subtree at `depth`; returns its cost.
    fn node(&mut self, node: &LogicalNode, depth: usize) -> Cost {
        let actuals = self.actuals;
        let at = self.next;
        let actual = actuals.iter().find(|(p, _)| *p == at).map(|(_, a)| a.as_str());
        self.next += 1;
        let start = self.out.len();
        let kids: Vec<Cost> = node.children().iter().map(|c| self.node(c, depth + 1)).collect();
        let child = kids.first().copied().unwrap_or(Cost::ZERO);
        let step = |cpu, slm| Cost { rows: child.rows, cpu, io: 0, slm }.plus(child);
        let cost = match node {
            LogicalNode::EntropyGate { .. } | LogicalNode::ConfidenceGate { .. } => step(1, 0),
            LogicalNode::SemTag { .. } => step(1, 1),
            LogicalNode::Alternatives { .. } => {
                kids.iter().fold(Cost { rows: child.rows, ..Cost::ZERO }, |sum, &k| sum.plus(k))
            }
            // A pruned plan never ran: its operators carry estimates only.
            LogicalNode::Relational { plan, .. } => match plan.rel() {
                Some(rel) => {
                    let ran = matches!(plan, CandidatePlan::Planned(_));
                    self.rel(rel, depth + 1, None, actual.filter(|_| ran))
                }
                None => Cost::ZERO,
            },
            LogicalNode::GraphTraverse { top_k, max_frontier, .. } => {
                self.model.graph_traverse(*top_k, *max_frontier)
            }
            LogicalNode::LexicalScan { top_k } => self.model.lexical_scan(*top_k),
            LogicalNode::SemExtract { max_sentences, .. } => {
                self.model.sem_extract(child.rows, *max_sentences).plus(child)
            }
            LogicalNode::SemEntail { samples, .. } => self.model.sem_entail(*samples).plus(child),
            LogicalNode::Abstain => Cost::ZERO,
        };
        self.out.insert_str(start, &line(depth, &node.label(), cost, actual));
        cost
    }

    /// Expands a relstore plan operator-by-operator, costing each subtree;
    /// returns the root's cost. `probe` names the value-index probe a
    /// filter directly above this `Scan` reads its rows through — found by
    /// the function the executor reads them with.
    fn rel(
        &mut self,
        plan: &RelPlan,
        depth: usize,
        probe: Option<String>,
        actual: Option<&str>,
    ) -> Cost {
        let cost = self.model.rel_plan(plan).cost;
        let mut op = plan.explain().lines().next().unwrap_or("Rel").trim().to_string();
        if let Some(probe) = probe {
            op = format!("{op} ({probe})");
        }
        self.out.push_str(&line(depth, &op, cost, actual));
        match plan {
            RelPlan::Scan { .. } => {}
            RelPlan::Filter { input, predicate } => {
                let probe = match &**input {
                    RelPlan::Scan { table } => {
                        self.db.indexed(table).ok().and_then(|(t, index)| {
                            index.probe(predicate, t.schema()).map(|probe| probe.to_string())
                        })
                    }
                    _ => None,
                };
                self.rel(input, depth + 1, probe, None);
            }
            RelPlan::Aggregate { input, .. }
            | RelPlan::Sort { input, .. }
            | RelPlan::Limit { input, .. } => {
                self.rel(input, depth + 1, None, None);
            }
            RelPlan::Join { left, right, .. } => {
                self.rel(left, depth + 1, None, None);
                self.rel(right, depth + 1, None, None);
            }
        }
        cost
    }
}

/// One explain line: `op [est …]`, then ` | actual: …` when it ran.
fn line(depth: usize, op: &str, cost: Cost, actual: Option<&str>) -> String {
    let actual = actual.map(|a| format!(" | actual: {a}")).unwrap_or_default();
    format!("{}{op} [est {}]{actual}\n", "  ".repeat(depth), cost.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_docstore::DocStore;
    use unisem_hetgraph::HetGraph;
    use unisem_relstore::{DataType, Expr, Schema, Table, Value};

    /// `sales`: 100 rows over 5 regions; one indexed document.
    fn substrates() -> (Database, DocStore, HetGraph) {
        let regions = ["emea", "apac", "amer", "latam", "anz"];
        let rows = (0..100).map(|i| vec![Value::str(regions[i % 5])]).collect();
        let sales =
            Table::from_rows(Schema::of(&[("region", DataType::Str)]), rows).expect("typed rows");
        let mut db = Database::new();
        db.create_table("sales", sales).expect("fresh");
        let mut docs = DocStore::default();
        docs.add_document("d", "Sales in emea grew. Sales in apac fell.", "src");
        (db, docs, HetGraph::new())
    }

    #[test]
    fn lowering_expands_rel_plans_with_costs() {
        let (db, docs, graph) = substrates();
        let model = CostModel::new(&db, &docs, &graph);
        let logical = LogicalNode::Relational {
            table: "sales".into(),
            plan: CandidatePlan::Planned(
                RelPlan::scan("sales").filter(Expr::col("region").eq(Expr::lit("emea"))),
            ),
        };
        let text = explain(&logical, &model, &db, &[(0, "rows=20 (signal)".into())]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("Relational: table 'sales' [est rows~20"), "{text}");
        assert!(lines[1].starts_with("  Filter:"), "{text}");
        assert!(lines[2].starts_with("    Scan: sales (probe region: 1 key) [est"), "{text}");
        assert!(text.contains("[est rows~20"), "selectivity 1/5 of 100: {text}");
        // The candidate's actual is repeated on the root of the plan that ran.
        for ran in &lines[..2] {
            assert!(ran.ends_with(" | actual: rows=20 (signal)"), "{text}");
        }
        assert!(!lines[2].contains("actual"), "{text}");
    }

    #[test]
    fn fallback_not_charged_to_traverse() {
        let (db, docs, graph) = substrates();
        let model = CostModel::new(&db, &docs, &graph);
        let traverse = LogicalNode::GraphTraverse {
            top_k: 4,
            max_frontier: 64,
            fallback: Box::new(LogicalNode::LexicalScan { top_k: 4 }),
        };
        assert!(model.lexical_scan(4).io > 0);
        let estimate = model.graph_traverse(4, 64).render();
        let traverse_line = |actual: &str| {
            format!("GraphTraverse: top_k=4 max_frontier=64 [est {estimate}]{actual}\n")
        };
        let scan_line = |actual: &str| {
            format!("  LexicalScan: top_k=4 [est {}]{actual}\n", model.lexical_scan(4).render())
        };
        // The fallback is kept off the parent's estimate, and shows no
        // actual when it never ran.
        assert_eq!(
            explain(&traverse, &model, &db, &[(0, "hits=4".into())]),
            traverse_line(" | actual: hits=4") + &scan_line("")
        );
        let faulted = [(0, "fault: f".into()), (1, "hits=4".into())];
        assert_eq!(
            explain(&traverse, &model, &db, &faulted),
            traverse_line(" | actual: fault: f") + &scan_line(" | actual: hits=4")
        );
    }

    #[test]
    fn render_is_deterministic() {
        let (db, docs, graph) = substrates();
        let model = CostModel::new(&db, &docs, &graph);
        let node = LogicalNode::Alternatives {
            children: vec![LogicalNode::LexicalScan { top_k: 4 }, LogicalNode::Abstain],
        };
        let a = explain(&node, &model, &db, &[]);
        let b = explain(&node, &model, &db, &[]);
        assert_eq!(a, b);
    }
}
