//! Physical plans: the costed, executable lowering of a logical tree.
//!
//! Lowering pairs every logical operator with its [`Cost`] estimate and
//! (after execution) an *actual* outcome string recorded in
//! [`ExecActuals`], so `Answer::trace` can show estimated vs actual costs
//! per node. Embedded relstore plans are expanded operator-by-operator,
//! each subtree costed independently.
//!
//! [`Alternatives`] branches are costed pessimistically — the estimate
//! sums all branches, because the ladder may have to try each one —
//! while a [`GraphTraverse`] fallback is *not* added to its parent: only
//! one of the two retrieval strategies ever runs.
//!
//! [`Alternatives`]: super::logical::LogicalNode::Alternatives
//! [`GraphTraverse`]: super::logical::LogicalNode::GraphTraverse

use std::collections::BTreeMap;

use unisem_relstore::plan::LogicalPlan as RelPlan;
use unisem_relstore::Database;

use super::cost::{Cost, CostModel};
use super::logical::{CandidatePlan, LogicalNode};

/// Execution-time outcomes, keyed to the plan shape, filled in by the
/// engine's physical executor. Every map is a `BTreeMap` so rendering
/// order is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecActuals {
    /// Entropy-gate outcome.
    pub gate: Option<String>,
    /// Intent-tagging outcome.
    pub tag: Option<String>,
    /// Per-candidate structured outcomes, keyed by table name.
    pub structured: BTreeMap<String, String>,
    /// Traversal outcome: its statistics, or the fault that stopped it.
    pub traverse: Option<String>,
    /// Lexical-scan outcome, recorded only when the scan ran.
    pub lexical_scan: Option<String>,
    /// Evidence-extraction outcome.
    pub extract: Option<String>,
    /// Entailment-verification outcome of the structured branch.
    pub structured_entail: Option<String>,
    /// Entailment-verification outcome of the retrieval branch.
    pub retrieval_entail: Option<String>,
    /// Confidence-gate outcome.
    pub confidence: Option<String>,
    /// Final route label.
    pub outcome: Option<String>,
}

/// One costed physical operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysNode {
    /// Operator label (logical label or relstore explain line).
    pub op: String,
    /// Cumulative subtree estimate; `estimated.rows` is the output guess.
    pub estimated: Cost,
    /// What actually happened here, when this node executed.
    pub actual: Option<String>,
    /// Child operators.
    pub children: Vec<PhysNode>,
}

/// A complete physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// Root operator.
    pub root: PhysNode,
}

impl PhysicalPlan {
    /// Indented rendering: `op [est …]` with ` | actual: …` appended on
    /// executed nodes. Byte-deterministic (integer costs, BTreeMap
    /// actuals).
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, &mut out);
        out
    }
}

fn render_node(node: &PhysNode, depth: usize, out: &mut String) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&node.op);
    out.push_str(&format!(" [est {}]", node.estimated.render()));
    if let Some(actual) = &node.actual {
        out.push_str(" | actual: ");
        out.push_str(actual);
    }
    out.push('\n');
    for c in &node.children {
        render_node(c, depth + 1, out);
    }
}

/// Lowers a logical tree into a costed physical plan over `db`, attaching
/// the executor's recorded actuals.
pub fn lower(
    logical: &LogicalNode,
    model: &CostModel,
    db: &Database,
    actuals: &ExecActuals,
) -> PhysicalPlan {
    PhysicalPlan { root: lower_node(logical, model, db, actuals) }
}

fn lower_node(
    node: &LogicalNode,
    model: &CostModel,
    db: &Database,
    actuals: &ExecActuals,
) -> PhysNode {
    match node {
        LogicalNode::EntropyGate { child, .. } => {
            let c = lower_node(child, model, db, actuals);
            let estimated =
                Cost { rows: c.estimated.rows, cpu: 1, io: 0, slm: 0 }.plus(c.estimated);
            PhysNode {
                op: node.label(),
                estimated,
                actual: actuals.gate.clone(),
                children: vec![c],
            }
        }
        LogicalNode::SemTag { child, .. } => {
            let c = lower_node(child, model, db, actuals);
            let estimated =
                Cost { rows: c.estimated.rows, cpu: 1, io: 0, slm: 1 }.plus(c.estimated);
            PhysNode { op: node.label(), estimated, actual: actuals.tag.clone(), children: vec![c] }
        }
        LogicalNode::Alternatives { children } => {
            let kids: Vec<PhysNode> =
                children.iter().map(|c| lower_node(c, model, db, actuals)).collect();
            let mut estimated = Cost::ZERO;
            for k in &kids {
                estimated = estimated.plus(k.estimated);
            }
            estimated.rows = kids.first().map(|k| k.estimated.rows).unwrap_or(0);
            PhysNode { op: node.label(), estimated, actual: None, children: kids }
        }
        LogicalNode::Relational { table, plan } => {
            let actual = actuals.structured.get(table).cloned();
            match plan.rel() {
                Some(rel) => {
                    let mut root = lower_rel(rel, model, db);
                    // A pruned plan never ran: its operators carry estimates
                    // only.
                    if let CandidatePlan::Planned(_) = plan {
                        root.actual = actual.clone();
                    }
                    PhysNode {
                        op: node.label(),
                        estimated: root.estimated,
                        actual,
                        children: vec![root],
                    }
                }
                None => PhysNode {
                    op: node.label(),
                    estimated: Cost::ZERO,
                    actual,
                    children: Vec::new(),
                },
            }
        }
        LogicalNode::GraphTraverse { top_k, max_frontier, fallback } => {
            let fb = lower_node(fallback, model, db, actuals);
            let estimated = model.graph_traverse(*top_k, *max_frontier);
            PhysNode {
                op: node.label(),
                estimated,
                actual: actuals.traverse.clone(),
                children: vec![fb],
            }
        }
        LogicalNode::LexicalScan { top_k } => PhysNode {
            op: node.label(),
            estimated: model.lexical_scan(*top_k),
            actual: actuals.lexical_scan.clone(),
            children: Vec::new(),
        },
        LogicalNode::SemExtract { max_sentences, child } => {
            let c = lower_node(child, model, db, actuals);
            let estimated = model.sem_extract(c.estimated.rows, *max_sentences).plus(c.estimated);
            PhysNode {
                op: node.label(),
                estimated,
                actual: actuals.extract.clone(),
                children: vec![c],
            }
        }
        LogicalNode::SemEntail { samples, child } => {
            // The structured branch verifies its candidates' result, the
            // retrieval branch its extracted evidence: each has its own.
            let actual = match **child {
                LogicalNode::Alternatives { .. } => &actuals.structured_entail,
                _ => &actuals.retrieval_entail,
            };
            let c = lower_node(child, model, db, actuals);
            let estimated = model.sem_entail(*samples).plus(c.estimated);
            PhysNode { op: node.label(), estimated, actual: actual.clone(), children: vec![c] }
        }
        LogicalNode::ConfidenceGate { child, .. } => {
            let c = lower_node(child, model, db, actuals);
            let estimated =
                Cost { rows: c.estimated.rows, cpu: 1, io: 0, slm: 0 }.plus(c.estimated);
            PhysNode {
                op: node.label(),
                estimated,
                actual: actuals.confidence.clone(),
                children: vec![c],
            }
        }
        LogicalNode::Abstain => PhysNode {
            op: node.label(),
            estimated: Cost::ZERO,
            actual: actuals.outcome.clone(),
            children: Vec::new(),
        },
    }
}

/// Expands a relstore plan operator-by-operator, costing each subtree. A
/// `Scan` under a filter that probes the table's value index names the
/// probe — found by the function the executor reads the rows through.
fn lower_rel(plan: &RelPlan, model: &CostModel, db: &Database) -> PhysNode {
    let estimate = model.rel_plan(plan);
    let op = plan.explain().lines().next().unwrap_or("Rel").trim().to_string();
    let mut children: Vec<PhysNode> =
        rel_children(plan).into_iter().map(|c| lower_rel(c, model, db)).collect();
    if let RelPlan::Filter { input, predicate } = plan {
        if let (RelPlan::Scan { table }, [scan]) = (&**input, &mut children[..]) {
            let probe = db.indexed(table).ok().and_then(|(t, index)| {
                index.probe(predicate, t.schema()).map(|probe| probe.to_string())
            });
            if let Some(probe) = probe {
                scan.op = format!("{} ({probe})", scan.op);
            }
        }
    }
    PhysNode { op, estimated: estimate.cost, actual: None, children }
}

fn rel_children(plan: &RelPlan) -> Vec<&RelPlan> {
    match plan {
        RelPlan::Scan { .. } => Vec::new(),
        RelPlan::Filter { input, .. }
        | RelPlan::Aggregate { input, .. }
        | RelPlan::Sort { input, .. }
        | RelPlan::Limit { input, .. } => vec![input],
        RelPlan::Join { left, right, .. } => vec![left, right],
    }
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
        let mut actuals = ExecActuals::default();
        actuals.structured.insert("sales".into(), "rows=20 (signal)".into());
        let phys = lower(&logical, &model, &db, &actuals);
        let text = phys.render();
        assert!(text.contains("Relational: table 'sales'"), "{text}");
        assert!(text.contains("Scan: sales (probe region: 1 key)"), "{text}");
        assert!(text.contains("Filter:"), "{text}");
        assert!(text.contains("[est rows~20"), "selectivity 1/5 of 100: {text}");
        assert!(text.contains("actual: rows=20 (signal)"), "{text}");
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
        let ran = ExecActuals { traverse: Some("hits=4".into()), ..ExecActuals::default() };
        let phys = lower(&traverse, &model, &db, &ran);
        let scan = &phys.root.children[0];
        assert!(scan.estimated.io > 0);
        assert_eq!(scan.estimated, model.lexical_scan(4));
        assert_eq!(
            phys.root.estimated,
            model.graph_traverse(4, 64),
            "fallback kept off the parent"
        );
        assert_eq!(phys.root.actual.as_deref(), Some("hits=4"));
        assert_eq!(scan.actual, None, "the fallback never ran");

        let faulted = ExecActuals {
            traverse: Some("fault: f".into()),
            lexical_scan: Some("hits=4".into()),
            ..ExecActuals::default()
        };
        let phys = lower(&traverse, &model, &db, &faulted);
        assert_eq!(phys.root.actual.as_deref(), Some("fault: f"));
        assert_eq!(phys.root.children[0].actual.as_deref(), Some("hits=4"));
    }

    #[test]
    fn render_is_deterministic() {
        let (db, docs, graph) = substrates();
        let model = CostModel::new(&db, &docs, &graph);
        let node = LogicalNode::Alternatives {
            children: vec![LogicalNode::LexicalScan { top_k: 4 }, LogicalNode::Abstain],
        };
        let a = lower(&node, &model, &db, &ExecActuals::default()).render();
        let b = lower(&node, &model, &db, &ExecActuals::default()).render();
        assert_eq!(a, b);
    }
}
