//! The unified logical algebra (DESIGN.md §11).
//!
//! One query compiles to one [`LogicalNode`] tree spanning every
//! substrate: relational scans/filters/joins/aggregates (embedded
//! relstore plans, flattened semi-structured collections among their
//! tables), graph-topology traversal, lexical (BM25) chunk retrieval, and the
//! SLM semantic operators — tagging ([`LogicalNode::SemTag`]), grounded
//! extraction ([`LogicalNode::SemExtract`]), and entailment-based
//! verification ([`LogicalNode::SemEntail`]) — as first-class operators,
//! not pre/post-processing steps.
//!
//! The tree is synthesized by `UnifiedEngine` (which owns the substrate
//! handles), costed by [`super::cost::CostModel`], and lowered to a
//! [`super::physical::PhysicalPlan`] for execution bookkeeping and
//! explain rendering. Ordered [`LogicalNode::Alternatives`] encode the
//! engine's degradation ladder: the first branch to produce a signal
//! wins, later branches are fallbacks.

use unisem_relstore::plan::LogicalPlan as RelPlan;

/// Plan-time state of one relational candidate table.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidatePlan {
    /// Operator synthesis produced an executable relstore plan.
    Planned(RelPlan),
    /// The deterministic fault plan fires for this table; synthesis was
    /// skipped, exactly as the ladder skips it.
    Faulted,
    /// Synthesis failed; the reason is charged (and counted) only if
    /// execution actually visits this candidate.
    Unplannable(String),
    /// The table's value index proves the synthesized plan yields no signal
    /// ([`super::prune`]): it is kept for its estimate and never run.
    Pruned {
        /// The synthesized plan.
        plan: RelPlan,
        /// The filter conjunct no catalog value satisfies.
        reason: String,
    },
}

impl CandidatePlan {
    /// The synthesized relstore plan, whether it runs or was pruned.
    pub fn rel(&self) -> Option<&RelPlan> {
        match self {
            CandidatePlan::Planned(plan) | CandidatePlan::Pruned { plan, .. } => Some(plan),
            CandidatePlan::Faulted | CandidatePlan::Unplannable(_) => None,
        }
    }
}

/// One operator of the unified logical algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalNode {
    /// Admission gate: answer-sampling entropy must be certifiable.
    EntropyGate {
        /// Configured sample count.
        samples: usize,
        /// Governor floor below which the engine abstains.
        floor: usize,
        /// Plan to run once admitted.
        child: Box<LogicalNode>,
    },
    /// Semantic tagging of the question (intent analysis).
    SemTag {
        /// Entities recognized in the question.
        entities: usize,
        /// Whether the intent is a plain lookup.
        plain_lookup: bool,
        /// Whether the intent is comparative.
        comparative: bool,
        /// Downstream plan.
        child: Box<LogicalNode>,
    },
    /// Ordered fallback alternatives: first signal-bearing branch wins.
    Alternatives {
        /// Branches, best first.
        children: Vec<LogicalNode>,
    },
    /// A relational candidate: one table, one synthesized plan.
    Relational {
        /// Candidate table name.
        table: String,
        /// Plan-time synthesis outcome.
        plan: CandidatePlan,
    },
    /// Graph-topology traversal retrieval, with a lexical fallback branch.
    GraphTraverse {
        /// Chunks requested.
        top_k: usize,
        /// Governor frontier cap.
        max_frontier: usize,
        /// Fallback when traversal is unavailable.
        fallback: Box<LogicalNode>,
    },
    /// BM25 retrieval over the chunks' inverted index: the traversal's
    /// fallback, and the whole retrieval with topology off.
    LexicalScan {
        /// Chunks requested.
        top_k: usize,
    },
    /// Grounded evidence extraction over retrieved chunks.
    SemExtract {
        /// Evidence sentence cap.
        max_sentences: usize,
        /// Retrieval input.
        child: Box<LogicalNode>,
    },
    /// Semantic-entropy verification by sampling and entailment
    /// clustering.
    SemEntail {
        /// Samples drawn.
        samples: usize,
        /// Plan whose answer is verified.
        child: Box<LogicalNode>,
    },
    /// Confidence gate: abstain below the threshold.
    ConfidenceGate {
        /// Abstention threshold in `[0, 1]`.
        threshold: f64,
        /// Gated plan.
        child: Box<LogicalNode>,
    },
    /// Terminal abstention.
    Abstain,
}

impl LogicalNode {
    /// One-line operator label (no children).
    pub fn label(&self) -> String {
        match self {
            LogicalNode::EntropyGate { samples, floor, .. } => {
                format!("EntropyGate: samples={samples} floor={floor}")
            }
            LogicalNode::SemTag { entities, plain_lookup, comparative, .. } => format!(
                "SemTag: entities={entities} plain_lookup={plain_lookup} \
                 comparative={comparative}"
            ),
            LogicalNode::Alternatives { children } => {
                format!("Alternatives: {} branches", children.len())
            }
            LogicalNode::Relational { table, plan } => match plan {
                CandidatePlan::Planned(_) => format!("Relational: table '{table}'"),
                CandidatePlan::Faulted => {
                    format!("Relational: table '{table}' (fault injected)")
                }
                CandidatePlan::Unplannable(reason) => {
                    format!("Relational: table '{table}' (unplannable: {reason})")
                }
                CandidatePlan::Pruned { reason, .. } => {
                    format!("Relational: table '{table}' (pruned: {reason})")
                }
            },
            LogicalNode::GraphTraverse { top_k, max_frontier, .. } => {
                format!("GraphTraverse: top_k={top_k} max_frontier={max_frontier}")
            }
            LogicalNode::LexicalScan { top_k } => format!("LexicalScan: top_k={top_k}"),
            LogicalNode::SemExtract { max_sentences, .. } => {
                format!("SemExtract: max_sentences={max_sentences}")
            }
            LogicalNode::SemEntail { samples, .. } => format!("SemEntail: samples={samples}"),
            LogicalNode::ConfidenceGate { threshold, .. } => {
                format!("ConfidenceGate: threshold={threshold:?}")
            }
            LogicalNode::Abstain => "Abstain".to_string(),
        }
    }

    /// Child nodes in plan order.
    pub fn children(&self) -> Vec<&LogicalNode> {
        match self {
            LogicalNode::EntropyGate { child, .. }
            | LogicalNode::SemTag { child, .. }
            | LogicalNode::SemExtract { child, .. }
            | LogicalNode::SemEntail { child, .. }
            | LogicalNode::ConfidenceGate { child, .. } => vec![child],
            LogicalNode::Alternatives { children } => children.iter().collect(),
            LogicalNode::GraphTraverse { fallback, .. } => vec![fallback],
            LogicalNode::Relational { .. }
            | LogicalNode::LexicalScan { .. }
            | LogicalNode::Abstain => Vec::new(),
        }
    }

    /// The ordered branches of the first [`LogicalNode::Alternatives`] at
    /// or below this node, looking through the admission gate and the
    /// tagging node; empty for any other operator.
    pub fn alternatives(&self) -> &[LogicalNode] {
        match self {
            LogicalNode::Alternatives { children } => children,
            LogicalNode::EntropyGate { child, .. } | LogicalNode::SemTag { child, .. } => {
                child.alternatives()
            }
            _ => &[],
        }
    }

    /// Indented tree rendering (two spaces per depth); embedded relstore
    /// plans render through their own `explain`, re-indented in place.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&indent);
        out.push_str(&self.label());
        out.push('\n');
        let rel = match self {
            LogicalNode::Relational { plan, .. } => plan.rel(),
            _ => None,
        };
        if let Some(rel) = rel {
            for line in rel.explain().lines() {
                out.push_str(&indent);
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        for c in self.children() {
            c.render_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_relstore::Expr;

    fn sample() -> LogicalNode {
        LogicalNode::EntropyGate {
            samples: 8,
            floor: 4,
            child: Box::new(LogicalNode::SemTag {
                entities: 2,
                plain_lookup: false,
                comparative: false,
                child: Box::new(LogicalNode::Alternatives {
                    children: vec![
                        LogicalNode::SemEntail {
                            samples: 8,
                            child: Box::new(LogicalNode::Relational {
                                table: "sales".into(),
                                plan: CandidatePlan::Planned(
                                    RelPlan::scan("sales")
                                        .filter(Expr::col("region").eq(Expr::lit("emea"))),
                                ),
                            }),
                        },
                        LogicalNode::ConfidenceGate {
                            threshold: 0.35,
                            child: Box::new(LogicalNode::SemEntail {
                                samples: 8,
                                child: Box::new(LogicalNode::SemExtract {
                                    max_sentences: 6,
                                    child: Box::new(LogicalNode::GraphTraverse {
                                        top_k: 4,
                                        max_frontier: 64,
                                        fallback: Box::new(LogicalNode::LexicalScan { top_k: 4 }),
                                    }),
                                }),
                            }),
                        },
                        LogicalNode::Abstain,
                    ],
                }),
            }),
        }
    }

    #[test]
    fn render_spans_every_substrate() {
        let text = sample().render();
        assert!(text.contains("EntropyGate: samples=8 floor=4"), "{text}");
        assert!(text.contains("Relational: table 'sales'"), "{text}");
        assert!(text.contains("Scan: sales"), "embedded relstore plan: {text}");
        assert!(text.contains("GraphTraverse: top_k=4"), "{text}");
        assert!(text.contains("LexicalScan: top_k=4"), "{text}");
        assert!(text.contains("SemExtract"), "{text}");
        assert!(text.contains("SemEntail"), "{text}");
        assert!(text.contains("Abstain"), "{text}");
    }

    #[test]
    fn unplannable_and_faulted_render_reasons() {
        let n = LogicalNode::Relational {
            table: "t".into(),
            plan: CandidatePlan::Unplannable("no aggregate column".into()),
        };
        assert!(n.label().contains("unplannable: no aggregate column"));
        let f = LogicalNode::Relational { table: "t".into(), plan: CandidatePlan::Faulted };
        assert!(f.label().contains("fault injected"));
        let p = LogicalNode::Relational {
            table: "t".into(),
            plan: CandidatePlan::Pruned {
                plan: RelPlan::scan("t").filter(Expr::col("s").eq(Expr::lit("x"))),
                reason: "(s = 'x') matches no catalog value".into(),
            },
        };
        let text = p.render();
        assert!(text.contains("(pruned: (s = 'x') matches no catalog value)"), "{text}");
        assert!(text.contains("Scan: t"), "a pruned plan still renders: {text}");
    }
}
