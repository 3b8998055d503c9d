//! Deterministic span flamegraphs (DESIGN.md §14).
//!
//! [`FlameGraph`] folds [`crate::explain::QueryTrace`]s into a
//! hierarchical weight tree and renders it in the standard folded-stacks
//! text format (`frame;frame;frame weight`, one line per stack). Every
//! weight is a deterministic quantity already present in the trace —
//! rung attempts, logical-clock events, traversal work, entropy samples,
//! resource-meter totals — never a duration, so the folded text is
//! byte-identical at any thread count and can be diffed, committed, or
//! fed to any external flamegraph renderer.
//!
//! Aggregation is additive: fold any number of traces into one graph and
//! the result is independent of insertion order (weights sum; frames sort
//! lexicographically in a `BTreeMap`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::explain::QueryTrace;

/// One frame in the flame tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Frame {
    /// Weight attributed to exactly this stack (not descendants).
    weight: u64,
    children: BTreeMap<String, Frame>,
}

impl Frame {
    fn total(&self) -> u64 {
        self.weight + self.children.values().map(Frame::total).sum::<u64>()
    }

    fn fold_into(&self, prefix: &str, out: &mut String) {
        if self.weight > 0 {
            out.push_str(prefix);
            let _ = writeln!(out, " {}", self.weight);
        }
        for (name, child) in &self.children {
            child.fold_into(&format!("{prefix};{name}"), out);
        }
    }
}

/// A deterministic, mergeable flamegraph over query traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlameGraph {
    roots: BTreeMap<String, Frame>,
}

impl FlameGraph {
    /// An empty graph.
    pub fn new() -> FlameGraph {
        FlameGraph::default()
    }

    /// A graph holding one trace.
    pub fn from_trace(trace: &QueryTrace) -> FlameGraph {
        let mut graph = FlameGraph::new();
        graph.add_trace(trace);
        graph
    }

    /// Adds `weight` at the stack `path` (root-first). Zero weights are
    /// dropped so code paths that did no work leave no frame behind.
    pub fn add(&mut self, path: &[&str], weight: u64) {
        if weight == 0 || path.is_empty() {
            return;
        }
        let mut frame = self.roots.entry(path[0].to_string()).or_default();
        for name in &path[1..] {
            frame = frame.children.entry((*name).to_string()).or_default();
        }
        frame.weight += weight;
    }

    /// Folds one query trace into the graph. Every weight is a
    /// deterministic quantity the trace already carries.
    pub fn add_trace(&mut self, trace: &QueryTrace) {
        for rung in &trace.rungs {
            self.add(&["answer", rung.rung, rung.outcome.label()], 1);
        }
        for event in &trace.events {
            self.add(&["answer", "event", event.name], 1);
        }
        if let Some(t) = &trace.traversal {
            self.add(&["answer", "retrieval", "traverse"], t.nodes_popped as u64);
            self.add(&["answer", "retrieval", "score"], t.chunks_scored as u64);
            if t.dense_fallback {
                self.add(&["answer", "retrieval", "dense_fallback"], 1);
            }
            if t.lexical_fallback {
                self.add(&["answer", "retrieval", "lexical_fallback"], 1);
            }
        }
        if let Some(e) = &trace.entropy {
            self.add(&["answer", "entropy", "sample"], e.n_samples as u64);
            self.add(&["answer", "entropy", "cluster"], e.n_clusters as u64);
        }
        if let Some(m) = &trace.meter {
            for (name, value) in m.fields() {
                self.add(&["answer", "meter", name], value);
            }
        }
    }

    /// Total weight across all stacks.
    pub fn total(&self) -> u64 {
        self.roots.values().map(Frame::total).sum()
    }

    /// True when no stack carries weight.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// The standard folded-stacks text: one `a;b;c weight` line per stack
    /// with nonzero self-weight, lexicographic stack order. Byte-stable
    /// input for external flamegraph renderers and determinism diffs.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (name, frame) in &self.roots {
            frame.fold_into(name, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{RungOutcome, TraceScope, TraversalTrace};
    use crate::meter::ResourceMeter;

    fn sample_trace() -> QueryTrace {
        let mut scope = TraceScope::enabled("q");
        scope.event("intent.parsed", || "aggregate".to_string());
        scope.rung("structured", RungOutcome::Failed, || String::new());
        scope.rung("retrieval", RungOutcome::Succeeded, || String::new());
        scope.set_traversal(TraversalTrace {
            anchors: 2,
            nodes_touched: 9,
            nodes_popped: 7,
            chunks_scored: 4,
            ..Default::default()
        });
        scope.set_meter(ResourceMeter { slm_calls: 2, postings_scanned: 31, ..Default::default() });
        scope.finish("retrieval").unwrap()
    }

    #[test]
    fn folded_stacks_are_sorted_and_weighted() {
        let graph = FlameGraph::from_trace(&sample_trace());
        let folded = graph.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded stacks are emitted in sorted order:\n{folded}");
        assert!(folded.contains("answer;event;intent.parsed 1"), "{folded}");
        assert!(folded.contains("answer;retrieval;traverse 7"));
        assert!(folded.contains("answer;retrieval;score 4"));
        assert!(folded.contains("answer;structured;failed 1"));
        assert!(folded.contains("answer;meter;postings_scanned 31"));
        assert!(!folded.contains("dense_compared"), "zero meter fields leave no frame");
    }

    #[test]
    fn aggregation_is_additive_and_order_independent() {
        let trace = sample_trace();
        let mut twice = FlameGraph::new();
        twice.add_trace(&trace);
        twice.add_trace(&trace);
        assert_eq!(twice.total(), 2 * FlameGraph::from_trace(&trace).total());
        assert!(twice.to_folded().contains("answer;retrieval;traverse 14"));

        let mut other = TraceScope::enabled("q2");
        other.rung("structured", RungOutcome::Succeeded, || String::new());
        let other = other.finish("structured").unwrap();
        let mut ab = FlameGraph::new();
        ab.add_trace(&trace);
        ab.add_trace(&other);
        let mut ba = FlameGraph::new();
        ba.add_trace(&other);
        ba.add_trace(&trace);
        assert_eq!(ab.to_folded(), ba.to_folded());
        assert_eq!(ab, ba);
    }

    #[test]
    fn empty_graph_and_zero_weights() {
        let mut graph = FlameGraph::new();
        assert!(graph.is_empty());
        assert_eq!(graph.to_folded(), "");
        graph.add(&["a", "b"], 0);
        assert!(graph.is_empty(), "zero weight leaves no stack");
        graph.add(&[], 5);
        assert!(graph.is_empty(), "empty path is a no-op");
        graph.add(&["a"], 3);
        assert_eq!(graph.to_folded(), "a 3\n");
    }
}
