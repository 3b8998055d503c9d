//! Answer envelope: text + route + provenance + uncertainty.

use std::fmt;

use tracekit::component::Component;
use tracekit::QueryTrace;
use unisem_entropy::EntropyReport;
use unisem_relstore::Table;

/// Which resolution path produced the answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Compiled to a logical plan over a table.
    Structured {
        /// The table the plan ran against.
        table: String,
    },
    /// Answered from retrieved text chunks.
    Unstructured {
        /// Chunk ids consulted.
        chunks: Vec<usize>,
    },
    /// Structured attempt fell back to retrieval (or vice versa).
    Hybrid {
        /// The table consulted (if any).
        table: Option<String>,
        /// Chunk ids consulted.
        chunks: Vec<usize>,
    },
    /// The engine declined to answer (high uncertainty / no evidence).
    Abstained,
}

impl Route {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Route::Structured { .. } => "structured",
            Route::Unstructured { .. } => "unstructured",
            Route::Hybrid { .. } => "hybrid",
            Route::Abstained => "abstained",
        }
    }
}

/// One rung-to-rung downgrade on the graceful-degradation ladder
/// (structured → hybrid → pure retrieval → abstain; DESIGN.md §8). Every
/// answer that did not take the best route it attempted carries at least
/// one of these, so "why did this route down" is always diagnosable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The component that failed or was bounded, e.g. `relstore.exec`,
    /// `hetgraph.traverse`, `slm.generate`, `entropy.confidence`.
    pub component: Component,
    /// What happened, human-readable.
    pub reason: String,
}

impl Degradation {
    /// Creates a degradation record. The component is a label from the
    /// closed registry in [`tracekit::component`] — one namespace shared
    /// with fault-site names and metric prefixes — so degradation records,
    /// fault reports, and metrics always agree on a subsystem's name.
    pub fn new(component: Component, reason: impl Into<String>) -> Self {
        Self { component, reason: reason.into() }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.component, self.reason)
    }
}

/// One provenance pointer.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// A chunk of a document.
    Chunk {
        /// Chunk id in the engine's docstore.
        chunk_id: usize,
        /// Owning document id.
        doc_id: usize,
    },
    /// Rows of a table.
    TableRows {
        /// Table name.
        table: String,
        /// Number of rows that contributed.
        rows: usize,
    },
}

/// A fully-attributed answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The answer text (empty only when abstaining).
    pub text: String,
    /// Confidence in `[0, 1]`: `1 − normalized semantic entropy`.
    pub confidence: f64,
    /// The uncertainty report backing the confidence.
    pub entropy: EntropyReport,
    /// Resolution path.
    pub route: Route,
    /// Supporting evidence pointers.
    pub provenance: Vec<Provenance>,
    /// The result table, when the structured route produced one.
    pub result_table: Option<Table>,
    /// Ladder downgrades taken while resolving this answer, in order.
    /// Empty when the answer took the best route it attempted.
    pub degradations: Vec<Degradation>,
    /// Per-query explain trace (the costed plan tree with the actual
    /// of every operator that ran, and the resource meter). `None` unless
    /// `EngineConfig::trace` opted in; deterministic when present.
    pub trace: Option<QueryTrace>,
}

impl Answer {
    /// True when the engine abstained.
    pub fn is_abstention(&self) -> bool {
        matches!(self.route, Route::Abstained)
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [route={} confidence={:.2} clusters={}]",
            if self.text.is_empty() { "(abstained)" } else { &self.text },
            self.route.label(),
            self.confidence,
            self.entropy.n_clusters
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> EntropyReport {
        EntropyReport {
            n_samples: 5,
            n_clusters: 1,
            semantic_entropy: 0.0,
            discrete_semantic_entropy: 0.0,
            predictive_entropy: 0.1,
            lexical_variance: 0.2,
            top_answer: Some("x".into()),
        }
    }

    #[test]
    fn route_labels() {
        assert_eq!(Route::Structured { table: "t".into() }.label(), "structured");
        assert_eq!(Route::Abstained.label(), "abstained");
    }

    #[test]
    fn display_and_abstention() {
        let a = Answer {
            text: "42".into(),
            confidence: 0.9,
            entropy: report(),
            route: Route::Structured { table: "t".into() },
            provenance: vec![],
            result_table: None,
            degradations: vec![],
            trace: None,
        };
        assert!(!a.is_abstention());
        assert!(a.to_string().contains("42"));
        let abst = Answer { text: String::new(), route: Route::Abstained, ..a };
        assert!(abst.is_abstention());
        assert!(abst.to_string().contains("abstained"));
    }

    #[test]
    fn degradation_display_and_flag() {
        let d = Degradation::new(tracekit::component::REL_EXEC, "join budget exceeded");
        assert_eq!(d.to_string(), "relstore.exec: join budget exceeded");
    }
}
