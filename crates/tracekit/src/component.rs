//! The closed component-label registry.
//!
//! One namespace, three consumers: `Degradation::component` labels on the
//! graceful-degradation ladder, faultkit's [`Site`] names, and the prefix
//! convention of the [`crate::metrics::Metric`] registry. Keeping the
//! labels here — and only here — means a degradation, a fault report, and
//! a metric about the same subsystem always agree on its name.
//!
//! The registry is closed by the type system: [`Component`]'s one field is
//! private, so the constants below are the only components there are, and
//! an ad-hoc label does not compile.
//!
//! ```compile_fail
//! let _ = tracekit::component::Component("freeform.label");
//! ```
//!
//! [`Site`]: https://docs.rs/faultkit

use std::fmt;

/// A registered component label: one of this module's constants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Component(&'static str);

impl Component {
    /// The dotted label, `subsystem.operation`.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Renders as the quoted label, exactly as the `&str` it replaced did.
impl fmt::Debug for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

/// JSON document parsing at ingestion.
pub const SEMI_PARSE: Component = Component("semistore.parse");
/// Collection flattening into a relational table.
pub const SEMI_FLATTEN: Component = Component("semistore.flatten");
/// Logical-plan execution on the structured route.
pub const REL_EXEC: Component = Component("relstore.exec");
/// Relational table generation over documents.
pub const EXTRACT_TABLEGEN: Component = Component("extract.tablegen");
/// Topology retrieval's bounded graph traversal.
pub const GRAPH_TRAVERSE: Component = Component("hetgraph.traverse");
/// Answer sampling for semantic-entropy scoring.
pub const SLM_GENERATE: Component = Component("slm.generate");
/// Operator synthesis from a parsed intent.
pub const SEMOPS_SYNTHESIZE: Component = Component("semops.synthesize");
/// The structured rung as a whole (no table produced a result).
pub const ENGINE_STRUCTURED: Component = Component("engine.structured");
/// Grounded-evidence extraction over retrieved chunks.
pub const RETRIEVAL_EVIDENCE: Component = Component("retrieval.evidence");
/// The entropy sample-floor governor.
pub const ENTROPY_SAMPLES: Component = Component("entropy.samples");
/// The semantic-entropy confidence gate.
pub const ENTROPY_CONFIDENCE: Component = Component("entropy.confidence");
/// Snapshot frame write in the storage layer (torn-write fault site).
pub const STORE_WRITE: Component = Component("store.write");
/// Durable flush (fsync) in the storage layer (failed-flush fault site).
pub const STORE_FLUSH: Component = Component("store.flush");
/// Write-ahead-log record append (torn-record fault site).
pub const WAL_APPEND: Component = Component("wal.append");
/// Write-ahead-log durable flush — lost buffered records on failure.
pub const WAL_FLUSH: Component = Component("wal.flush");
/// Checkpoint protocol (snapshot fold + WAL truncation).
pub const WAL_CHECKPOINT: Component = Component("wal.checkpoint");

/// Every registered component label.
pub const ALL: [Component; 16] = [
    SEMI_PARSE,
    SEMI_FLATTEN,
    REL_EXEC,
    EXTRACT_TABLEGEN,
    GRAPH_TRAVERSE,
    SLM_GENERATE,
    SEMOPS_SYNTHESIZE,
    ENGINE_STRUCTURED,
    RETRIEVAL_EVIDENCE,
    ENTROPY_SAMPLES,
    ENTROPY_CONFIDENCE,
    STORE_WRITE,
    STORE_FLUSH,
    WAL_APPEND,
    WAL_FLUSH,
    WAL_CHECKPOINT,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_dotted_and_duplicate_free() {
        for c in ALL {
            assert!(c.name().contains('.'), "component labels are `subsystem.operation`: {c}");
            assert_eq!(format!("{c:?}"), format!("{:?}", c.name()), "Debug is the quoted label");
        }
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "duplicate component label");
    }
}
