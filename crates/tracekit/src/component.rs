//! The closed component-label registry.
//!
//! One namespace, three consumers: `Degradation::component` labels on the
//! graceful-degradation ladder, faultkit's [`Site`] names, and the prefix
//! convention of the [`crate::metrics::Metric`] registry. Keeping the
//! labels here — and only here — means a degradation, a fault report, and
//! a metric about the same subsystem always agree on its name, and ci.sh
//! can grep for ad-hoc string labels sneaking in at call sites.
//!
//! [`Site`]: https://docs.rs/faultkit

/// JSON/XML document parsing at ingestion.
pub const SEMI_PARSE: &str = "semistore.parse";
/// Collection flattening into a relational table.
pub const SEMI_FLATTEN: &str = "semistore.flatten";
/// Logical-plan execution on the structured route.
pub const REL_EXEC: &str = "relstore.exec";
/// Relational table generation over documents.
pub const EXTRACT_TABLEGEN: &str = "extract.tablegen";
/// Topology retrieval's bounded graph traversal.
pub const GRAPH_TRAVERSE: &str = "hetgraph.traverse";
/// Answer sampling for semantic-entropy scoring.
pub const SLM_GENERATE: &str = "slm.generate";
/// Operator synthesis from a parsed intent.
pub const SEMOPS_SYNTHESIZE: &str = "semops.synthesize";
/// The structured rung as a whole (no table produced a result).
pub const ENGINE_STRUCTURED: &str = "engine.structured";
/// Grounded-evidence extraction over retrieved chunks.
pub const RETRIEVAL_EVIDENCE: &str = "retrieval.evidence";
/// The entropy sample-floor governor.
pub const ENTROPY_SAMPLES: &str = "entropy.samples";
/// The semantic-entropy confidence gate.
pub const ENTROPY_CONFIDENCE: &str = "entropy.confidence";
/// Snapshot frame write in the storage layer (torn-write fault site).
pub const STORE_WRITE: &str = "store.write";
/// Durable flush (fsync) in the storage layer (failed-flush fault site).
pub const STORE_FLUSH: &str = "store.flush";
/// Write-ahead-log record append (torn-record fault site).
pub const WAL_APPEND: &str = "wal.append";
/// Write-ahead-log durable flush — lost buffered records on failure.
pub const WAL_FLUSH: &str = "wal.flush";
/// Checkpoint protocol (snapshot fold + WAL truncation).
pub const WAL_CHECKPOINT: &str = "wal.checkpoint";

/// Every registered component label.
pub const ALL: [&str; 16] = [
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

/// True when `name` is a registered component label. `Degradation::new`
/// debug-asserts this, so an ad-hoc label fails the test suite rather
/// than silently forking the namespace.
pub fn is_registered(name: &str) -> bool {
    ALL.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_dotted_and_duplicate_free() {
        for name in ALL {
            assert!(name.contains('.'), "component labels are `subsystem.operation`: {name}");
            assert!(is_registered(name));
        }
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "duplicate component label");
        assert!(!is_registered("structured"), "bare labels must stay unregistered");
    }
}
