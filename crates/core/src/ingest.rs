//! Ingestion quarantine: per-source failure containment (DESIGN.md §8).
//!
//! The paper targets messy heterogeneous sources (§I); a data lake with one
//! malformed JSON log must not lose its thousand good documents. Instead
//! of aborting, [`crate::EngineBuilder::build`] quarantines each failing
//! source with a typed reason and returns an [`IngestReport`] alongside the
//! engine, so operators can audit exactly what was excluded and why.

use std::fmt;

/// Why a source was quarantined rather than ingested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// JSON document failed to parse.
    Json(String),
    /// A collection failed to flatten into a relational table.
    Flatten(String),
    /// Relational table generation over the documents failed.
    Extraction(String),
    /// A deterministic fault-injection hook fired at this source
    /// (see `faultkit`).
    InjectedFault(String),
}

impl QuarantineReason {
    /// Short category label for summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            QuarantineReason::Json(_) => "json",
            QuarantineReason::Flatten(_) => "flatten",
            QuarantineReason::Extraction(_) => "extraction",
            QuarantineReason::InjectedFault(_) => "injected-fault",
        }
    }

    /// The underlying error message.
    pub fn message(&self) -> &str {
        match self {
            QuarantineReason::Json(m)
            | QuarantineReason::Flatten(m)
            | QuarantineReason::Extraction(m)
            | QuarantineReason::InjectedFault(m) => m,
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

/// One quarantined source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// What was excluded, e.g. `collection 'orders'` or
    /// `json document 'configs:3'`.
    pub source: String,
    /// Why it was excluded.
    pub reason: QuarantineReason,
}

impl fmt::Display for Quarantined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.source, self.reason)
    }
}

/// What a build ingested and what it had to quarantine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Sources excluded from the engine, in ingestion order.
    pub quarantined: Vec<Quarantined>,
    /// Relational tables registered (native + flattened + extracted).
    pub tables: usize,
    /// Semi-structured collections successfully flattened.
    pub collections_flattened: usize,
    /// Unstructured documents indexed.
    pub documents: usize,
    /// Rows in the `extracted` table (0 when extraction is disabled,
    /// produced nothing, or was quarantined).
    pub extracted_rows: usize,
}

impl IngestReport {
    /// Number of quarantined sources.
    pub fn num_quarantined(&self) -> usize {
        self.quarantined.len()
    }

    /// One-line operator summary.
    pub fn summary(&self) -> String {
        format!(
            "{} tables, {} collections, {} documents, {} extracted rows; {} quarantined",
            self.tables,
            self.collections_flattened,
            self.documents,
            self.extracted_rows,
            self.quarantined.len()
        )
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())?;
        for q in &self.quarantined {
            write!(f, "\n  - {q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report() {
        let r = IngestReport { tables: 2, documents: 3, ..IngestReport::default() };
        assert_eq!(r.num_quarantined(), 0);
        assert!(r.summary().contains("0 quarantined"));
    }

    #[test]
    fn quarantine_accounting() {
        let r = IngestReport {
            quarantined: vec![
                Quarantined {
                    source: "collection 'orders'".into(),
                    reason: QuarantineReason::Flatten("boom".into()),
                },
                Quarantined {
                    source: "json document 'configs:0'".into(),
                    reason: QuarantineReason::Json("unterminated string".into()),
                },
            ],
            ..IngestReport::default()
        };
        assert_eq!(r.num_quarantined(), 2);
        let shown = r.to_string();
        assert!(shown.contains("orders") && shown.contains("unterminated string"), "{shown}");
        assert_eq!(r.quarantined[0].reason.kind(), "flatten");
        assert_eq!(r.quarantined[0].reason.message(), "boom");
        assert_eq!(r.quarantined[1].reason.kind(), "json");
    }
}
