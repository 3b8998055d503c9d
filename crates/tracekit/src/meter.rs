//! Per-query resource meters (DESIGN.md §14).
//!
//! A [`ResourceMeter`] counts the physical work one `answer` call performs
//! — postings scanned, graph nodes popped, dense vectors compared, SLM
//! invocations/samples. Every field is written on the query path and is a
//! pure function of the data and the query (never of timing or thread
//! count), so meters are byte-identical at any parallelism and under the
//! pinned fault plans: they are the *measured* side of the planner's
//! estimated-vs-actual cost contract, and the per-query rows behind the
//! `meter.*` histograms in [`crate::metrics::Hist`].

use crate::json_escape;

/// Deterministic physical-resource counts for one query. Carried on
/// `QueryTrace::meter` and aggregated into the `meter.*` histogram
/// registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceMeter {
    /// Inverted-index posting entries scanned.
    pub postings_scanned: u64,
    /// Graph traversal heap expansions.
    pub nodes_popped: u64,
    /// Dense vectors compared by cosine scans.
    pub dense_compared: u64,
    /// SLM invocations (entity tagging, embedding, answer synthesis).
    pub slm_calls: u64,
    /// SLM answer samples drawn for entropy estimation.
    pub slm_samples: u64,
}

impl ResourceMeter {
    /// `(name, value)` for every field, in declaration order — the single
    /// source for rendering, so no consumer can skip a field silently.
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("postings_scanned", self.postings_scanned),
            ("nodes_popped", self.nodes_popped),
            ("dense_compared", self.dense_compared),
            ("slm_calls", self.slm_calls),
            ("slm_samples", self.slm_samples),
        ]
    }

    /// Stable single-line JSON object (key order = declaration order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.fields().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_complete() {
        let meter = ResourceMeter {
            postings_scanned: 2,
            nodes_popped: 3,
            dense_compared: 4,
            slm_calls: 5,
            slm_samples: 6,
        };
        assert_eq!(
            meter.to_json(),
            "{\"postings_scanned\":2,\"nodes_popped\":3,\"dense_compared\":4,\
             \"slm_calls\":5,\"slm_samples\":6}"
        );
        assert_eq!(ResourceMeter::default().fields().iter().map(|(_, v)| v).sum::<u64>(), 0);
    }
}
