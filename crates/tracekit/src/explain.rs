//! Per-query explain traces.
//!
//! A [`QueryTrace`] is the costed physical plan the query ran — every
//! operator with its estimate and, where it ran, its actual — plus the
//! route it took and the work it metered. Every field is a pure function
//! of the engine configuration and the data, so a trace is byte-identical
//! at any thread count.

use crate::json_escape;
use crate::meter::ResourceMeter;

/// The per-query explain trace (`Answer::trace`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The question asked.
    pub question: String,
    /// The route the answer reports.
    pub route: String,
    /// The rendered physical plan: each operator's estimated cost and,
    /// for every operator that ran, its actual.
    pub plan: Option<String>,
    /// Physical-resource meter for the query, if the engine metered it.
    pub meter: Option<ResourceMeter>,
}

impl QueryTrace {
    /// Renders the trace as one JSON line. Deterministic; no timing enters
    /// it.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"q\":\"{}\",\"route\":\"{}\"",
            json_escape(&self.question),
            json_escape(&self.route)
        );
        match &self.plan {
            Some(p) => out.push_str(&format!(",\"plan\":\"{}\"", json_escape(p))),
            None => out.push_str(",\"plan\":null"),
        }
        match &self.meter {
            Some(m) => out.push_str(&format!(",\"meter\":{}", m.to_json())),
            None => out.push_str(",\"meter\":null"),
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips_through_jsonl_deterministically() {
        let trace = QueryTrace {
            question: "total \"revenue\"?".to_string(),
            route: "structured".to_string(),
            plan: Some("Aggregate\n  Scan: orders | actual: rows=1".to_string()),
            meter: Some(ResourceMeter { slm_calls: 3, postings_scanned: 12, ..Default::default() }),
        };
        let a = trace.to_jsonl();
        assert_eq!(a, trace.to_jsonl());
        assert_eq!(a.lines().count(), 1, "{a}");
        assert!(a.starts_with("{\"q\":\"total \\\"revenue\\\"?\",\"route\":\"structured\""), "{a}");
        assert!(a.contains("\"plan\":\"Aggregate\\n  Scan: orders | actual: rows=1\""), "{a}");
        assert!(a.contains("\"meter\":{\"postings_scanned\":12"), "{a}");
        assert!(a.contains("\"slm_calls\":3"));
        assert!(!a.contains("_ns"), "no timings inside the trace: {a}");
    }

    #[test]
    fn empty_trace_still_renders_a_summary() {
        let trace =
            QueryTrace { question: "q".into(), route: "abstained".into(), plan: None, meter: None };
        assert_eq!(
            trace.to_jsonl(),
            "{\"q\":\"q\",\"route\":\"abstained\",\"plan\":null,\"meter\":null}\n"
        );
    }
}
