//! # tracekit
//!
//! Deterministic observability for the unisem engine (DESIGN.md §9):
//! per-query explain traces and a closed-registry metrics layer.
//! Std-only and dependency-free, matching the detkit/parkit/faultkit
//! substrate-kit pattern.
//!
//! Two pillars:
//!
//! 1. **Per-query explain traces** ([`explain::QueryTrace`]): the costed
//!    physical plan with an actual on every operator that ran, the route,
//!    and the [`meter::ResourceMeter`] — attached to `Answer::trace` when
//!    `EngineConfig::trace` opts in, and rendered as one JSON line by
//!    [`explain::QueryTrace::to_jsonl`]. No duration enters a trace, so it
//!    is byte-identical at any thread count.
//! 2. **Closed-registry metrics** ([`metrics::MetricsRegistry`]):
//!    counters, gauges, and histograms addressed only by the
//!    compile-time [`metrics::Metric`] / [`metrics::Hist`] enums — no
//!    dynamically-constructed metric name compiles. Every recorded value
//!    is a pure function of the data (row counts, frontier sizes, sample
//!    counts — never durations), so a [`metrics::MetricsReport`] snapshot is
//!    byte-identical at any thread count. Wall-clock stage timings live
//!    in the separate, deliberately *non*-deterministic
//!    [`metrics::TimingReport`].
//!
//! [`component`] is the closed registry of component labels shared by
//! degradation records, fault-injection site names, and metric prefixes;
//! its [`component::Component`] type cannot be built outside it.

pub mod component;
pub mod explain;
pub mod hist;
pub mod meter;
pub mod metrics;
pub mod wall;

pub use explain::QueryTrace;
pub use meter::ResourceMeter;
pub use metrics::{Hist, Metric, MetricsRegistry, MetricsReport, Stage, TimingReport};

/// Escapes a string for embedding in a JSON string literal (shared by the
/// trace and report renderers; tracekit is dependency-free by policy).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
