//! Per-query explain traces with a deterministic logical clock.
//!
//! A [`TraceScope`] rides along one `answer` call. Its clock is a plain
//! per-query sequence counter — event `seq` numbers say *in what order*
//! things happened, never *when* — so a [`QueryTrace`] is byte-identical
//! at any thread count. All recording methods take closures so a disabled
//! scope costs one branch and zero allocations.

use crate::flame::FlameGraph;
use crate::json_escape;
use crate::meter::ResourceMeter;
use crate::trace::{wall_clock_enabled, TraceSink};

/// One logical-clock event inside a query.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic per-query sequence number (the logical clock).
    pub seq: u32,
    /// Compile-time event name.
    pub name: &'static str,
    /// Data-derived detail (never timings).
    pub detail: String,
}

/// How a degradation-ladder rung ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungOutcome {
    /// The rung produced the answer.
    Succeeded,
    /// The rung was attempted and failed (a degradation was recorded).
    Failed,
    /// The rung was disabled or short-circuited.
    Skipped,
}

impl RungOutcome {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            RungOutcome::Succeeded => "succeeded",
            RungOutcome::Failed => "failed",
            RungOutcome::Skipped => "skipped",
        }
    }
}

/// One degradation-ladder rung as the query saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct RungAttempt {
    /// Rung name (`structured`, `retrieval`, …).
    pub rung: &'static str,
    /// How it ended.
    pub outcome: RungOutcome,
    /// Data-derived detail (component label, table tried, …).
    pub detail: String,
}

/// Traversal statistics recorded into the explain trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraversalTrace {
    /// Anchor nodes the query linked to.
    pub anchors: usize,
    /// Distinct nodes discovered.
    pub nodes_touched: usize,
    /// Heap expansions performed.
    pub nodes_popped: usize,
    /// Chunk candidates scored.
    pub chunks_scored: usize,
    /// The frontier governor truncated the traversal.
    pub frontier_capped: bool,
    /// Retrieval fell back to pure lexical scoring.
    pub lexical_fallback: bool,
}

/// The entropy verdict recorded into the explain trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyVerdict {
    /// Samples drawn.
    pub n_samples: usize,
    /// Semantic clusters formed.
    pub n_clusters: usize,
    /// Discrete semantic entropy over the clusters.
    pub discrete_semantic_entropy: f64,
    /// Calibrated confidence derived from the entropy.
    pub confidence: f64,
    /// The confidence gate abstained.
    pub abstained: bool,
}

/// The per-query explain trace (`Answer::trace`).
///
/// Deterministic by construction: every field is a pure function of the
/// engine configuration and the data. Rendering floats with `{:?}`
/// (shortest round-trip) keeps `to_jsonl` byte-stable too.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The question asked.
    pub question: String,
    /// Degradation-ladder rungs in attempt order.
    pub rungs: Vec<RungAttempt>,
    /// Display rendering of the synthesized logical plan, if any rung got
    /// that far.
    pub plan: Option<String>,
    /// Traversal statistics, if the retrieval rung ran.
    pub traversal: Option<TraversalTrace>,
    /// Entropy verdict, if estimation ran.
    pub entropy: Option<EntropyVerdict>,
    /// Physical-resource meter for the query, if the engine metered it.
    pub meter: Option<ResourceMeter>,
    /// The route the answer reports.
    pub route: String,
    /// Logical-clock event log.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// Renders the trace as a JSON-lines block: one `event` line per
    /// logical-clock event, then one `summary` line. Deterministic; the
    /// optional wall-clock line is appended by the emitter, not here.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let q = json_escape(&self.question);
        for e in &self.events {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"q\":\"{q}\",\"seq\":{},\"name\":\"{}\",\"detail\":\"{}\"}}\n",
                e.seq,
                json_escape(e.name),
                json_escape(&e.detail)
            ));
        }
        out.push_str(&format!(
            "{{\"type\":\"summary\",\"q\":\"{q}\",\"route\":\"{}\",\"rungs\":[",
            json_escape(&self.route)
        ));
        for (i, r) in self.rungs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rung\":\"{}\",\"outcome\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(r.rung),
                r.outcome.label(),
                json_escape(&r.detail)
            ));
        }
        out.push(']');
        match &self.plan {
            Some(p) => out.push_str(&format!(",\"plan\":\"{}\"", json_escape(p))),
            None => out.push_str(",\"plan\":null"),
        }
        match &self.traversal {
            Some(t) => out.push_str(&format!(
                ",\"traversal\":{{\"anchors\":{},\"nodes_touched\":{},\"nodes_popped\":{},\"chunks_scored\":{},\"frontier_capped\":{},\"lexical_fallback\":{}}}",
                t.anchors, t.nodes_touched, t.nodes_popped, t.chunks_scored,
                t.frontier_capped, t.lexical_fallback
            )),
            None => out.push_str(",\"traversal\":null"),
        }
        match &self.entropy {
            Some(e) => out.push_str(&format!(
                ",\"entropy\":{{\"n_samples\":{},\"n_clusters\":{},\"discrete_semantic_entropy\":{:?},\"confidence\":{:?},\"abstained\":{}}}",
                e.n_samples, e.n_clusters, e.discrete_semantic_entropy, e.confidence, e.abstained
            )),
            None => out.push_str(",\"entropy\":null"),
        }
        match &self.meter {
            Some(m) => out.push_str(&format!(",\"meter\":{}", m.to_json())),
            None => out.push_str(",\"meter\":null"),
        }
        out.push_str("}\n");
        out
    }
}

enum ScopeState {
    Disabled,
    Enabled(Box<QueryTrace>),
}

/// Collects one query's explain trace.
///
/// Disabled scopes make every recording call a single branch with zero
/// allocation — all detail arguments are closures evaluated only when
/// enabled. The `seq` counter is the deterministic logical clock.
pub struct TraceScope {
    state: ScopeState,
    seq: u32,
}

impl TraceScope {
    /// A scope that records nothing (the hot-path default).
    pub fn disabled() -> TraceScope {
        TraceScope { state: ScopeState::Disabled, seq: 0 }
    }

    /// A scope recording a trace for `question`.
    pub fn enabled(question: &str) -> TraceScope {
        TraceScope {
            state: ScopeState::Enabled(Box::new(QueryTrace {
                question: question.to_string(),
                rungs: Vec::new(),
                plan: None,
                traversal: None,
                entropy: None,
                meter: None,
                route: String::new(),
                events: Vec::new(),
            })),
            seq: 0,
        }
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        matches!(self.state, ScopeState::Enabled(_))
    }

    /// Records a logical-clock event. `detail` runs only when enabled.
    pub fn event(&mut self, name: &'static str, detail: impl FnOnce() -> String) {
        if let ScopeState::Enabled(trace) = &mut self.state {
            trace.events.push(TraceEvent { seq: self.seq, name, detail: detail() });
            self.seq += 1;
        }
    }

    /// Records a degradation-ladder rung attempt.
    pub fn rung(
        &mut self,
        rung: &'static str,
        outcome: RungOutcome,
        detail: impl FnOnce() -> String,
    ) {
        if let ScopeState::Enabled(trace) = &mut self.state {
            trace.rungs.push(RungAttempt { rung, outcome, detail: detail() });
        }
    }

    /// Records the synthesized plan (Display rendering).
    pub fn set_plan(&mut self, plan: impl FnOnce() -> String) {
        if let ScopeState::Enabled(trace) = &mut self.state {
            trace.plan = Some(plan());
        }
    }

    /// Records traversal statistics.
    pub fn set_traversal(&mut self, traversal: TraversalTrace) {
        if let ScopeState::Enabled(trace) = &mut self.state {
            trace.traversal = Some(traversal);
        }
    }

    /// Records the entropy verdict.
    pub fn set_entropy(&mut self, verdict: EntropyVerdict) {
        if let ScopeState::Enabled(trace) = &mut self.state {
            trace.entropy = Some(verdict);
        }
    }

    /// Records the per-query resource meter.
    pub fn set_meter(&mut self, meter: ResourceMeter) {
        if let ScopeState::Enabled(trace) = &mut self.state {
            trace.meter = Some(meter);
        }
    }

    /// Finishes the scope, returning the trace (None when disabled).
    pub fn finish(self, route: &str) -> Option<QueryTrace> {
        match self.state {
            ScopeState::Disabled => None,
            ScopeState::Enabled(mut trace) => {
                trace.route = route.to_string();
                Some(*trace)
            }
        }
    }
}

/// Renders one query's sink block: the deterministic JSON-lines from
/// [`QueryTrace::to_jsonl`], one folded-flamegraph line (so `UNISEM_TRACE`
/// dumps carry the span aggregation), plus — only when
/// `UNISEM_TRACE_WALL=1` — one out-of-band wall-clock line. The wall line
/// is the *only* place a duration may appear; it is redacted (absent) by
/// default.
pub fn render_block(trace: &QueryTrace, wall_ns: u64) -> String {
    let mut block = trace.to_jsonl();
    let flame = FlameGraph::from_trace(trace);
    if !flame.is_empty() {
        block.push_str(&format!(
            "{{\"type\":\"flame\",\"q\":\"{}\",\"folded\":\"{}\"}}\n",
            json_escape(&trace.question),
            json_escape(&flame.to_folded())
        ));
    }
    if wall_clock_enabled() {
        block.push_str(&format!(
            "{{\"type\":\"wall\",\"q\":\"{}\",\"total_ns\":{wall_ns}}}\n",
            json_escape(&trace.question)
        ));
    }
    block
}

/// Convenience used by emitters: render and write in one step, skipping
/// all rendering when the sink is off.
pub fn emit(sink: &TraceSink, trace: &QueryTrace, wall_ns: u64) {
    if sink.is_off() {
        return;
    }
    sink.write_block(&render_block(trace, wall_ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scope() -> TraceScope {
        let mut scope = TraceScope::enabled("total revenue?");
        scope.event("intent.parsed", || "aggregate".to_string());
        scope.rung("structured", RungOutcome::Succeeded, || "table orders".to_string());
        scope.set_plan(|| "Aggregate(Scan(orders))".to_string());
        scope.set_traversal(TraversalTrace { anchors: 2, nodes_touched: 9, ..Default::default() });
        scope.set_entropy(EntropyVerdict {
            n_samples: 5,
            n_clusters: 1,
            discrete_semantic_entropy: 0.0,
            confidence: 1.0,
            abstained: false,
        });
        scope.set_meter(ResourceMeter { slm_calls: 3, postings_scanned: 12, ..Default::default() });
        scope
    }

    #[test]
    fn disabled_scope_records_nothing_and_skips_closures() {
        let mut scope = TraceScope::disabled();
        assert!(!scope.is_enabled());
        scope.event("x", || panic!("detail closure must not run when disabled"));
        scope.rung("structured", RungOutcome::Failed, || panic!("must not run"));
        scope.set_plan(|| panic!("must not run"));
        assert_eq!(scope.finish("structured"), None);
    }

    #[test]
    fn enabled_scope_sequences_events_monotonically() {
        let mut scope = TraceScope::enabled("q");
        scope.event("a", || String::new());
        scope.event("b", || String::new());
        scope.event("c", || String::new());
        let trace = scope.finish("retrieval").unwrap();
        let seqs: Vec<u32> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(trace.route, "retrieval");
    }

    #[test]
    fn trace_round_trips_through_jsonl_deterministically() {
        let trace = sample_scope().finish("structured").unwrap();
        let a = trace.to_jsonl();
        let b = trace.to_jsonl();
        assert_eq!(a, b);
        assert!(a.contains("\"type\":\"event\""), "{a}");
        assert!(a.contains("\"name\":\"intent.parsed\""));
        assert!(a.contains("\"rung\":\"structured\",\"outcome\":\"succeeded\""));
        assert!(a.contains("\"plan\":\"Aggregate(Scan(orders))\""));
        assert!(a.contains("\"anchors\":2"));
        assert!(a.contains("\"confidence\":1.0"));
        assert!(a.contains("\"meter\":{\"postings_scanned\":12"), "{a}");
        assert!(a.contains("\"slm_calls\":3"));
        assert!(!a.contains("_ns"), "no timings inside the deterministic block: {a}");
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "JSON-lines shape: {line}");
        }
    }

    #[test]
    fn empty_trace_still_renders_a_summary() {
        let trace = TraceScope::enabled("q").finish("abstain").unwrap();
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1, "summary line only");
        assert!(jsonl.contains("\"rungs\":[]"));
        assert!(jsonl.contains("\"plan\":null"));
        assert!(jsonl.contains("\"traversal\":null"));
        assert!(jsonl.contains("\"entropy\":null"));
        assert!(jsonl.contains("\"meter\":null"));
        // An empty trace also folds to an empty flamegraph: no flame line.
        assert!(!render_block(&trace, 0).contains("\"type\":\"flame\""));
    }

    #[test]
    fn emit_skips_rendering_when_sink_is_off() {
        let trace = sample_scope().finish("structured").unwrap();
        let off = TraceSink::off();
        emit(&off, &trace, 123);
        assert_eq!(off.writes(), 0, "emit must not even touch an off sink");
        let mem = TraceSink::memory();
        emit(&mem, &trace, 123);
        assert_eq!(mem.writes(), 1);
        let captured = mem.drain_memory();
        assert!(captured.contains("\"type\":\"summary\""));
        assert!(captured.contains("\"type\":\"flame\""), "sink blocks carry the folded stacks");
        assert!(captured.contains("answer;entropy;sample 5"), "{captured}");
        // UNISEM_TRACE_WALL unset in the test env: the wall line is redacted.
        assert!(!captured.contains("\"type\":\"wall\""));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(RungOutcome::Succeeded.label(), "succeeded");
        assert_eq!(RungOutcome::Failed.label(), "failed");
        assert_eq!(RungOutcome::Skipped.label(), "skipped");
    }
}
