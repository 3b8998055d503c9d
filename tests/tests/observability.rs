//! Observability contract (DESIGN.md §9), checked end to end: tracing is
//! zero-cost when disabled (the ci.sh `UNISEM_TRACE=off` gate lives here),
//! explain traces are opt-in and deterministic, the memory sink captures
//! emitted blocks, batch emission is input-ordered and byte-identical to
//! sequential emission, and the closed metric registry is populated.

use std::sync::Arc;

use unisem_core::{
    EngineBuilder, EngineConfig, EntityKind, FlameGraph, Lexicon, Route, TraceSink, UnifiedEngine,
};
use unisem_relstore::{DataType, Schema, Table, Value};

fn lexicon() -> Lexicon {
    Lexicon::new().with_entries([
        ("Aero Widget", EntityKind::Product),
        ("Nova Speaker", EntityKind::Product),
        ("Acme Corp", EntityKind::Organization),
    ])
}

fn engine_with(config: EngineConfig) -> UnifiedEngine {
    let mut b = EngineBuilder::with_config(lexicon(), config);
    let sales = Table::from_rows(
        Schema::of(&[
            ("product", DataType::Str),
            ("quarter", DataType::Str),
            ("amount", DataType::Float),
        ]),
        vec![
            vec![Value::str("Aero Widget"), Value::str("Q1 2024"), Value::Float(100.0)],
            vec![Value::str("Aero Widget"), Value::str("Q2 2024"), Value::Float(150.0)],
            vec![Value::str("Nova Speaker"), Value::str("Q1 2024"), Value::Float(90.0)],
        ],
    )
    .unwrap();
    b.add_table("sales", sales).unwrap();
    b.add_document(
        "news",
        "Acme Corp launched the Aero Widget. The Aero Widget is manufactured by Acme Corp.",
        "news",
    );
    b.add_document(
        "report",
        "In Q2 2024, Aero Widget sales increased 50% to $150. Customers were pleased.",
        "report",
    );
    b.build().0
}

const QUESTIONS: [&str; 3] = [
    "What was the total sales amount of Aero Widget across all quarters?",
    "Which manufacturer makes the Aero Widget?",
    "What was the total sales of the Phantom Gizmo in Q2 2024?",
];

/// The ci.sh zero-cost gate: with `UNISEM_TRACE=off` (an explicitly off
/// sink) and `trace: false`, the hot path must never touch the sink — the
/// sink's write counter counts *every* `write_block` call, including no-ops
/// on an off sink, so even a guarded-away call would be visible here.
#[test]
fn off_sink_sees_zero_writes_and_answers_carry_no_trace() {
    let mut e = engine_with(EngineConfig::default());
    e.set_trace_sink(Arc::new(TraceSink::off()));
    for q in QUESTIONS {
        assert!(e.answer(q).trace.is_none(), "trace must be opt-in: {q}");
    }
    let batch = e.answer_batch(&QUESTIONS);
    assert_eq!(batch.len(), QUESTIONS.len());
    assert_eq!(e.trace_sink().writes(), 0, "trace-sink write on the disabled hot path");
}

#[test]
fn opt_in_trace_records_rungs_route_and_entropy() {
    let e = engine_with(EngineConfig { trace: true, ..EngineConfig::default() });

    let structured = e.answer(QUESTIONS[0]);
    let t = structured.trace.as_ref().expect("opted in");
    assert_eq!(t.route, structured.route.label());
    assert!(t.rungs.iter().any(|r| r.rung == "structured"), "{:?}", t.rungs);
    assert!(t.plan.as_deref().unwrap_or("").contains("Scan"), "synthesized plan recorded");
    assert!(t.entropy.is_some());

    let lookup = e.answer(QUESTIONS[1]);
    let t = lookup.trace.as_ref().expect("opted in");
    assert!(matches!(lookup.route, Route::Unstructured { .. }));
    assert!(t.traversal.is_some(), "retrieval route records traversal stats");
    assert!(t.events.iter().any(|ev| ev.name == "intent.parsed"));
    // Logical clock: event sequence numbers are strictly increasing.
    for pair in t.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "{:?}", t.events);
    }

    let abstained = e.answer(QUESTIONS[2]);
    let t = abstained.trace.as_ref().expect("opted in");
    assert_eq!(t.route, "abstained");
    assert!(t.entropy.as_ref().is_some_and(|v| v.abstained));

    // Determinism: the rendered trace replays byte-for-byte.
    for q in QUESTIONS {
        let a = e.answer(q).trace.unwrap().to_jsonl();
        let b = e.answer(q).trace.unwrap().to_jsonl();
        assert_eq!(a.as_bytes(), b.as_bytes(), "{q}");
    }
}

#[test]
fn memory_sink_captures_one_block_per_query() {
    let mut e = engine_with(EngineConfig::default());
    e.set_trace_sink(Arc::new(TraceSink::memory()));
    e.answer(QUESTIONS[1]);
    assert_eq!(e.trace_sink().writes(), 1);
    let emitted = e.trace_sink().drain_memory();
    assert!(emitted.contains("Which manufacturer makes the Aero Widget?"), "{emitted}");
    for line in emitted.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSON-lines framing: {line}");
    }
}

/// Batch emission renders blocks inside the parallel map but writes them
/// sequentially in input order, so the sink output is byte-identical to a
/// sequential `answer` loop — cross-query interleaving is unrepresentable.
#[test]
fn batch_sink_output_is_input_ordered_and_matches_sequential() {
    let config = EngineConfig {
        parallel: unisem_core::ParallelConfig::with_threads(4),
        ..EngineConfig::default()
    };
    let mut sequential = engine_with(config);
    sequential.set_trace_sink(Arc::new(TraceSink::memory()));
    for q in QUESTIONS {
        sequential.answer(q);
    }
    let want = sequential.trace_sink().drain_memory();

    let mut batched = engine_with(config);
    batched.set_trace_sink(Arc::new(TraceSink::memory()));
    batched.answer_batch(&QUESTIONS);
    let got = batched.trace_sink().drain_memory();

    assert!(!want.is_empty());
    assert_eq!(got.as_bytes(), want.as_bytes());
    assert_eq!(batched.trace_sink().writes(), QUESTIONS.len() as u64);
}

#[test]
fn metrics_report_covers_build_and_query_pipeline() {
    let e = engine_with(EngineConfig::default());
    for q in QUESTIONS {
        e.answer(q);
    }
    let m = e.metrics_report();
    assert_eq!(m.get("query.answered"), Some(3));
    assert_eq!(m.get("ingest.tables"), Some(2), "sales + extracted");
    assert!(m.get("graph.nodes").unwrap_or(0) > 0);
    assert!(m.get("traverse.queries").unwrap_or(0) > 0);
    assert!(m.get("relstore.plans_executed").unwrap_or(0) > 0);
    assert!(m.get("entropy.estimates").unwrap_or(0) >= 3);
    // Closed registry: unknown names are unrepresentable, not zero.
    assert_eq!(m.get("not.a.metric"), None);
    let json = m.to_json();
    assert!(json.contains("\"query.answered\":3"), "{json}");
    assert!(json.contains("\"meter.slm_calls\""), "meter histograms in the snapshot: {json}");
    // Wall-clock timings live in a separate report with recorded stages.
    let timings = e.timing_report();
    assert!(timings.count("answer.total") >= Some(3));
    assert!(!json.contains("total_ns"), "no wall-clock values in the metrics snapshot");
}

/// The per-query resource meter and the closed registry are two views of
/// the same work: summed per-query meters must equal the registry's
/// counters, and each meter field records exactly one histogram
/// observation per query.
#[test]
fn meter_totals_match_registry_counters_and_histograms() {
    let e = engine_with(EngineConfig { trace: true, ..EngineConfig::default() });
    let mut nodes_popped = 0u64;
    let mut slm_samples = 0u64;
    for q in QUESTIONS {
        let a = e.answer(q);
        let meter = a.trace.as_ref().and_then(|t| t.meter).expect("traced answers carry a meter");
        assert!(meter.slm_calls >= 2, "intent parse + entropy estimate: {q}");
        nodes_popped += meter.nodes_popped;
        slm_samples += meter.slm_samples;
    }
    let m = e.metrics_report();
    assert_eq!(m.get("traverse.nodes_popped"), Some(nodes_popped));
    assert_eq!(m.get("entropy.samples"), Some(slm_samples));
    for hist in [
        "meter.postings_scanned",
        "meter.nodes_popped",
        "meter.slm_calls",
        "meter.slm_samples",
        "query.degradation_depth",
        "query.provenance_items",
    ] {
        assert_eq!(m.hist_total(hist), Some(QUESTIONS.len() as u64), "{hist}");
    }
    // Answering appends nothing to the log: the ingest histogram holds
    // batch sizes only, not one zero per query.
    assert_eq!(m.hist_total("meter.wal_bytes"), Some(0));
    // Histograms are closed-registry too, and bucket layouts end in the
    // overflow bucket.
    assert_eq!(m.hist("not.a.hist"), None);
    let buckets = m.hist("meter.slm_calls").expect("registered");
    assert_eq!(buckets.last().map(|(le, _)| *le), Some(None), "overflow bucket last");
    assert!(m.hist_quantile("meter.slm_calls", 0.5).unwrap() >= 2);
}

/// Flamegraph folding is deterministic (same trace, same bytes), sorted in
/// its folded output, and conserves weights from the trace it folds.
#[test]
fn flamegraph_folding_is_sorted_and_stable() {
    let e = engine_with(EngineConfig { trace: true, ..EngineConfig::default() });
    let trace = e.answer(QUESTIONS[1]).trace.expect("opted in");
    let folded = FlameGraph::from_trace(&trace).to_folded();
    assert!(folded.lines().all(|l| l.starts_with("answer")), "{folded}");
    assert!(folded.contains("answer;entropy;sample"), "{folded}");
    assert!(folded.contains("answer;meter;slm_calls"), "{folded}");
    let mut lines: Vec<&str> = folded.lines().collect();
    let original = lines.clone();
    lines.sort_unstable();
    assert_eq!(lines, original, "folded stacks emitted in sorted order");
    // Byte-stable across re-answers of the same question.
    let again = FlameGraph::from_trace(&e.answer(QUESTIONS[1]).trace.expect("opted in"));
    assert_eq!(again.to_folded().as_bytes(), folded.as_bytes());
}
