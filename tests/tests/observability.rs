//! Observability contract (DESIGN.md §9), checked end to end: tracing is
//! zero-cost when disabled (the ci.sh `UNISEM_TRACE=off` gate lives here),
//! explain traces are opt-in and deterministic, the memory sink captures
//! emitted blocks, batch emission is input-ordered and byte-identical to
//! sequential emission, and every series of the closed metric registry is
//! recorded by the engine itself.

use std::sync::Arc;

use tracekit::{Hist, Metric, Stage};
use unisem_core::{
    Delta, EngineBuilder, EngineConfig, EntityKind, FaultPlan, FaultSite, GovernorConfig, Lexicon,
    Route, TraceSink, UnifiedEngine,
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
    builder(config).build().0
}

/// The fixture's sources: one sales table and two documents.
fn builder(config: EngineConfig) -> EngineBuilder {
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
    b
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

/// The rendered plan of a traced answer.
fn plan_of(answer: &unisem_core::Answer) -> &str {
    answer.trace.as_ref().and_then(|t| t.plan.as_deref()).expect("traced answers carry a plan")
}

/// Whether some operator of `plan` whose label starts with `op` records
/// an actual starting with `actual`.
fn ran(plan: &str, op: &str, actual: &str) -> bool {
    let actual = format!("| actual: {actual}");
    plan.lines().any(|line| line.trim_start().starts_with(op) && line.contains(&actual))
}

/// The plan is the trace: the rung that answered, the work each operator
/// did and the entropy verdict are all actuals on its operators.
#[test]
fn opt_in_trace_records_rungs_route_and_entropy() {
    let e = engine_with(EngineConfig { trace: true, ..EngineConfig::default() });

    let structured = e.answer(QUESTIONS[0]);
    let t = structured.trace.as_ref().expect("opted in");
    assert_eq!(t.route, structured.route.label());
    let plan = plan_of(&structured);
    assert!(ran(plan, "SemTag:", "entities=1"), "{plan}");
    assert!(ran(plan, "Relational: table 'sales'", "rows=1 (signal)"), "{plan}");
    assert!(ran(plan, "SemEntail:", "samples="), "{plan}");

    let lookup = e.answer(QUESTIONS[1]);
    assert!(matches!(lookup.route, Route::Unstructured { .. }));
    let plan = plan_of(&lookup);
    assert!(ran(plan, "GraphTraverse:", "anchors="), "{plan}");
    assert!(!plan.contains("frontier_capped"), "{plan}");
    assert!(ran(plan, "ConfidenceGate:", "passed:"), "{plan}");

    let abstained = e.answer(QUESTIONS[2]);
    let t = abstained.trace.as_ref().expect("opted in");
    assert_eq!(t.route, "abstained");
    let plan = plan_of(&abstained);
    assert!(ran(plan, "ConfidenceGate:", "abstained:"), "{plan}");
    // No product is named "phantom gizmo": the catalog prunes the candidate.
    assert!(plan.contains("(pruned: (product LIKE 'phantom gizmo')"), "{plan}");
    assert_eq!(e.metrics_report().get("relstore.rows_scanned"), Some(3), "one scan of sales");

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

/// A traversal the frontier governor truncates says so in its actual,
/// beside the degradation it records.
#[test]
fn capped_traversal_is_marked_in_the_plan() {
    let governors = GovernorConfig { max_traversal_frontier: 1, ..GovernorConfig::default() };
    let e = engine_with(EngineConfig { trace: true, governors, ..EngineConfig::default() });
    let lookup = e.answer(QUESTIONS[1]);
    assert!(lookup.degradations.iter().any(|d| d.reason.contains("frontier capped")));
    let plan = plan_of(&lookup);
    let traverse = plan.lines().find(|l| l.trim_start().starts_with("GraphTraverse:"));
    assert!(traverse.is_some_and(|l| l.ends_with(" frontier_capped")), "{plan}");
}

/// Series no engine path can move yet, each with the reason; every one
/// must still read zero, so the list cannot outlive its reason.
const STRUCTURALLY_ZERO: &[(&str, &str)] = &[
    ("relstore.rows_joined", "the operator synthesizer never emits a join"),
    ("relstore.budget_hits", "only a join can trip the join-row budget"),
];

/// Registry liveness: every `Metric`, `Hist` and `Stage` the closed
/// registry declares is recorded by the engine itself in one scripted
/// session — a build with a quarantined source, every route, a failing
/// plan, a candidate the catalog prunes (the unanswerable question), a
/// batch, a governed and a faulted traversal, ingest through a
/// write-ahead log, recovery of a torn log, and a checkpoint. A variant
/// whose last recording site is refactored away is a forever-zero series
/// and fails here.
#[test]
fn every_registry_series_is_recorded_by_the_engine() {
    let dir = std::env::temp_dir().join(format!("unisem-liveness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (snap, wal) = (dir.join("base.usk"), dir.join("log.wal"));
    let config = EngineConfig { faults: FaultPlan::disabled(), ..EngineConfig::default() };
    let engine = |config: EngineConfig| {
        let mut b = builder(config);
        let order = r#"{"product": "Aero Widget", "quarter": "Q1 2024", "units": 10}"#;
        b.add_json_text("orders", order).expect("valid json");
        assert!(b.add_json_text("orders", "{ not json").is_err(), "quarantined");
        // A text amount column: summing it is an execution error.
        let ledger = Table::from_rows(
            Schema::of(&[("product", DataType::Str), ("amount", DataType::Str)]),
            vec![vec![Value::str("Aero Widget"), Value::str("n/a")]],
        )
        .expect("typed rows");
        b.add_table("ledger", ledger).expect("fresh");
        b.build().0
    };
    let mut reports = Vec::new();

    let mut live = engine(config);
    // The last question names no entity: the traversal has no anchor and
    // falls back to the lexical scan.
    let mut questions = QUESTIONS.to_vec();
    questions.push("What happened to sales in the second quarter?");
    for q in &questions {
        live.answer(q);
    }
    live.answer_batch(&questions);
    live.save_snapshot(&snap).expect("save");
    live.enable_wal(&wal).expect("fresh log");
    let deltas = [
        Delta::TableRow {
            table: "sales".into(),
            values: vec![Value::str("Nova Speaker"), Value::str("Q2 2024"), Value::Float(120.0)],
        },
        Delta::DocAdd {
            title: "forecast".into(),
            text: "Acme Corp expects Nova Speaker sales to grow in Q3 2024.".into(),
            source: "forecast".into(),
        },
    ];
    live.ingest_delta(deltas[0].clone()).expect("logged");
    live.ingest_deltas(&deltas).expect("logged batch");
    reports.push((live.metrics_report(), live.timing_report()));

    // A torn append, then recovery: the torn tail is truncated and the
    // durable records replay.
    {
        let torn = EngineConfig { faults: FaultPlan::single(FaultSite::WalAppend), ..config };
        let (mut crashed, _, _) =
            EngineBuilder::open_snapshot_with_wal(&snap, &wal, torn).expect("reopen");
        assert!(crashed.ingest_delta(deltas[0].clone()).is_err(), "torn append");
    }
    let (mut recovered, _, replayed) =
        EngineBuilder::open_snapshot_with_wal(&snap, &wal, config).expect("recover");
    assert!(replayed > 0);
    recovered.checkpoint(&snap).expect("checkpoint");
    reports.push((recovered.metrics_report(), recovered.timing_report()));

    // A governed and a faulted traversal.
    let governors = GovernorConfig { max_traversal_frontier: 1, ..GovernorConfig::default() };
    for config in [
        EngineConfig { governors, ..config },
        EngineConfig { faults: FaultPlan::single(FaultSite::GraphTraverse), ..config },
    ] {
        let e = engine(config);
        for q in &questions {
            e.answer(q);
        }
        reports.push((e.metrics_report(), e.timing_report()));
    }
    std::fs::remove_dir_all(&dir).ok();

    let moved = |name: &str| {
        reports.iter().any(|(m, t)| {
            m.get(name).unwrap_or(0) > 0
                || m.hist_total(name).unwrap_or(0) > 0
                || t.count(name).unwrap_or(0) > 0
        })
    };
    let names = Metric::ALL
        .iter()
        .map(|m| m.name())
        .chain(Hist::ALL.iter().map(|h| h.name()))
        .chain(Stage::ALL.iter().map(|s| s.name()));
    let mut dead = Vec::new();
    for name in names {
        let exempt = STRUCTURALLY_ZERO.iter().any(|(n, _)| *n == name);
        if moved(name) == exempt {
            dead.push((name, exempt));
        }
    }
    assert!(
        dead.is_empty(),
        "(series, listed as structurally zero) whose liveness disagrees with the list: {dead:?}"
    );
}
