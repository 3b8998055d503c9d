//! Observability contract (DESIGN.md §9), checked end to end: explain
//! traces are opt-in through `EngineConfig::trace` alone, on `answer` and
//! `answer_batch` alike, and deterministic; batch traces are input-ordered
//! and render byte-identically to sequential ones; and every series of
//! the closed metric registry is recorded by the engine itself.

use tracekit::{Hist, Metric, Stage};
use unisem_core::{
    Delta, EngineBuilder, EngineConfig, EntityKind, FaultPlan, FaultSite, GovernorConfig, Lexicon,
    Route, UnifiedEngine,
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

/// `EngineConfig::trace` is the one trace switch: off by default, every
/// answer — single or batched — carries no trace; on, every one does.
#[test]
fn answers_carry_no_trace_unless_opted_in() {
    let off = engine_with(EngineConfig::default());
    let on = engine_with(EngineConfig { trace: true, ..EngineConfig::default() });
    for q in QUESTIONS {
        assert!(off.answer(q).trace.is_none(), "trace must be opt-in: {q}");
        assert!(on.answer(q).trace.is_some(), "opted in: {q}");
    }
    let batch = off.answer_batch(&QUESTIONS);
    assert_eq!(batch.len(), QUESTIONS.len());
    assert!(batch.iter().all(|a| a.trace.is_none()), "batch trace must be opt-in");
    assert!(on.answer_batch(&QUESTIONS).iter().all(|a| a.trace.is_some()), "batch opted in");
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
    // No product is named "phantom gizmo": its probe finds no row, so the
    // candidate is pruned.
    assert!(plan.contains("(pruned: (product LIKE 'phantom gizmo')"), "{plan}");
    // The one candidate run reads its two Aero Widget rows through the
    // index, not the three rows of sales.
    assert_eq!(e.metrics_report().get("relstore.rows_scanned"), Some(2), "one probe of sales");

    // Determinism: the rendered trace replays byte-for-byte.
    for q in QUESTIONS {
        let a = e.answer(q).trace.unwrap().to_jsonl();
        let b = e.answer(q).trace.unwrap().to_jsonl();
        assert_eq!(a.as_bytes(), b.as_bytes(), "{q}");
    }
}

/// The JSON lines of traced answers, concatenated in answer order.
fn jsonl(answers: &[unisem_core::Answer]) -> String {
    answers.iter().map(|a| a.trace.as_ref().expect("opted in").to_jsonl()).collect()
}

// The next two tests keep the names they had when traces were written to
// an installed sink; the lines now come from `QueryTrace::to_jsonl`.

/// One traced answer renders as one JSON line that names its question.
#[test]
fn memory_sink_captures_one_block_per_query() {
    let e = engine_with(EngineConfig { trace: true, ..EngineConfig::default() });
    let emitted = jsonl(&[e.answer(QUESTIONS[1])]);
    assert_eq!(emitted.lines().count(), 1, "{emitted}");
    assert!(emitted.contains(QUESTIONS[1]), "{emitted}");
    for line in emitted.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSON-lines framing: {line}");
    }
}

/// The batch path answers inside a parallel map, yet its traces come back
/// in input order and render to the same JSON lines, byte for byte, as a
/// sequential `answer` loop: one line per question.
#[test]
fn batch_sink_output_is_input_ordered_and_matches_sequential() {
    let config = EngineConfig {
        parallel: unisem_core::ParallelConfig::with_threads(4),
        trace: true,
        ..EngineConfig::default()
    };
    let e = engine_with(config);
    let want = jsonl(&QUESTIONS.iter().map(|q| e.answer(q)).collect::<Vec<_>>());
    let got = jsonl(&engine_with(config).answer_batch(&QUESTIONS));

    assert_eq!(got.as_bytes(), want.as_bytes());
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), QUESTIONS.len(), "{got}");
    for (line, q) in lines.iter().zip(QUESTIONS) {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSON-lines framing: {line}");
        assert!(line.contains(q), "input order: {line}");
    }
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
/// plan, a pruned candidate (the unanswerable question), a
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
