//! Robustness: adversarial ingestion and the deterministic fault matrix.
//!
//! Two contracts from DESIGN.md §8 are checked end to end:
//!
//! 1. **Quarantine over abort** — a corpus laced with malformed sources
//!    (truncated and empty JSON, schema-conflicting collections,
//!    degenerate documents) must still produce a working engine, with every
//!    exclusion accounted for in the [`IngestReport`].
//! 2. **Graceful degradation under injected faults** — for every
//!    single-fault plan over the faultkit site registry (plus seeded
//!    multi-site plans), the full e-commerce and healthcare QA workloads
//!    complete without panicking, every downgraded answer carries a
//!    non-empty `degradations` trail, and answers are byte-identical
//!    between 1-thread and 4-thread engines under the same fault seed.

use unisem_core::{
    component, Answer, Database, EngineBuilder, EngineConfig, EntityKind, FaultPlan, FaultSite,
    GovernorConfig, IngestReport, Lexicon, ParallelConfig, Route, UnifiedEngine,
};
use unisem_semistore::SemiStore;
use unisem_workloads::ecommerce::DocSpec;
use unisem_workloads::{
    EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload, QaItem,
};

// ---------------------------------------------------------------- helpers

fn small_ecommerce() -> EcommerceWorkload {
    EcommerceWorkload::generate(EcommerceConfig {
        products: 6,
        quarters: 3,
        reviews_per_product: 2,
        qa_per_category: 2,
        seed: 0xFA_D5EED,
        name_offset: 0,
    })
}

fn small_healthcare() -> HealthcareWorkload {
    HealthcareWorkload::generate(HealthcareConfig {
        drugs: 4,
        patients: 6,
        trials_per_drug: 2,
        qa_per_category: 2,
        seed: 0x4EA17,
    })
}

/// Builds an engine over every modality of a workload (tables + JSON
/// collections + documents), mirroring the bench harness.
fn build_from_parts(
    lexicon: Lexicon,
    db: &Database,
    semi: &SemiStore,
    documents: &[DocSpec],
    config: EngineConfig,
) -> (UnifiedEngine, IngestReport) {
    let mut b = EngineBuilder::with_config(lexicon, config);
    for name in db.table_names() {
        b.add_table(name, db.table(name).expect("listed").clone()).expect("fresh");
    }
    for coll in semi.collections() {
        for doc in semi.docs(coll) {
            b.add_json(coll, doc.clone());
        }
    }
    for d in documents {
        b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
    }
    b.build()
}

/// How many of `report`'s quarantined sources fall under `kind`.
fn quarantined(report: &IngestReport, kind: &str) -> usize {
    report.quarantined.iter().filter(|q| q.reason.kind() == kind).count()
}

/// The ladder invariants every answer must satisfy, faults or not:
/// well-formed confidence, and a non-empty degradation trail on any
/// answer that did not take the best route it attempted.
fn check_invariants(a: &Answer, question: &str, ctx: &str) {
    assert!(
        a.confidence.is_finite() && (0.0..=1.0).contains(&a.confidence),
        "{ctx}: malformed confidence {} for: {question}",
        a.confidence
    );
    match &a.route {
        Route::Hybrid { .. } | Route::Abstained => {
            assert!(
                !a.degradations.is_empty(),
                "{ctx}: downgraded answer ({}) with empty degradations for: {question}",
                a.route.label()
            );
        }
        Route::Structured { .. } | Route::Unstructured { .. } => {}
    }
    for d in &a.degradations {
        assert!(
            !d.component.name().is_empty() && !d.reason.is_empty(),
            "{ctx}: blank degradation record for: {question}"
        );
    }
    if a.is_abstention() {
        assert!(!a.text.is_empty(), "{ctx}: abstention must still say so in text");
    }
}

// ------------------------------------------------- adversarial ingestion

/// A corpus laced with malformed sources must still yield a working
/// engine: bad sources are quarantined with typed reasons, good sources
/// survive, and the engine answers without panicking.
#[test]
fn adversarial_corpus_quarantines_and_still_answers() {
    let mut lexicon = Lexicon::new();
    lexicon.add("widget", EntityKind::Product);
    lexicon.add("gizmo", EntityKind::Product);

    let mut b = EngineBuilder::with_config(lexicon, EngineConfig::default());

    // Good JSON documents.
    b.add_json_text("catalog", r#"{"product": "widget", "price": 10}"#).expect("good json");
    b.add_json_text("catalog", r#"{"product": "gizmo", "price": 25}"#).expect("good json");
    // Truncated JSON: rejected at the gate *and* quarantined.
    assert!(b.add_json_text("catalog", r#"{"product": "broken", "price"#).is_err());
    // Empty JSON document.
    assert!(b.add_json_text("catalog", "").is_err());
    // Schema-conflicting collection: an array root cannot flatten into a
    // relational table, so the whole collection is quarantined at build.
    b.add_json_text("telemetry", "[1, 2, 3]").expect("parses as json");

    // Degenerate documents: empty text, zero-width characters, and a
    // single huge token. None of these may break chunking or retrieval.
    b.add_document("empty", String::new(), "test");
    b.add_document("zero-width", "\u{200b}\u{200b}\u{feff} widget", "test");
    b.add_document("huge-token", format!("widget {}", "x".repeat(4096)), "test");
    b.add_document("plain", "The widget sells well. The gizmo is a premium widget.", "test");

    let (engine, report) = b.build();

    assert_eq!(quarantined(&report, "json"), 2, "{report}");
    assert_eq!(quarantined(&report, "flatten"), 1, "{report}");
    assert_eq!(report.num_quarantined(), 3, "{report}");
    // The good collection and the documents made it in.
    assert_eq!(report.documents, 4, "{report}");
    assert!(report.tables >= 1, "{report}");

    for q in ["What is the price of widget?", "Tell me about gizmo", "?", ""] {
        let a = engine.answer(q);
        check_invariants(&a, q, "adversarial corpus");
    }
}

/// An engine built from nothing at all still answers every question by
/// abstaining with a reason, rather than panicking.
#[test]
fn empty_engine_abstains_gracefully() {
    let (engine, report) =
        EngineBuilder::with_config(Lexicon::new(), EngineConfig::default()).build();
    assert_eq!(report.num_quarantined(), 0, "{report}");
    for q in ["What is the average price?", "widget", ""] {
        let a = engine.answer(q);
        check_invariants(&a, q, "empty engine");
        assert!(a.is_abstention(), "empty engine must abstain on: {q}");
        assert!(!a.degradations.is_empty(), "empty-engine abstention must carry a reason");
    }
}

// ------------------------------------------------------- the fault matrix

/// Runs one workload under one fault plan at 1 and 4 threads and checks
/// the full robustness contract.
fn run_fault_case(
    label: &str,
    plan: FaultPlan,
    build: &dyn Fn(EngineConfig) -> (UnifiedEngine, IngestReport),
    qa: &[QaItem],
) {
    let config = |threads: usize| EngineConfig {
        seed: 0xABCD_1234,
        faults: plan,
        parallel: ParallelConfig::with_threads(threads),
        ..EngineConfig::default()
    };
    let (e1, r1) = build(config(1));
    let (e4, r4) = build(config(4));
    // Ingestion (including which sources the plan quarantined) must not
    // depend on the thread count.
    assert_eq!(r1, r4, "{label}: ingest reports diverge across thread counts");

    for item in qa {
        let a1 = e1.answer(&item.question);
        let a4 = e4.answer(&item.question);
        check_invariants(&a1, &item.question, label);

        // A generator fault always forces the abstention rung, with the
        // failing site named in the trail.
        if plan.fires(FaultSite::SlmGenerate, &item.question) {
            assert!(a1.is_abstention(), "{label}: slm fault must abstain: {}", item.question);
            assert_eq!(a1.degradations[0].component, component::SLM_GENERATE, "{label}");
        }

        // Byte-identical replay across the thread matrix.
        assert_eq!(a1.text.as_bytes(), a4.text.as_bytes(), "{label} text: {}", item.question);
        assert_eq!(a1.route, a4.route, "{label} route: {}", item.question);
        assert_eq!(
            a1.confidence.to_bits(),
            a4.confidence.to_bits(),
            "{label} confidence: {}",
            item.question
        );
        assert_eq!(a1, a4, "{label} full answer: {}", item.question);
    }
}

/// Every single-fault plan over the site registry, plus seeded multi-site
/// plans, over both QA workloads: zero panics, degradations always
/// reported, byte-identical at 1 vs 4 threads.
#[test]
fn fault_matrix_completes_and_replays_across_thread_counts() {
    let ew = small_ecommerce();
    let hw = small_healthcare();
    let build_ecom = |config: EngineConfig| {
        build_from_parts(ew.lexicon.clone(), &ew.db, &ew.semi, &ew.documents, config)
    };
    let build_health = |config: EngineConfig| {
        build_from_parts(hw.lexicon.clone(), &hw.db, &hw.semi, &hw.documents, config)
    };

    let mut plans: Vec<(String, FaultPlan)> = FaultSite::ALL
        .iter()
        .map(|&site| (format!("single:{site}"), FaultPlan::single(site).with_seed(0xFA17)))
        .collect();
    // Seeded plans derive their armed sites and probabilities from the
    // seed alone — the replay handle an operator would pin in CI.
    plans.push(("seeded:0xFA17".into(), FaultPlan::from_seed(0xFA17)));
    plans.push(("seeded:7".into(), FaultPlan::from_seed(7)));

    for (label, plan) in &plans {
        run_fault_case(&format!("{label}/ecommerce"), *plan, &build_ecom, &ew.qa);
        run_fault_case(&format!("{label}/healthcare"), *plan, &build_health, &hw.qa);
    }
}

/// A flatten fault quarantines every JSON collection while leaving the
/// native tables and documents intact — partial service, not an abort.
#[test]
fn flatten_fault_quarantines_collections_only() {
    let ew = small_ecommerce();
    let config = EngineConfig {
        seed: 0xABCD_1234,
        faults: FaultPlan::single(FaultSite::SemiFlatten),
        ..EngineConfig::default()
    };
    let (engine, report) =
        build_from_parts(ew.lexicon.clone(), &ew.db, &ew.semi, &ew.documents, config);
    assert_eq!(quarantined(&report, "injected-fault"), ew.semi.collections().len(), "{report}");
    assert_eq!(report.collections_flattened, 0, "{report}");
    assert_eq!(report.documents, ew.documents.len(), "{report}");
    for item in &ew.qa {
        check_invariants(&engine.answer(&item.question), &item.question, "flatten fault");
    }
}

/// Tight resource governors (tiny traversal frontier, small join budget)
/// degrade deterministically: the engine keeps answering, every answer is
/// well-formed, and the 1- vs 4-thread engines agree byte for byte.
#[test]
fn strict_governors_degrade_deterministically() {
    let ew = small_ecommerce();
    let config = |threads: usize| EngineConfig {
        seed: 0xABCD_1234,
        governors: GovernorConfig {
            max_traversal_frontier: 2,
            max_join_rows: 8,
            entropy_sample_floor: 2,
        },
        parallel: ParallelConfig::with_threads(threads),
        ..EngineConfig::default()
    };
    let (e1, _) = build_from_parts(ew.lexicon.clone(), &ew.db, &ew.semi, &ew.documents, config(1));
    let (e4, _) = build_from_parts(ew.lexicon.clone(), &ew.db, &ew.semi, &ew.documents, config(4));
    for item in &ew.qa {
        let a1 = e1.answer(&item.question);
        let a4 = e4.answer(&item.question);
        check_invariants(&a1, &item.question, "strict governors");
        assert_eq!(a1, a4, "strict governors: {}", item.question);
    }
}

/// `UNISEM_FAULTS`-style specs round-trip through parse, so a failure
/// seen in CI is reproducible from the logged spec string alone.
#[test]
fn fault_spec_round_trips_for_replay() {
    for plan in [
        FaultPlan::single(FaultSite::RelExec).with_seed(99),
        FaultPlan::from_seed(0xFA17),
        FaultPlan::disabled(),
    ] {
        let spec = plan.spec();
        let reparsed = FaultPlan::parse(&spec).expect("spec must reparse");
        assert_eq!(reparsed.spec(), spec, "round-trip diverged for {spec}");
    }
}
