//! Whole-system determinism: identical seeds reproduce identical engines,
//! answers, and experiment measurements — the property every experiment in
//! EXPERIMENTS.md relies on.

use unisem_core::{
    EngineBuilder, EngineConfig, FaultPlan, FaultSite, ParallelConfig, UnifiedEngine,
};
use unisem_workloads::{EcommerceConfig, EcommerceWorkload};

fn engine(seed: u64) -> (EcommerceWorkload, UnifiedEngine) {
    let w = EcommerceWorkload::generate(EcommerceConfig {
        products: 6,
        quarters: 3,
        reviews_per_product: 2,
        qa_per_category: 2,
        seed,
        name_offset: 0,
    });
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), EngineConfig::default());
    for name in w.db.table_names() {
        b.add_table(name, w.db.table(name).unwrap().clone()).unwrap();
    }
    for d in &w.documents {
        b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
    }
    let e = b.build().0;
    (w, e)
}

#[test]
fn same_seed_same_everything() {
    let (w1, e1) = engine(42);
    let (w2, e2) = engine(42);
    assert_eq!(w1.qa, w2.qa);
    assert_eq!(e1.graph().num_nodes(), e2.graph().num_nodes());
    assert_eq!(e1.graph().num_edges(), e2.graph().num_edges());
    for item in &w1.qa {
        assert_eq!(e1.answer(&item.question), e2.answer(&item.question), "{}", item.question);
    }
}

/// Two engines built independently from the same `EngineConfig::seed` must
/// agree byte-for-byte: identical answer text, identical routing decisions,
/// and bit-identical confidence scores. This is the hermetic-build guarantee
/// the detkit PRNG makes checkable — no platform- or run-dependent entropy
/// anywhere in the pipeline.
#[test]
fn same_engine_seed_byte_identical_answers_routes_confidence() {
    let w = EcommerceWorkload::generate(EcommerceConfig {
        products: 6,
        quarters: 3,
        reviews_per_product: 2,
        qa_per_category: 2,
        seed: 0xD5EED,
        name_offset: 0,
    });
    let build = || {
        let config = EngineConfig { seed: 0xABCD_1234, ..EngineConfig::default() };
        let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
        for name in w.db.table_names() {
            b.add_table(name, w.db.table(name).unwrap().clone()).unwrap();
        }
        for d in &w.documents {
            b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
        }
        b.build().0
    };
    let e1 = build();
    let e2 = build();
    for item in &w.qa {
        let a1 = e1.answer(&item.question);
        let a2 = e2.answer(&item.question);
        assert_eq!(a1.text.as_bytes(), a2.text.as_bytes(), "text: {}", item.question);
        assert_eq!(a1.route, a2.route, "route: {}", item.question);
        assert_eq!(
            a1.confidence.to_bits(),
            a2.confidence.to_bits(),
            "confidence: {}",
            item.question
        );
        assert_eq!(a1, a2, "full answer: {}", item.question);
    }
}

/// The thread-matrix suite: the full QA workload, answered by engines
/// configured at 1, 2, 4, and 8 threads — both singly (`answer`) and in a
/// batch (`answer_batch`) — must agree byte-for-byte with the 1-thread
/// reference. Answer text compares as raw bytes, routes structurally, and
/// confidence bit-for-bit, so any scheduling leak (merge order, float
/// association, RNG sharing) fails loudly. This is the determinism
/// contract of DESIGN.md §6 checked end to end.
#[test]
fn thread_matrix_byte_identical_answers_routes_confidence() {
    let w = EcommerceWorkload::generate(EcommerceConfig {
        products: 6,
        quarters: 3,
        reviews_per_product: 2,
        qa_per_category: 2,
        seed: 0xD5EED,
        name_offset: 0,
    });
    let build = |threads: usize| {
        let config = EngineConfig {
            seed: 0xABCD_1234,
            parallel: ParallelConfig::with_threads(threads),
            ..EngineConfig::default()
        };
        let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
        for name in w.db.table_names() {
            b.add_table(name, w.db.table(name).unwrap().clone()).unwrap();
        }
        for d in &w.documents {
            b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
        }
        b.build().0
    };
    let questions: Vec<&str> = w.qa.iter().map(|item| item.question.as_str()).collect();

    let reference_engine = build(1);
    let reference: Vec<_> = questions.iter().map(|q| reference_engine.answer(q)).collect();

    for threads in [1, 2, 4, 8] {
        let e = build(threads);
        // Single-question path.
        for (item, expected) in w.qa.iter().zip(&reference) {
            let a = e.answer(&item.question);
            assert_eq!(
                a.text.as_bytes(),
                expected.text.as_bytes(),
                "threads={threads} text: {}",
                item.question
            );
            assert_eq!(a.route, expected.route, "threads={threads} route: {}", item.question);
            assert_eq!(
                a.confidence.to_bits(),
                expected.confidence.to_bits(),
                "threads={threads} confidence: {}",
                item.question
            );
            assert_eq!(&a, expected, "threads={threads} full answer: {}", item.question);
        }
        // Batch path: input-ordered and identical to the sequential loop.
        let batch = e.answer_batch(&questions);
        assert_eq!(batch.len(), reference.len());
        for ((q, got), expected) in questions.iter().zip(&batch).zip(&reference) {
            assert_eq!(got, expected, "threads={threads} batch answer: {q}");
        }
    }
}

/// The thread matrix under a certain traversal fault, where every retrieval
/// is the lexical scan that replaces the traversal: an `answer_batch` must
/// equal the serial answers of a 1-thread engine, at 1, 2, 4 and 8 threads.
#[test]
fn thread_matrix_faulted_answer_batch() {
    let w = EcommerceWorkload::generate(EcommerceConfig {
        products: 6,
        quarters: 3,
        reviews_per_product: 2,
        qa_per_category: 2,
        seed: 0xD5EED,
        name_offset: 0,
    });
    let build = |threads: usize| {
        let config = EngineConfig {
            seed: 0xABCD_1234,
            faults: FaultPlan::single(FaultSite::GraphTraverse),
            parallel: ParallelConfig::with_threads(threads),
            ..EngineConfig::default()
        };
        let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
        for name in w.db.table_names() {
            b.add_table(name, w.db.table(name).unwrap().clone()).unwrap();
        }
        for d in &w.documents {
            b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
        }
        b.build().0
    };
    let questions: Vec<&str> = w.qa.iter().map(|item| item.question.as_str()).collect();

    let reference_engine = build(1);
    let reference: Vec<_> = questions.iter().map(|q| reference_engine.answer(q)).collect();
    let fallbacks = reference_engine.metrics_report().get("traverse.fault_fallbacks");
    assert!(fallbacks > Some(0), "the faulted workload reaches retrieval");

    for threads in [1, 2, 4, 8] {
        let e = build(threads);
        let batch = e.answer_batch(&questions);
        assert_eq!(batch.len(), reference.len());
        for ((q, got), expected) in questions.iter().zip(&batch).zip(&reference) {
            assert_eq!(got, expected, "threads={threads} batch answer: {q}");
        }
    }
}

/// DESIGN.md §9: explain traces and metrics snapshots are covered by the
/// same determinism contract as answers — byte-identical at any thread
/// count, with and without a pinned fault plan. The fault plan is passed
/// programmatically (never via `UNISEM_FAULTS`) so the test is hermetic.
#[test]
fn trace_and_metrics_byte_identical_across_threads_and_faults() {
    let w = EcommerceWorkload::generate(EcommerceConfig {
        products: 6,
        quarters: 3,
        reviews_per_product: 2,
        qa_per_category: 2,
        seed: 0xD5EED,
        name_offset: 0,
    });
    let questions: Vec<&str> = w.qa.iter().map(|item| item.question.as_str()).collect();
    let plans = [
        FaultPlan::disabled(),
        // Sub-unity probabilities: whether a site fires is a pure function
        // of (plan, site, key), so the firing pattern itself must replay
        // identically at every width.
        FaultPlan::parse("seed:0xC1,relstore.exec@64,hetgraph.traverse@96").expect("valid spec"),
    ];
    for plan in plans {
        let build = |threads: usize| {
            let config = EngineConfig {
                seed: 0xABCD_1234,
                trace: true,
                faults: plan,
                parallel: ParallelConfig::with_threads(threads),
                ..EngineConfig::default()
            };
            let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
            for name in w.db.table_names() {
                b.add_table(name, w.db.table(name).unwrap().clone()).unwrap();
            }
            for d in &w.documents {
                b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
            }
            b.build().0
        };
        // Trace JSON covers the plan with its actuals and the meter; the
        // metrics snapshot (with its meter histograms) is additionally
        // compared as rendered bytes.
        let render = |e: &UnifiedEngine| -> Vec<String> {
            e.answer_batch(&questions)
                .iter()
                .map(|a| a.trace.as_ref().expect("trace opted in").to_jsonl())
                .collect()
        };
        let spec = plan.spec();
        let reference_engine = build(1);
        let reference_traces = render(&reference_engine);
        let reference_metrics = reference_engine.metrics_report().to_json();
        for threads in [2, 4, 8] {
            let e = build(threads);
            let traces = render(&e);
            for ((q, got), want) in questions.iter().zip(&traces).zip(&reference_traces) {
                assert_eq!(
                    got.as_bytes(),
                    want.as_bytes(),
                    "threads={threads} faults='{spec}' trace: {q}"
                );
            }
            assert_eq!(
                e.metrics_report().to_json().as_bytes(),
                reference_metrics.as_bytes(),
                "threads={threads} faults='{spec}' metrics snapshot"
            );
        }
    }
}

#[test]
fn different_seed_different_corpus() {
    let (w1, _) = engine(1);
    let (w2, _) = engine(2);
    assert_ne!(w1.documents, w2.documents);
}

#[test]
fn repeated_answers_are_stable() {
    let (w, e) = engine(7);
    let q = &w.qa[0].question;
    let first = e.answer(q);
    for _ in 0..3 {
        assert_eq!(e.answer(q), first);
    }
}

#[test]
fn retrieval_is_deterministic() {
    let (w, e) = engine(9);
    let q = &w.qa[1].question;
    assert_eq!(e.retrieve(q, 5), e.retrieve(q, 5));
}
