//! Work-count gate for threads (DESIGN.md §6): a build forks nothing on the
//! engine's own pool, an `answer` spawns nothing — fault-free or with its
//! traversal faulted — and an `answer_batch` forks exactly once — its own
//! outer map. Counted by `parkit::fork_joins()`, never by a clock.
//!
//! The counter is process-wide, so this binary holds a single `#[test]`:
//! nothing else may fork while it counts. The e-commerce tables are sized
//! past 512 rows, the chunk above which the relational sweeps used to fork.

use unisem_core::{
    EngineBuilder, EngineConfig, FaultPlan, FaultSite, ParallelConfig, UnifiedEngine,
};
use unisem_workloads::ecommerce::DocSpec;
use unisem_workloads::{EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload};

/// Builds the engine at `threads` under `faults` (pinned, whatever
/// `UNISEM_FAULTS` says outside), returning it with the fork-joins the build
/// made.
fn build(
    lexicon: &unisem_slm::Lexicon,
    db: &unisem_relstore::Database,
    semi: &unisem_semistore::SemiStore,
    documents: &[DocSpec],
    threads: usize,
    faults: FaultPlan,
) -> (UnifiedEngine, u64) {
    let config = EngineConfig {
        faults,
        parallel: ParallelConfig::with_threads(threads),
        ..EngineConfig::default()
    };
    let mut b = EngineBuilder::with_config(lexicon.clone(), config);
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
    let before = parkit::fork_joins();
    let engine = b.build().0;
    (engine, parkit::fork_joins() - before)
}

#[test]
fn answer_spawns_nothing_and_a_batch_forks_once() {
    let e = EcommerceWorkload::generate(EcommerceConfig {
        products: 160,
        quarters: 4,
        reviews_per_product: 1,
        qa_per_category: 2,
        seed: 0xD1FF,
        name_offset: 0,
    });
    let h = HealthcareWorkload::generate(HealthcareConfig {
        drugs: 4,
        patients: 6,
        trials_per_drug: 2,
        qa_per_category: 2,
        seed: 0x4EA17,
    });
    assert!(e.db.table("sales").expect("generated").num_rows() > 512);
    let corpora = [
        ("ecommerce", &e.lexicon, &e.db, &e.semi, &e.documents, &e.qa),
        ("healthcare", &h.lexicon, &h.db, &h.semi, &h.documents, &h.qa),
    ];
    for (name, lexicon, db, semi, documents, qa) in corpora {
        // Set-up forks on `parkit::global()` only (graph tagging, PageRank),
        // which the engine's width does not reach. So a build 2 wide forks
        // exactly as often as one 1 wide.
        let clean = FaultPlan::disabled();
        let (_, sequential_forks) = build(lexicon, db, semi, documents, 1, clean);
        let (engine, forks) = build(lexicon, db, semi, documents, 2, clean);
        assert_eq!(forks, sequential_forks, "{name}: the build forked on the engine's pool");

        assert!(qa.len() >= 8, "{name}: {} questions", qa.len());
        // Whatever the first answer still sets up lazily is not the
        // per-query path.
        engine.answer(&qa[0].question);

        let before = parkit::fork_joins();
        for item in qa {
            engine.answer(&item.question);
            assert_eq!(
                parkit::fork_joins(),
                before,
                "{name}: answer forked on {:?}",
                item.question
            );
        }

        let batch: Vec<&str> = qa[..8].iter().map(|item| item.question.as_str()).collect();
        engine.answer_batch(&batch);
        assert_eq!(parkit::fork_joins(), before + 1, "{name}: one fork-join per answer_batch");

        // A faulted traversal falls back to the lexical scan, which forks
        // nothing either, from the engine's first answer on.
        let traverse_fault = FaultPlan::single(FaultSite::GraphTraverse);
        let (faulted, _) = build(lexicon, db, semi, documents, 2, traverse_fault);
        let before = parkit::fork_joins();
        for item in qa {
            faulted.answer(&item.question);
        }
        assert_eq!(parkit::fork_joins(), before, "{name}: a faulted answer forked");
        let fallbacks = faulted.metrics_report().get("traverse.fault_fallbacks");
        assert!(fallbacks > Some(0), "{name}: no answer reached the fallback");
    }
}
