//! Work-count gate for the heap (DESIGN.md §5c): the allocations and bytes
//! an `answer` requests, pinned exactly per QA category on both workloads,
//! and a token count that allocates nothing. Counted by a wrapper around
//! the system allocator, never by a clock.
//!
//! The counters are per thread and an `answer` spawns nothing (the spawns
//! gate), so a count taken around one call is that call's alone. This
//! binary still holds a single `#[test]`, like the spawns gate: the
//! process-wide allocator is this binary's (`counting/mod.rs`, which also
//! says what an allocation and its bytes are), and one test keeps what it
//! counts obvious.
//!
//! The pinned counts change whenever the answer path allocates differently.
//! A change that lowers them updates the table; one that raises them says
//! why in CHANGES.md.

use std::collections::BTreeMap;

use unisem_core::{EngineBuilder, EngineConfig, FaultPlan, UnifiedEngine};
use unisem_workloads::ecommerce::DocSpec;
use unisem_workloads::{
    EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload, QaItem,
};

mod counting;
use counting::counted;

fn build(
    lexicon: &unisem_slm::Lexicon,
    db: &unisem_relstore::Database,
    semi: &unisem_semistore::SemiStore,
    documents: &[DocSpec],
) -> UnifiedEngine {
    // Pinned, whatever UNISEM_FAULTS says outside.
    let config = EngineConfig { faults: FaultPlan::disabled(), ..EngineConfig::default() };
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
    b.build().0
}

#[test]
fn answers_allocate_as_pinned_and_token_counts_allocate_nothing() {
    let e = EcommerceWorkload::generate(EcommerceConfig {
        products: 24,
        quarters: 4,
        reviews_per_product: 2,
        qa_per_category: 8,
        seed: 0xD1FF,
        name_offset: 0,
    });
    let h = HealthcareWorkload::generate(HealthcareConfig {
        drugs: 8,
        patients: 12,
        trials_per_drug: 3,
        qa_per_category: 8,
        seed: 0x4EA17,
    });
    // (category, questions, allocations, bytes), summed over the category's
    // questions on the second pass over the workload.
    let pinned: [[(&str, u64, u64, u64); 6]; 2] = [
        [
            ("aggregate", 8, 2414, 131306),
            ("comparative", 8, 3376, 173336),
            ("cross_modal", 8, 1972, 212562),
            ("lookup", 8, 1577, 150753),
            ("multi_entity", 5, 1441, 80718),
            ("unanswerable", 8, 3080, 191311),
        ],
        [
            ("aggregate", 8, 1977, 104653),
            ("comparative", 8, 2716, 145273),
            ("cross_modal", 8, 1426, 134938),
            ("lookup", 8, 1328, 101574),
            ("multi_entity", 8, 2829, 145484),
            ("unanswerable", 8, 2293, 131990),
        ],
    ];
    let corpora: [(&str, &unisem_slm::Lexicon, _, _, &[DocSpec], &[QaItem]); 2] = [
        ("ecommerce", &e.lexicon, &e.db, &e.semi, &e.documents, &e.qa),
        ("healthcare", &h.lexicon, &h.db, &h.semi, &h.documents, &h.qa),
    ];
    for ((name, lexicon, db, semi, documents, qa), want) in corpora.into_iter().zip(pinned) {
        // The meter's token count is computed, never materialized.
        let questions = qa.iter().map(|q| q.question.as_str());
        for text in documents.iter().map(|d| d.text.as_str()).chain(questions) {
            let (_, allocs, _) = counted(|| unisem_slm::count_tokens(text));
            assert_eq!(allocs, 0, "{name}: count_tokens allocated on {text:?}");
        }

        let engine = build(lexicon, db, semi, documents);
        // A first pass settles whatever the engine sets up lazily.
        for item in qa {
            engine.answer(&item.question);
        }
        let mut got: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for item in qa {
            let (_, allocs, bytes) = counted(|| engine.answer(&item.question));
            let (questions, a, b) = got.entry(item.category.label()).or_default();
            *questions += 1;
            *a += allocs;
            *b += bytes;
        }
        for (category, (questions, allocs, bytes)) in &got {
            println!("{name} {category}: {questions} answers, {allocs} allocations, {bytes} bytes");
        }
        let want: BTreeMap<&str, (u64, u64, u64)> = want.map(|(c, q, a, b)| (c, (q, a, b))).into();
        assert_eq!(got, want, "{name}: allocations per category moved");
    }
}
