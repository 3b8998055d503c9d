//! Persistent-storage integration suite (DESIGN.md §12).
//!
//! Three contracts, enforced end-to-end through the public engine API:
//!
//! 1. **Snapshot round-trip differential**: an engine reopened from a
//!    snapshot answers every workload query byte-identically — text,
//!    confidence, entropy report, route, provenance, degradations, and
//!    the full explain trace — to the engine that saved it, at 1, 2, 4,
//!    and 8 threads.
//! 2. **Byte-stable snapshot files**: two engines built from the same
//!    inputs with the same seed write byte-identical snapshot files,
//!    regardless of build thread count; the per-page image table is
//!    pinned by a golden snapshot (`UNISEM_BLESS=1` re-blesses).
//! 3. **Crash consistency**: across a matrix of injected torn-page and
//!    failed-flush faults, a failed save returns a typed error, never
//!    corrupts the previously committed snapshot, and the target stays
//!    cleanly reopenable.

use std::path::PathBuf;

use storekit::{Pager, StoreError};
use unisem_core::{
    Answer, Delta, EngineBuilder, EngineConfig, EngineError, FaultPlan, FaultSite, ParallelConfig,
    UnifiedEngine,
};
use unisem_relstore::{DataType, Schema, Table, Value};
use unisem_slm::{EntityKind, Lexicon};
use unisem_workloads::ecommerce::DocSpec;
use unisem_workloads::{
    names, EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload, QaItem,
    ScaleConfig, ScaleWorkload,
};

struct Workload {
    name: &'static str,
    lexicon: Lexicon,
    db: unisem_relstore::Database,
    semi: unisem_semistore::SemiStore,
    documents: Vec<DocSpec>,
    qa: Vec<QaItem>,
}

fn workloads() -> Vec<Workload> {
    let e = EcommerceWorkload::generate(EcommerceConfig {
        products: 6,
        quarters: 3,
        reviews_per_product: 2,
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
    vec![
        Workload {
            name: "ecommerce",
            lexicon: e.lexicon,
            db: e.db,
            semi: e.semi,
            documents: e.documents,
            qa: e.qa,
        },
        Workload {
            name: "healthcare",
            lexicon: h.lexicon,
            db: h.db,
            semi: h.semi,
            documents: h.documents,
            qa: h.qa,
        },
    ]
}

fn config(threads: usize) -> EngineConfig {
    // Faults explicitly disabled: byte-identity must not depend on any
    // ambient `UNISEM_FAULTS` plan the surrounding CI gate has armed.
    EngineConfig {
        seed: 0xABCD_1234,
        trace: true,
        faults: FaultPlan::disabled(),
        parallel: ParallelConfig::with_threads(threads),
        ..EngineConfig::default()
    }
}

fn build(w: &Workload, threads: usize) -> UnifiedEngine {
    build_with(w, config(threads))
}

fn build_with(w: &Workload, config: EngineConfig) -> UnifiedEngine {
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
    for name in w.db.table_names() {
        b.add_table(name, w.db.table(name).expect("listed").clone()).expect("fresh");
    }
    for coll in w.semi.collections() {
        for doc in w.semi.docs(coll) {
            b.add_json(coll, doc.clone());
        }
    }
    for d in &w.documents {
        b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
    }
    b.build().0
}

/// A tiny fixed-input engine for the fault matrix and the golden page
/// check: three lexicon entries, one table, two documents, one JSON
/// collection — every modality, minimal pages.
fn tiny_engine(faults: FaultPlan) -> UnifiedEngine {
    let lexicon = Lexicon::new().with_entries([
        ("Aero Widget", EntityKind::Product),
        ("Nova Speaker", EntityKind::Product),
        ("Acme Corp", EntityKind::Organization),
    ]);
    let mut b = EngineBuilder::with_config(
        lexicon,
        EngineConfig { seed: 0x0BAD_CAFE, trace: true, faults, ..EngineConfig::default() },
    );
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
    .expect("typed rows");
    b.add_table("sales", sales).expect("fresh");
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
    b.add_json(
        "orders",
        unisem_semistore::parse_json(
            r#"{"product": "Aero Widget", "quarter": "Q1 2024", "units": 10}"#,
        )
        .expect("valid json"),
    );
    b.build().0
}

fn tmp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("unisem-storage-{}-{tag}.usk", std::process::id()));
    p
}

fn remove_wal(base: &std::path::Path) {
    for segment in storekit::Wal::segment_paths(base) {
        std::fs::remove_file(segment).ok();
    }
}

fn answers(engine: &UnifiedEngine, qa: &[QaItem]) -> Vec<Answer> {
    qa.iter().map(|item| engine.answer(&item.question)).collect()
}

#[test]
fn snapshot_round_trip_answers_byte_identical() {
    for w in workloads() {
        let engine = build(&w, 1);
        let path = tmp_path(&format!("roundtrip-{}", w.name));
        engine.save_snapshot(&path).expect("save");
        let baseline = answers(&engine, &w.qa);
        assert!(!baseline.is_empty(), "{}: workload has queries", w.name);
        for threads in [1usize, 2, 4, 8] {
            let (reopened, report) =
                EngineBuilder::open_snapshot(&path, config(threads)).expect("open");
            assert_eq!(
                report,
                *engine.ingest_report(),
                "{}: ingest report survives the round trip",
                w.name
            );
            assert_eq!(
                reopened.stats().render(),
                engine.stats().render(),
                "{}: statistics catalog survives the round trip",
                w.name
            );
            let got = answers(&reopened, &w.qa);
            for (a, b) in baseline.iter().zip(&got) {
                assert_eq!(a, b, "{} at {threads} threads: answer diverged", w.name);
                assert!(a.trace.is_some(), "{}: traces were opted in", w.name);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A snapshot holds no dense vectors and reopening embeds none (DESIGN.md
/// §12d): the reopened engine builds its dense index on its first dense
/// scan. Under a certain traversal fault every retrieval is such a scan, and
/// the reopened engine's answers stay byte-identical to the saving engine's.
#[test]
fn reopened_engine_builds_the_dense_index_on_first_use() {
    let faulted = EngineConfig { faults: FaultPlan::single(FaultSite::GraphTraverse), ..config(2) };
    let dense_builds = |e: &UnifiedEngine| e.timing_report().count("build.dense");
    for w in workloads() {
        let engine = build_with(&w, faulted);
        let path = tmp_path(&format!("lazy-dense-{}", w.name));
        engine.save_snapshot(&path).expect("save");
        let baseline = answers(&engine, &w.qa);
        assert_eq!(dense_builds(&engine), Some(1), "{}: a faulted retrieval ran", w.name);

        let (reopened, _) = EngineBuilder::open_snapshot(&path, faulted).expect("open");
        assert_eq!(dense_builds(&reopened), Some(0), "{}: open embeds nothing", w.name);
        assert_eq!(answers(&reopened, &w.qa), baseline, "{}: faulted answers diverged", w.name);
        assert_eq!(dense_builds(&reopened), Some(1), "{}", w.name);
        std::fs::remove_file(&path).ok();
    }
}

/// A 256-product corpus: sections of many pages, posting lists of
/// kilobytes. Snapshot, reopen with a log, ingest, checkpoint — the only
/// thing that ever truncates the log — and recover from the checkpoint.
#[test]
fn scale_corpus_snapshots_reopens_and_checkpoints_after_deltas() {
    let scale =
        ScaleWorkload::generate(ScaleConfig { products: 256, quarters: 4, queries: 6, seed: 7 });
    let e = scale.data;
    let w = Workload {
        name: "scale",
        lexicon: e.lexicon,
        db: e.db,
        semi: e.semi,
        documents: e.documents,
        qa: Vec::new(),
    };
    let engine = build(&w, 1);
    let snap = tmp_path("scale-base");
    let ckpt = tmp_path("scale-ckpt");
    let wal = tmp_path("scale-wal");
    remove_wal(&wal);
    engine.save_snapshot(&snap).expect("a 256-product corpus fits its pages");

    let (mut live, _, replayed) =
        EngineBuilder::open_snapshot_with_wal(&snap, &wal, config(1)).expect("reopen");
    assert_eq!(replayed, 0);
    assert_eq!(live.stats().render(), engine.stats().render());
    let product = names::product(3);
    let deltas = [
        Delta::DocAdd {
            title: format!("{product} outlook"),
            text: format!("Customers purchased 40 units of {product}. Analysts expect growth."),
            source: "report".into(),
        },
        Delta::TableRow {
            table: "sales".into(),
            values: vec![
                Value::str(product.clone()),
                Value::str(names::quarter(4)),
                Value::float(400.0),
                Value::Int(40),
                Value::float(2.5),
            ],
        },
        Delta::GraphEntity { name: "Supplier Three Works".into(), kind: EntityKind::Organization },
        Delta::GraphEdge {
            a: "Supplier Three Works".into(),
            b: product,
            kind: unisem_hetgraph::EdgeKind::RelatesTo("supplies".into()),
        },
    ];
    for d in &deltas {
        live.ingest_delta(d.clone()).expect("ingest");
    }
    live.checkpoint(&ckpt).expect("checkpoint folds the log into a fresh snapshot");

    let (recovered, _, replayed) =
        EngineBuilder::open_snapshot_with_wal(&ckpt, &wal, config(1)).expect("recover");
    assert_eq!(replayed, 0, "the checkpoint truncated the log");
    assert_eq!(recovered.applied_seq(), deltas.len() as u64);
    assert_eq!(recovered.stats().render(), live.stats().render());
    for q in &scale.queries {
        assert_eq!(recovered.answer(q), live.answer(q), "{q}");
    }
    drop((live, recovered));
    remove_wal(&wal);
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// Nothing a corpus contains is too wide to persist: a 600-byte token (a
/// BM25 term), a lexicon entity whose name is longer than 512 bytes (a
/// graph entity-index key) and a term whose posting list encodes to more
/// than 1 KiB all save, reopen to byte-identical answers, and checkpoint
/// after a delta. A format with a key or value width limit fails here.
#[test]
fn wide_tokens_names_and_posting_lists_snapshot_and_checkpoint() {
    let long_token = "x7".repeat(300);
    let long_name = (0..90).map(|i| format!("Omega{i:02}")).collect::<Vec<_>>().join(" ");
    assert!(long_name.len() > 512);
    let lexicon = Lexicon::new().with_entries([
        (long_name.as_str(), EntityKind::Product),
        ("Aero Widget", EntityKind::Product),
    ]);
    let mut b = EngineBuilder::with_config(lexicon, config(1));
    b.add_document(
        "serial",
        format!("The Aero Widget carries serial {long_token} on its case."),
        "manual",
    );
    b.add_document("catalog", format!("Acme Corp ships the {long_name} next year."), "news");
    for i in 0..100 {
        b.add_document(
            format!("review {i}"),
            format!("Customers praised the Aero Widget in review number {i}."),
            "review",
        );
    }
    let engine = b.build().0;
    let postings = engine.docs().index().postings();
    assert!(postings.keys().any(|term| term.len() >= 600), "the long token is a term");
    let widest = postings.values().map(Vec::len).max().unwrap_or(0);
    assert!(8 + 12 * widest > 1024, "widest posting list is only {widest} entries");
    assert!(engine.graph().entity_by_name(&long_name).is_some(), "the long name is an entity");

    let snap = tmp_path("wide-base");
    let ckpt = tmp_path("wide-ckpt");
    let wal = tmp_path("wide-wal");
    remove_wal(&wal);
    engine.save_snapshot(&snap).expect("no width limit on what a snapshot holds");

    let questions = [
        format!("Which product carries serial {long_token}?"),
        format!("Who ships the {long_name}?"),
        "What did customers say about the Aero Widget?".to_string(),
    ];
    let (mut live, _, replayed) =
        EngineBuilder::open_snapshot_with_wal(&snap, &wal, config(1)).expect("reopen");
    assert_eq!(replayed, 0);
    for q in &questions {
        assert_eq!(live.answer(q), engine.answer(q), "{q}");
    }

    live.ingest_delta(Delta::DocAdd {
        title: "recall".into(),
        text: format!("Acme Corp recalled serial {} of the {long_name}.", "y9".repeat(300)),
        source: "news".into(),
    })
    .expect("ingest");
    live.checkpoint(&ckpt).expect("checkpoint after a delta");
    let (recovered, _, replayed) =
        EngineBuilder::open_snapshot_with_wal(&ckpt, &wal, config(1)).expect("recover");
    assert_eq!(replayed, 0, "the checkpoint truncated the log");
    assert_eq!(recovered.applied_seq(), 1);
    for q in &questions {
        assert_eq!(recovered.answer(q), live.answer(q), "{q}");
    }
    drop((live, recovered));
    remove_wal(&wal);
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn same_seed_builds_write_byte_identical_files() {
    for w in workloads() {
        // Thread count is the one knob that must never leak into the
        // bytes: build at 1 and 4 threads, compare whole files.
        let p1 = tmp_path(&format!("bytes1-{}", w.name));
        let p4 = tmp_path(&format!("bytes4-{}", w.name));
        build(&w, 1).save_snapshot(&p1).expect("save at 1 thread");
        build(&w, 4).save_snapshot(&p4).expect("save at 4 threads");
        let b1 = std::fs::read(&p1).expect("read");
        let b4 = std::fs::read(&p4).expect("read");
        assert!(!b1.is_empty());
        assert_eq!(b1, b4, "{}: snapshot bytes depend on build thread count", w.name);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
    }
}

/// Renders the page-image table of a snapshot file: one line per page
/// with its kind tag and content checksum. Pinning this is pinning the
/// physical layout — any page-format, allocation-order, or encoding
/// change shows up as a diff to bless.
fn page_image_table(path: &std::path::Path) -> String {
    let mut pager = Pager::open(path, FaultPlan::disabled()).expect("open pager");
    let mut out = String::new();
    for id in 0..pager.num_pages() {
        let page = pager.read_page(id).expect("page verifies");
        out.push_str(&format!(
            "page {id}: kind={:?} checksum={:016x}\n",
            page.kind(),
            page.checksum()
        ));
    }
    out
}

#[test]
fn snapshot_page_images_match_golden() {
    let engine = tiny_engine(FaultPlan::disabled());
    let path = tmp_path("golden");
    engine.save_snapshot(&path).expect("save");
    let actual = page_image_table(&path);
    std::fs::remove_file(&path).ok();

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/storage_pages.txt");
    if std::env::var_os("UNISEM_BLESS").is_some() {
        std::fs::write(&golden, &actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!("missing golden file {}; run UNISEM_BLESS=1 to create it", golden.display())
    });
    assert_eq!(
        actual, expected,
        "snapshot page images diverged from golden; \
         re-bless with UNISEM_BLESS=1 if the change is intentional"
    );
}

#[test]
fn crash_fault_matrix_preserves_committed_snapshot() {
    let path = tmp_path("faults");
    let clean = tiny_engine(FaultPlan::disabled());
    clean.save_snapshot(&path).expect("initial save");
    let committed = std::fs::read(&path).expect("read committed");
    let question = "What was the total sales amount of Aero Widget across all quarters?";
    let baseline = clean.answer(question);

    // The matrix: each store fault site, armed at probability 1 (fires at
    // the first touch of the site) and at ~1/2 under several seeds (fires
    // at different pages / flushes per seed — distinct fault points).
    let mut plans: Vec<(String, FaultPlan)> = Vec::new();
    for site in [FaultSite::StorePageWrite, FaultSite::StoreFlush] {
        plans.push((format!("{site:?}-always"), FaultPlan::single(site)));
        for seed in 1u64..=4 {
            plans.push((
                format!("{site:?}-half-seed{seed}"),
                FaultPlan::unset().with_site(site, 128).with_seed(seed),
            ));
        }
    }

    let mut fired = 0usize;
    for (tag, plan) in plans {
        let engine = tiny_engine(plan);
        match engine.save_snapshot(&path) {
            Err(EngineError::Store(StoreError::Fault(f))) => {
                fired += 1;
                assert!(
                    matches!(f.site, FaultSite::StorePageWrite | FaultSite::StoreFlush),
                    "{tag}: fault at unexpected site {:?}",
                    f.site
                );
            }
            Err(other) => panic!("{tag}: expected a typed injected-fault error, got {other}"),
            // A probabilistic plan may spare every page this run; then the
            // save must have committed a byte-identical file.
            Ok(()) => {}
        }
        let now = std::fs::read(&path).expect("target readable after faulted save");
        assert_eq!(
            now, committed,
            "{tag}: a faulted or re-run save changed the committed snapshot"
        );
        // The committed snapshot stays cleanly reopenable and equivalent.
        let (reopened, _) =
            EngineBuilder::open_snapshot(&path, clean.config()).expect("reopen after fault");
        assert_eq!(reopened.answer(question), baseline, "{tag}: reopened answer diverged");
    }
    assert!(fired >= 4, "fault matrix too soft: only {fired} injected failures fired");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_snapshot_is_rejected_with_typed_error() {
    let path = tmp_path("corrupt");
    tiny_engine(FaultPlan::disabled()).save_snapshot(&path).expect("save");
    let mut bytes = std::fs::read(&path).expect("read");
    // Flip one payload byte in the middle of the file: the page checksum
    // must catch it at open.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("write corrupted");
    match EngineBuilder::open_snapshot(&path, config(1)) {
        Err(EngineError::Store(StoreError::Corrupt { .. })) => {}
        Err(other) => panic!("expected a corruption error, got {other}"),
        Ok(_) => panic!("corrupted snapshot opened cleanly"),
    }
    // Truncation is rejected too (file no longer a whole number of pages).
    let shorter = &bytes[..bytes.len() - 100];
    std::fs::write(&path, shorter).expect("write truncated");
    match EngineBuilder::open_snapshot(&path, config(1)) {
        Err(EngineError::Store(_)) => {}
        Err(other) => panic!("expected a storage error, got {other}"),
        Ok(_) => panic!("truncated snapshot opened cleanly"),
    }
    std::fs::remove_file(&path).ok();
}
