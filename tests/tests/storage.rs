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
//!    regardless of build thread count; the per-frame table is pinned by
//!    a golden file (`UNISEM_BLESS=1` re-blesses).
//! 3. **Crash consistency**: across a matrix of injected torn-write and
//!    failed-flush faults, a failed save returns a typed error, never
//!    corrupts the previously committed snapshot, and the target stays
//!    cleanly reopenable; the torn `<path>.tmp` it leaves is never read.

use std::path::PathBuf;

use storekit::{Encoder, Snapshot, SnapshotWriter, StoreError};
use tracekit::metrics::MetricKind;
use tracekit::Metric;
use unisem_core::{
    Answer, Delta, EngineBuilder, EngineConfig, EngineError, FaultPlan, FaultSite, IngestReport,
    ParallelConfig, UnifiedEngine,
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
    build_reported(w, config).0
}

/// [`build_with`], with the build's ingest report.
fn build_reported(w: &Workload, config: EngineConfig) -> (UnifiedEngine, IngestReport) {
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
    b.build()
}

/// A tiny fixed-input engine for the fault matrix and the golden frame
/// check: three lexicon entries, one table, two documents, one JSON
/// collection — every modality, minimal sections.
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
    std::fs::remove_file(base).ok();
}

fn answers(engine: &UnifiedEngine, qa: &[QaItem]) -> Vec<Answer> {
    qa.iter().map(|item| engine.answer(&item.question)).collect()
}

/// The engine's gauges: pure functions of its substrates.
fn gauges(engine: &UnifiedEngine) -> Vec<(&'static str, u64)> {
    let gauges = Metric::ALL.into_iter().filter(|m| m.kind() == MetricKind::Gauge);
    gauges.map(|m| (m.name(), engine.metrics().get(m))).collect()
}

#[test]
fn snapshot_round_trip_answers_byte_identical() {
    for w in workloads() {
        let (engine, built) = build_reported(&w, config(1));
        let path = tmp_path(&format!("roundtrip-{}", w.name));
        engine.save_snapshot(&path).expect("save");
        let baseline = answers(&engine, &w.qa);
        assert!(!baseline.is_empty(), "{}: workload has queries", w.name);
        // The traces compared below carry plans with pruned candidates:
        // the reopened catalog must prune exactly as the saved one did.
        assert!(
            baseline
                .iter()
                .filter_map(|a| a.trace.as_ref()?.plan.as_deref())
                .any(|plan| plan.contains("(pruned: ")),
            "{}: no traced plan prunes a candidate",
            w.name
        );
        for threads in [1usize, 2, 4, 8] {
            let (reopened, report) =
                EngineBuilder::open_snapshot(&path, config(threads)).expect("open");
            assert_eq!(report, built, "{}: ingest report survives the round trip", w.name);
            assert_eq!(
                reopened.db(),
                engine.db(),
                "{}: the tables and value indexes rebuilt on open equal the saved engine's",
                w.name
            );
            assert_eq!(gauges(&reopened), gauges(&engine), "{}: gauges", w.name);
            assert_eq!(reopened.index_bytes(), engine.index_bytes(), "{}", w.name);
            let got = answers(&reopened, &w.qa);
            for (a, b) in baseline.iter().zip(&got) {
                assert_eq!(a, b, "{} at {threads} threads: answer diverged", w.name);
                assert!(a.trace.is_some(), "{}: traces were opted in", w.name);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Under a certain traversal fault every retrieval is the lexical scan over
/// the BM25 postings rebuilt on open, and the reopened engine's faulted
/// answers stay byte-identical to the saving engine's.
#[test]
fn reopened_engine_answers_faulted_traversals_byte_identically() {
    let faulted = EngineConfig { faults: FaultPlan::single(FaultSite::GraphTraverse), ..config(2) };
    for w in workloads() {
        let engine = build_with(&w, faulted);
        let path = tmp_path(&format!("faulted-{}", w.name));
        engine.save_snapshot(&path).expect("save");
        let baseline = answers(&engine, &w.qa);
        let fallbacks = engine.metrics_report().get("traverse.fault_fallbacks");
        assert!(fallbacks > Some(0), "{}: a faulted retrieval ran", w.name);

        let (reopened, _) = EngineBuilder::open_snapshot(&path, faulted).expect("open");
        assert_eq!(answers(&reopened, &w.qa), baseline, "{}: faulted answers diverged", w.name);
        std::fs::remove_file(&path).ok();
    }
}

/// A 256-product corpus: sections of hundreds of kilobytes, posting lists of
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
    engine.save_snapshot(&snap).expect("a 256-product corpus saves");

    let (mut live, _, replayed) =
        EngineBuilder::open_snapshot_with_wal(&snap, &wal, config(1)).expect("reopen");
    assert_eq!(replayed, 0);
    assert_eq!(live.db(), engine.db());
    assert_eq!(gauges(&live), gauges(&engine));
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
    assert_eq!(recovered.db(), live.db());
    assert_eq!(gauges(&recovered), gauges(&live));
    assert_eq!(recovered.index_bytes(), live.index_bytes());
    for q in &scale.queries {
        assert_eq!(recovered.answer(q), live.answer(q), "{q}");
    }
    drop((live, recovered));
    remove_wal(&wal);
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// Nothing a corpus contains is too wide to persist or to rebuild: a
/// 600-byte token (a BM25 term, stored in its chunk's text), a lexicon
/// entity whose name is longer than 512 bytes (a graph entity-index key)
/// and a term in over a hundred chunks (a long posting list, rebuilt on
/// open) all save, reopen to byte-identical answers, and checkpoint after
/// a delta. A format with a key or value width limit fails here.
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
    let index = engine.docs().index();
    assert!(index.postings().any(|(term, _)| term.len() >= 600), "the long token is a term");
    let widest = index.postings().map(|(_, posts)| posts.len()).max().unwrap_or(0);
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

/// The BM25 index is rebuilt from the chunk texts on open, never read from
/// the file: an engine that took `doc_add` deltas, checkpointed and was
/// reopened from the checkpoint has the live engine's postings, document
/// lengths and sentence analysis, the deltas' chunks included.
#[test]
fn reopened_checkpoint_rebuilds_the_live_bm25_index() {
    let base = tiny_engine(FaultPlan::disabled());
    let (snap, ckpt, wal) = (tmp_path("bm25-base"), tmp_path("bm25-ckpt"), tmp_path("bm25-wal"));
    remove_wal(&wal);
    base.save_snapshot(&snap).expect("save");
    let (mut live, _, _) =
        EngineBuilder::open_snapshot_with_wal(&snap, &wal, config(1)).expect("reopen");
    let updates = [
        "Acme Corp recalled the Aero Widget. Sales of the Aero Widget fell 20% in Q3 2024.",
        "The Nova Speaker sold 90 units. Customers praised the Nova Speaker and the Aero Widget.",
    ];
    for (i, text) in updates.into_iter().enumerate() {
        let delta = Delta::DocAdd {
            title: format!("update {i}"),
            text: text.into(),
            source: "news".into(),
        };
        live.ingest_delta(delta).expect("ingest");
    }
    live.checkpoint(&ckpt).expect("checkpoint");
    let (recovered, _, replayed) =
        EngineBuilder::open_snapshot_with_wal(&ckpt, &wal, config(1)).expect("recover");
    assert_eq!(replayed, 0, "the checkpoint truncated the log");

    let (want, got) = (live.docs().index(), recovered.docs().index());
    assert!(want.len() > base.docs().index().len(), "the deltas added chunks");
    assert!(got.postings().eq(want.postings()), "postings per term differ");
    assert_eq!(got.doc_lens(), want.doc_lens());
    assert_eq!(recovered.docs().sentence_terms(), live.docs().sentence_terms());
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

/// Renders the frame table of a snapshot file, parsed straight from its
/// bytes (DESIGN.md §12d): after the 12-byte header, one line per frame
/// with its seq, section name, payload length and checksum. Pinning this
/// is pinning the physical layout — any framing, section-order or
/// encoding change shows up as a diff to bless.
fn frame_table(bytes: &[u8]) -> String {
    assert_eq!(&bytes[..8], b"USKSNAP1");
    let be = |b: &[u8]| b.iter().fold(0u64, |acc, &x| acc << 8 | u64::from(x));
    let mut out = String::new();
    let mut at = 12;
    while at < bytes.len() {
        let (len, seq, checksum) = (
            be(&bytes[at..at + 4]) as usize,
            be(&bytes[at + 4..at + 12]),
            be(&bytes[at + 12..at + 20]),
        );
        let payload = &bytes[at + 20..at + 20 + len];
        let name_len = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
        let name = std::str::from_utf8(&payload[4..4 + name_len]).expect("utf-8 section name");
        out.push_str(&format!(
            "frame {seq}: section={name:?} len={len} checksum={checksum:016x}\n"
        ));
        at += 20 + len;
    }
    out
}

#[test]
fn snapshot_section_frames_match_golden() {
    let engine = tiny_engine(FaultPlan::disabled());
    let path = tmp_path("golden");
    engine.save_snapshot(&path).expect("save");
    let actual = frame_table(&std::fs::read(&path).expect("read"));
    std::fs::remove_file(&path).ok();

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/storage_sections.txt");
    if std::env::var_os("UNISEM_BLESS").is_some() {
        std::fs::write(&golden, &actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!("missing golden file {}; run UNISEM_BLESS=1 to create it", golden.display())
    });
    assert_eq!(
        actual, expected,
        "snapshot frames diverged from golden; \
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
    // at different sections / flushes per seed — distinct fault points).
    let mut plans: Vec<(String, FaultPlan)> = Vec::new();
    for site in [FaultSite::StoreWrite, FaultSite::StoreFlush] {
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
                    matches!(f.site, FaultSite::StoreWrite | FaultSite::StoreFlush),
                    "{tag}: fault at unexpected site {:?}",
                    f.site
                );
            }
            Err(other) => panic!("{tag}: expected a typed injected-fault error, got {other}"),
            // A probabilistic plan may spare every frame this run; then the
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
    // Flip one payload byte in the middle of the file: the frame checksum
    // must catch it at open.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("write corrupted");
    match EngineBuilder::open_snapshot(&path, config(1)) {
        Err(EngineError::Store(StoreError::Corrupt(_))) => {}
        Err(other) => panic!("expected a corruption error, got {other}"),
        Ok(_) => panic!("corrupted snapshot opened cleanly"),
    }
    // Truncation is rejected too (the last frame is torn).
    let shorter = &bytes[..bytes.len() - 100];
    std::fs::write(&path, shorter).expect("write truncated");
    match EngineBuilder::open_snapshot(&path, config(1)) {
        Err(EngineError::Store(_)) => {}
        Err(other) => panic!("expected a storage error, got {other}"),
        Ok(_) => panic!("truncated snapshot opened cleanly"),
    }
    std::fs::remove_file(&path).ok();
}

/// A save torn by a `store.write` fault leaves a torn `<path>.tmp` behind:
/// opening `path` never reads it, whether a committed snapshot sits there
/// or nothing does, and the next save truncates it and commits.
#[test]
fn torn_snapshot_tmp_neither_blocks_a_save_nor_opens() {
    let path = tmp_path("torn-tmp");
    let fresh = tmp_path("torn-tmp-fresh");
    let tmp_of = |p: &std::path::Path| PathBuf::from(format!("{}.tmp", p.display()));
    let clean = tiny_engine(FaultPlan::disabled());
    clean.save_snapshot(&path).expect("initial save");
    let committed = std::fs::read(&path).expect("read committed");
    let question = "Who manufactures the Aero Widget?";

    let torn = tiny_engine(FaultPlan::single(FaultSite::StoreWrite));
    for target in [&path, &fresh] {
        match torn.save_snapshot(target) {
            Err(EngineError::Store(StoreError::Fault(f))) => {
                assert_eq!((f.site, f.key.as_str()), (FaultSite::StoreWrite, "section:config"));
            }
            other => panic!("expected a torn write, got {other:?}"),
        }
        let leftover = std::fs::read(tmp_of(target)).expect("the torn file is left behind");
        assert!(leftover.len() < committed.len() / 2, "{} bytes", leftover.len());
        assert!(matches!(Snapshot::open(&tmp_of(target)), Err(StoreError::Corrupt(_))));
    }
    let (reopened, _) = EngineBuilder::open_snapshot(&path, config(1)).expect("committed opens");
    assert_eq!(reopened.answer(question), clean.answer(question));
    match EngineBuilder::open_snapshot(&fresh, config(1)) {
        Err(EngineError::Store(StoreError::Io(_))) => {}
        Err(other) => panic!("expected no file at the target, got {other}"),
        Ok(_) => panic!("a torn temp file was opened in place of the snapshot"),
    }

    for target in [&path, &fresh] {
        clean.save_snapshot(target).expect("the next save is not blocked");
        assert!(!tmp_of(target).exists(), "the temp file was committed");
        assert_eq!(std::fs::read(target).expect("read"), committed);
        std::fs::remove_file(target).ok();
    }
}

/// Opens a copy of the snapshot at `full` whose `replaced` section holds
/// `bytes` (its checksum recomputed), written to `forged`.
fn open_forged(
    full: &std::path::Path,
    forged: &std::path::Path,
    replaced: &str,
    bytes: &[u8],
) -> Result<UnifiedEngine, EngineError> {
    const SECTIONS: [&str; 7] =
        ["config", "lexicon", "docs", "tables", "graph", "ingest", "walmeta"];
    let snap = Snapshot::open(full).expect("open");
    let mut w = SnapshotWriter::create(forged, FaultPlan::disabled()).expect("create");
    for name in SECTIONS {
        let section = if name == replaced { bytes } else { snap.section(name).expect("section") };
        w.add_section(name, section).expect("add");
    }
    w.commit(forged).expect("commit");
    EngineBuilder::open_snapshot(forged, config(1)).map(|(engine, _)| engine)
}

/// A checksum-valid snapshot whose counts claim more elements than its
/// bytes could hold is a typed decode error, not an allocation: a
/// `docs` section claiming 2^60 documents, and a `tables` section whose
/// one-column table claims 2^60 rows.
#[test]
fn counts_past_the_bytes_left_are_decode_errors() {
    let full = tmp_path("counts-full");
    let forged = tmp_path("counts-forged");
    tiny_engine(FaultPlan::disabled()).save_snapshot(&full).expect("save");

    let mut huge_docs = Encoder::new();
    huge_docs.u64(1 << 60);
    let mut huge_rows = Encoder::new();
    huge_rows.u64(1);
    huge_rows.str("t");
    huge_rows.u64(1);
    huge_rows.str("c");
    huge_rows.u8(1);
    huge_rows.u64(1 << 60);
    for (replaced, bytes) in [("docs", huge_docs.into_bytes()), ("tables", huge_rows.into_bytes())]
    {
        match open_forged(&full, &forged, replaced, &bytes) {
            Err(EngineError::Store(StoreError::Decode(_))) => {}
            Err(other) => panic!("{replaced}: expected a decode error, got {other}"),
            Ok(_) => panic!("{replaced}: a snapshot with an impossible count opened"),
        }
    }
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&forged).ok();
}

/// A zero-column table's rows encode to no bytes, so no byte count bounds
/// them; each row is a record node of the graph, so the graph section's
/// length does. A `tables` section whose zero-column table claims 2^60
/// rows is rejected by that cap, naming the table, instead of looping
/// over 2^60 empty rows.
#[test]
fn a_zero_column_table_claiming_more_rows_than_the_graph_holds_is_rejected() {
    let full = tmp_path("zero-columns-full");
    let forged = tmp_path("zero-columns-forged");
    tiny_engine(FaultPlan::disabled()).save_snapshot(&full).expect("save");
    let mut tables = Encoder::new();
    tables.u64(1);
    tables.str("t");
    tables.u64(0);
    tables.u64(1 << 60);
    match open_forged(&full, &forged, "tables", &tables.into_bytes()) {
        Err(EngineError::Store(StoreError::InvalidSnapshot(reason))) => {
            assert_eq!(reason, format!("zero-column table \"t\" claims {} rows", 1u64 << 60));
        }
        Err(other) => panic!("expected the zero-column cap, got {other}"),
        Ok(_) => panic!("a zero-column table of 2^60 rows opened"),
    }
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&forged).ok();
}
