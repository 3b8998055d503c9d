//! Incremental-ingest integration suite (DESIGN.md §13): what a single
//! durable delta may cost, what it must leave behind, and what a rejected
//! or failed one must not.
//!
//! 1. **Failure atomicity** — every rejectable delta and every injected
//!    log fault, alone and in the middle of a batch, leaves the engine and
//!    the durable log exactly as they were, and the next good delta
//!    applies.
//! 2. **Equivalence** — after a random stream of single deltas of all five
//!    kinds, everything ingest maintains incrementally (statistics
//!    catalog, gauges) equals a recount, and the engine answers like one
//!    rebuilt from the inputs plus the log, at 1 and 4 threads.
//! 3. **Work counts** — a delta runs no PageRank, re-collects at most its
//!    own table's statistics, copies no substrate and embeds no chunk.
//!    Counted by the engine's closed registry and its stage counts, never
//!    by a clock.

use std::path::{Path, PathBuf};

use detkit::prop::{usizes, vec_of, zip3, Config};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use storekit::StoreError;
use unisem_core::{
    Answer, Delta, EngineBuilder, EngineConfig, EngineError, FaultPlan, FaultSite, ParallelConfig,
    Provenance, StatsCatalog, UnifiedEngine,
};
use unisem_hetgraph::{EdgeKind, NodeKind};
use unisem_relstore::{Database, Value};
use unisem_slm::EntityKind;
use unisem_workloads::ecommerce::DocSpec;
use unisem_workloads::{names, EcommerceWorkload, ScaleConfig, ScaleWorkload};

const QUARTERS: usize = 4;

fn corpus(products: usize) -> EcommerceWorkload {
    ScaleWorkload::generate(ScaleConfig { products, quarters: QUARTERS, queries: 1, seed: 0x1D6E })
        .data
}

/// Faults are pinned per test: ci.sh runs this suite with an ambient
/// `wal.*` plan armed, which must not leak in.
fn config(threads: usize, faults: FaultPlan) -> EngineConfig {
    EngineConfig {
        trace: true,
        faults,
        parallel: ParallelConfig::with_threads(threads),
        ..EngineConfig::default()
    }
}

fn build(w: &EcommerceWorkload, config: EngineConfig) -> UnifiedEngine {
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

fn supplier(n: usize) -> String {
    format!("Supplier {n} Works")
}

/// One delta of kind `kind` (0..5: doc_add, table_row, semi_fragment,
/// graph_entity, graph_edge) about product `p`, made distinct by `n`.
fn delta(kind: usize, p: usize, n: usize) -> Delta {
    let product = names::product(p);
    let quarter = names::quarter(QUARTERS + n % 4);
    let units = 10 + n as i64;
    let amount = units as f64 * 10.0;
    match kind {
        0 => Delta::DocAdd {
            title: format!("{product} {quarter} report {n}"),
            text: format!(
                "In {quarter}, {product} sales changed 2.5% to ${amount}. \
                 Customers purchased {units} units of {product}."
            ),
            source: "report".into(),
        },
        1 => Delta::TableRow {
            table: "sales".into(),
            values: vec![
                Value::str(product),
                Value::str(quarter),
                Value::float(amount),
                Value::Int(units),
                Value::float(2.5),
            ],
        },
        2 => Delta::SemiFragment {
            // Every fourth fragment goes to a collection the build never
            // saw: its first fragment creates the table.
            collection: if n.is_multiple_of(4) { "returns".into() } else { "orders".into() },
            json: format!(
                "{{\"order_id\": {}, \"product\": \"{product}\", \"quarter\": \"{quarter}\", \
                 \"units\": {units}, \"amount\": {amount}}}",
                100_000 + n
            ),
        },
        3 => Delta::GraphEntity { name: supplier(n % 6), kind: EntityKind::Organization },
        _ => Delta::GraphEdge {
            a: supplier(n % 6),
            b: product,
            kind: EdgeKind::RelatesTo("supplies".into()),
        },
    }
}

/// The five kinds about product `r`, the edge last so its endpoints exist.
fn rotation(r: usize) -> Vec<Delta> {
    (0..5).map(|kind| delta(kind, r, r)).collect()
}

/// Structured, retrieval and graph-flavoured questions about product `p`.
fn probes(p: usize) -> Vec<String> {
    let product = names::product(p);
    vec![
        format!("What was the total sales amount of {product} across all quarters?"),
        format!("What do customers say about {product}?"),
        format!("Who supplies {product}?"),
    ]
}

fn tmp_wal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("unisem-ingest-{}-{tag}.wal", std::process::id()));
    remove_wal(&p);
    p
}

fn remove_wal(base: &Path) {
    std::fs::remove_file(base).ok();
}

/// Everything a failed ingest must leave untouched.
#[derive(Debug, PartialEq)]
struct Observed {
    applied_seq: u64,
    stats: String,
    index_bytes: usize,
    answers: Vec<Answer>,
    log: Vec<u8>,
}

fn observe(engine: &UnifiedEngine, wal: &Path) -> Observed {
    Observed {
        applied_seq: engine.applied_seq(),
        stats: engine.stats().render(),
        index_bytes: engine.index_bytes(),
        answers: probes(1).iter().map(|q| engine.answer(q)).collect(),
        log: std::fs::read(wal).expect("read log"),
    }
}

#[test]
fn rejected_deltas_change_nothing_alone_or_mid_batch() {
    let w = corpus(8);
    let wal = tmp_wal("rejected");
    let mut engine = build(&w, config(1, FaultPlan::disabled()));
    engine.enable_wal(&wal).expect("attach");
    for d in rotation(0) {
        engine.ingest_delta(d).expect("good delta");
    }

    let product = names::product(1);
    let sales_row = |values| Delta::TableRow { table: "sales".into(), values };
    let fragment =
        |json: &str| Delta::SemiFragment { collection: "orders".into(), json: json.into() };
    let edge = |a: &str, b: &str| Delta::GraphEdge {
        a: a.into(),
        b: b.into(),
        kind: EdgeKind::RelatesTo("supplies".into()),
    };
    let rejects = [
        ("unknown table", Delta::TableRow { table: "nope".into(), values: vec![Value::Int(1)] }),
        ("arity mismatch", sales_row(vec![Value::str(product.clone()), Value::Int(3)])),
        (
            "type mismatch",
            sales_row(vec![
                Value::Int(7),
                Value::str("Q1 2024"),
                Value::float(1.0),
                Value::Int(1),
                Value::float(0.0),
            ]),
        ),
        ("malformed json", fragment("{\"order_id\": ")),
        ("fragment path not a column", fragment("{\"order_id\": 5, \"warehouse\": \"north\"}")),
        ("unknown edge endpoint", edge("Nobody Holdings", &product)),
        ("identical edge endpoints", edge(&product, &product.to_uppercase())),
    ];

    let before = observe(&engine, &wal);
    for (what, bad) in &rejects {
        let err = engine.ingest_delta(bad.clone()).expect_err(what);
        assert!(
            !matches!(err, EngineError::Store(_) | EngineError::Fault(_)),
            "{what}: rejected by validation, not by the log: {err}"
        );
        assert_eq!(observe(&engine, &wal), before, "{what}: single delta left a mark");

        // Between two deltas that would apply, the second depending on
        // nothing the batch itself adds.
        let batch = [delta(3, 2, 40), bad.clone(), delta(0, 2, 41)];
        engine.ingest_deltas(&batch).expect_err(what);
        assert_eq!(observe(&engine, &wal), before, "{what}: batch left a mark");
    }

    let seq = engine.ingest_delta(delta(1, 1, 50)).expect("the next good delta applies");
    assert_eq!(seq, before.applied_seq + 1);
    let after = observe(&engine, &wal);
    assert_ne!(after.stats, before.stats, "the row shows in the catalog");
    assert_ne!(after.answers[0], before.answers[0], "and in the total");
    assert!(after.log.len() > before.log.len() && after.log.starts_with(&before.log));
    drop(engine);
    remove_wal(&wal);
}

/// A plan that spares the append of record `spared` and tears the next.
fn tear_after(spared: u64) -> FaultPlan {
    (0u64..10_000)
        .map(|s| FaultPlan::unset().with_seed(s).with_site(FaultSite::WalAppend, 128))
        .find(|p| {
            !p.fires(FaultSite::WalAppend, &format!("seq:{spared}"))
                && p.fires(FaultSite::WalAppend, &format!("seq:{}", spared + 1))
        })
        .expect("a seed separating two consecutive records exists")
}

#[test]
fn log_faults_change_nothing_alone_or_mid_batch() {
    let w = corpus(8);
    let durable = rotation(0);
    let k = durable.len() as u64;
    let single = vec![delta(1, 1, 60)];
    let batch = vec![delta(3, 2, 61), delta(1, 1, 62), delta(0, 2, 63)];
    // (scenario, plan, deltas submitted, whole frames of the failed
    // submission that reached the file before a torn append). Those
    // frames are the one thing a failure may leave behind: the torn
    // append stands for a crash, a log record carries no batch boundary,
    // and recovery keeps every intact frame — an unacknowledged batch can
    // come back in part, never a rejected or half-written delta.
    let scenarios = [
        ("append-single", FaultPlan::single(FaultSite::WalAppend), &single, Some(0)),
        ("append-mid-batch", tear_after(k + 1), &batch, Some(1)),
        ("flush-single", FaultPlan::single(FaultSite::WalFlush), &single, None),
        ("flush-batch", FaultPlan::single(FaultSite::WalFlush), &batch, None),
    ];
    for (tag, plan, deltas, torn_after) in scenarios {
        let wal = tmp_wal(tag);
        {
            let mut clean = build(&w, config(1, FaultPlan::disabled()));
            clean.enable_wal(&wal).expect("attach");
            for d in &durable {
                clean.ingest_delta(d.clone()).expect("durable prefix");
            }
        }
        let mut engine = build(&w, config(1, plan));
        assert_eq!(engine.enable_wal(&wal).expect("replay spares the armed site"), durable.len());
        let before = observe(&engine, &wal);
        assert_eq!(before.applied_seq, k);

        let err = if deltas.len() == 1 {
            engine.ingest_delta(deltas[0].clone())
        } else {
            engine.ingest_deltas(deltas)
        }
        .expect_err(tag);
        assert!(matches!(err, EngineError::Store(StoreError::Fault(_))), "{tag}: {err}");
        let mut after = observe(&engine, &wal);
        if torn_after.is_some() {
            // Past the durable records the file now ends in half a frame,
            // which recovery truncates; the records themselves are intact.
            assert!(after.log.starts_with(&before.log), "{tag}: durable records damaged");
            after.log = before.log.clone();
        }
        assert_eq!(after, before, "{tag}: a failed log write left a mark");
        drop(engine);

        // Recovery, then the client's retry of what was not acknowledged.
        let survivors = torn_after.unwrap_or(0);
        let mut recovered = build(&w, config(1, FaultPlan::disabled()));
        assert_eq!(
            recovered.enable_wal(&wal).expect("recover"),
            durable.len() + survivors,
            "{tag}"
        );
        if survivors == 0 {
            assert_eq!(observe(&recovered, &wal), before, "{tag}: recovery sees the same state");
        }
        let seq = recovered.ingest_deltas(&deltas[survivors..]).expect("the retry applies");
        assert_eq!(seq, k + deltas.len() as u64, "{tag}");
        drop(recovered);
        remove_wal(&wal);
    }
}

/// Every gauge ingest re-sets, recounted from the substrates the slow way.
fn recounted_gauges(engine: &UnifiedEngine) -> Vec<(&'static str, u64)> {
    let graph = engine.graph();
    let kind = |pred: fn(&NodeKind) -> bool| graph.nodes().iter().filter(|n| pred(&n.kind)).count();
    let stats = StatsCatalog::collect(engine.db(), engine.docs(), graph);
    let max_degree = graph.nodes().iter().map(|n| graph.degree(n.id)).max().unwrap_or(0);
    let postings: usize = engine.docs().index().postings().values().map(Vec::len).sum();
    [
        ("ingest.tables", engine.db().len()),
        ("ingest.documents", engine.docs().num_documents()),
        ("graph.nodes", graph.nodes().len()),
        ("graph.edges", graph.edges().len()),
        ("graph.entities", kind(NodeKind::is_entity)),
        ("graph.chunks", kind(NodeKind::is_chunk)),
        ("graph.records", kind(NodeKind::is_record)),
        ("planner.stats_tables", stats.tables.len()),
        ("planner.stats_columns", stats.num_columns()),
        ("planner.stats_postings", postings),
        ("planner.stats_max_degree", max_degree),
    ]
    .map(|(name, n)| (name, n as u64))
    .to_vec()
}

/// Streams `script` into a fresh engine as single durable deltas (a delta
/// the engine rejects — an edge whose supplier no earlier delta added —
/// just is not part of the stream), then one batch of rows, fragments and a
/// document, and checks everything ingest maintained — the tables' value
/// indexes included — against a recount and against a rebuild + log
/// replay.
fn check_equivalence(script: &[(usize, usize, usize)], threads: usize) -> Result<(), String> {
    let w = corpus(6);
    let wal = tmp_wal(&format!("equiv-t{threads}"));
    let mut live = build(&w, config(threads, FaultPlan::disabled()));
    live.enable_wal(&wal).map_err(|e| e.to_string())?;
    let mut accepted = 0usize;
    for &(kind, p, n) in script {
        let before = live.stats().render();
        match live.ingest_delta(delta(kind, p, n)) {
            Ok(seq) => {
                accepted += 1;
                prop_assert_eq!(seq, accepted as u64);
            }
            Err(e) => {
                prop_assert!(matches!(e, EngineError::Delta(_)), "unexpected rejection: {e}");
                prop_assert_eq!(
                    live.stats().render(),
                    before,
                    "a rejected delta moved the catalog"
                );
            }
        }
    }
    // Distinct from every scripted delta (n ≤ 30); n = 32 goes to `returns`.
    let batch = [delta(1, 2, 31), delta(2, 2, 31), delta(2, 3, 32), delta(0, 2, 31)];
    let seq = live.ingest_deltas(&batch).map_err(|e| e.to_string())?;
    accepted += batch.len();
    prop_assert_eq!(seq, accepted as u64);

    let recollected = StatsCatalog::collect(live.db(), live.docs(), live.graph());
    prop_assert_eq!(live.stats(), &recollected, "maintained catalog drifted");
    let mut reindexed = Database::new();
    for name in live.db().table_names() {
        let table = live.db().table(name).map_err(|e| e.to_string())?;
        reindexed.create_table(name, table.clone()).map_err(|e| e.to_string())?;
    }
    prop_assert_eq!(&reindexed, live.db(), "maintained value indexes drifted from a rebuild");
    let report = live.metrics_report();
    for (name, want) in recounted_gauges(&live) {
        prop_assert_eq!(report.get(name), Some(want), "gauge {name}");
    }

    let mut rebuilt = build(&w, config(threads, FaultPlan::disabled()));
    let replayed = rebuilt.enable_wal(&wal).map_err(|e| e.to_string())?;
    prop_assert_eq!(replayed, accepted, "the log holds exactly the accepted deltas");
    prop_assert_eq!(rebuilt.stats(), live.stats());
    prop_assert_eq!(rebuilt.db(), live.db(), "tables and value indexes equal a rebuild + replay");
    prop_assert_eq!(rebuilt.index_bytes(), live.index_bytes());
    for q in probes(0).iter().chain(&probes(3)) {
        prop_assert_eq!(rebuilt.answer(q), live.answer(q), "answer and trace of {q}");
        prop_assert_eq!(rebuilt.retrieve(q, 5), live.retrieve(q, 5), "retrieval of {q}");
    }
    drop((live, rebuilt));
    remove_wal(&wal);
    Ok(())
}

fn scripts() -> detkit::prop::Gen<Vec<(usize, usize, usize)>> {
    vec_of(&zip3(&usizes(0, 4), &usizes(0, 5), &usizes(0, 30)), 1, 24)
}

prop_check!(
    incremental_state_equals_recount_and_replay_at_1_thread,
    Config::default().with_cases(24),
    scripts(),
    |script| check_equivalence(script, 1)
);

prop_check!(
    incremental_state_equals_recount_and_replay_at_4_threads,
    Config::default().with_cases(24),
    scripts(),
    |script| check_equivalence(script, 4)
);

#[test]
fn a_delta_runs_no_pagerank_collects_one_table_and_copies_nothing() {
    let w = corpus(24);
    let mut engine = build(&w, config(1, FaultPlan::disabled()));
    let count = |engine: &UnifiedEngine, name: &str| {
        engine.metrics_report().get(name).expect("registered counter")
    };
    assert_eq!(count(&engine, "traverse.prior_computations"), 1, "the build forces the prior");
    let collections = count(&engine, "planner.stats_table_refreshes");

    // 100 single deltas, 20 of each kind; table_row and semi_fragment
    // touch a table.
    let addr = |engine: &UnifiedEngine| {
        (engine.graph() as *const _ as usize, engine.docs() as *const _ as usize)
    };
    let home = addr(&engine);
    for r in 0..20 {
        for d in rotation(r) {
            engine.ingest_delta(d).expect("good delta");
            assert_eq!(addr(&engine), home, "an unshared engine's substrates are updated in place");
        }
    }
    assert_eq!(engine.applied_seq(), 100);
    assert_eq!(count(&engine, "traverse.prior_computations"), 1, "ingest only invalidates");
    assert_eq!(count(&engine, "planner.stats_table_refreshes") - collections, 40);

    // Structured answers never need the prior; the first traversal
    // computes it for the current graph version, the second finds it.
    engine.answer(&probes(0)[0]);
    assert_eq!(count(&engine, "traverse.prior_computations"), 1);
    engine.answer(&probes(0)[1]);
    assert_eq!(count(&engine, "traverse.prior_computations"), 2);
    engine.answer(&probes(1)[1]);
    engine.retrieve(&probes(2)[2], 5);
    assert_eq!(count(&engine, "traverse.prior_computations"), 2);

    // A clone shares the substrates until its first delta, which copies
    // them once; its second is in place again, and the original never
    // sees either.
    let stats_before = engine.stats().render();
    let mut fork = engine.clone();
    assert_eq!(addr(&fork), home);
    fork.ingest_delta(delta(1, 2, 70)).expect("good delta");
    let copied = addr(&fork);
    assert!(copied.0 != home.0 && copied.1 != home.1);
    fork.ingest_delta(delta(0, 2, 71)).expect("good delta");
    assert_eq!(addr(&fork), copied);
    assert_eq!(addr(&engine), home);
    assert_eq!(engine.stats().render(), stats_before);
    assert_eq!(engine.applied_seq(), 100);
}

/// Under a certain traversal fault every retrieval is the lexical scan over
/// the maintained BM25 index, so a document delta is visible to the next
/// faulted answer, which equals an engine built from scratch over the final
/// corpus.
#[test]
fn faulted_answer_after_doc_delta_equals_a_fresh_build() {
    let w = corpus(8);
    let faulted = config(2, FaultPlan::single(FaultSite::GraphTraverse));
    let mut engine = build(&w, faulted);
    let q = &probes(1)[1];
    engine.answer(q);

    let chunks_before = engine.docs().num_chunks();
    let added = DocSpec {
        title: "outlook".into(),
        text: format!("Customers say the {} is loud but sturdy.", names::product(1)),
        source: "review".into(),
    };
    engine
        .ingest_delta(Delta::DocAdd {
            title: added.title.clone(),
            text: added.text.clone(),
            source: added.source.clone(),
        })
        .expect("good delta");
    let after = engine.answer(q);
    assert!(
        after
            .provenance
            .iter()
            .any(|p| matches!(p, Provenance::Chunk { chunk_id, .. } if *chunk_id >= chunks_before)),
        "the scan finds the new chunk: {after:#?}"
    );

    let mut grown = w.clone();
    grown.documents.push(added);
    assert_eq!(after, build(&grown, faulted).answer(q), "a from-scratch engine answers alike");
}
