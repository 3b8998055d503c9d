//! Crash-recovery integration suite for the write-ahead log
//! (DESIGN.md §13).
//!
//! The contract under test: an engine that crashes at **any** WAL record
//! boundary — torn append, lost flush, or mid-checkpoint — recovers to a
//! state that answers every workload query **byte-identically** (text,
//! routes, confidence, degradations, full explain trace) to an engine
//! that never crashed, at 1, 2, 4, and 8 threads. Alongside the matrix:
//! same-seed delta streams must produce byte-identical WAL
//! files, and the planner's estimates must reflect post-delta
//! cardinalities (no stale row counts in explain traces).

use std::path::{Path, PathBuf};

use storekit::{StoreError, Wal};
use unisem_core::{
    Answer, Delta, EngineBuilder, EngineConfig, EngineError, FaultPlan, FaultSite, ParallelConfig,
    UnifiedEngine,
};
use unisem_hetgraph::EdgeKind;
use unisem_relstore::{DataType, Schema, Table, Value};
use unisem_slm::{EntityKind, Lexicon};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Questions exercising every route against the tiny fixture — the
/// byte-identity check covers the analytical (TableQA), lookup
/// (topology retrieval), and graph-flavoured paths.
const QUERIES: [&str; 4] = [
    "What was the total sales amount of Aero Widget across all quarters?",
    "Who manufactures the Aero Widget?",
    "What happened to Aero Widget sales in Q2 2024?",
    "What was the total sales amount of Nova Speaker across all quarters?",
];

fn config(threads: usize, faults: FaultPlan) -> EngineConfig {
    EngineConfig {
        seed: 0x0BAD_CAFE,
        trace: true,
        faults,
        parallel: ParallelConfig::with_threads(threads),
        ..EngineConfig::default()
    }
}

/// The same tiny fixed-input engine the storage suite pins: every
/// modality, minimal pages.
fn tiny_engine() -> UnifiedEngine {
    let lexicon = Lexicon::new().with_entries([
        ("Aero Widget", EntityKind::Product),
        ("Nova Speaker", EntityKind::Product),
        ("Acme Corp", EntityKind::Organization),
    ]);
    let mut b = EngineBuilder::with_config(lexicon, config(1, FaultPlan::disabled()));
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

/// The incremental workload: one delta per variant, ordered so edge
/// endpoints exist when the edge arrives. Pure data — same stream every
/// call, which is what the byte-identical-log check relies on.
fn delta_stream() -> Vec<Delta> {
    vec![
        Delta::DocAdd {
            title: "forecast".into(),
            text: "Acme Corp expects Nova Speaker sales to grow in Q3 2024. \
                   The Nova Speaker is gaining customers."
                .into(),
            source: "forecast".into(),
        },
        Delta::TableRow {
            table: "sales".into(),
            values: vec![Value::str("Nova Speaker"), Value::str("Q2 2024"), Value::Float(120.0)],
        },
        Delta::SemiFragment {
            collection: "orders".into(),
            json: r#"{"product": "Nova Speaker", "quarter": "Q2 2024", "units": 4}"#.into(),
        },
        Delta::GraphEntity { name: "Cobalt Labs".into(), kind: EntityKind::Organization },
        Delta::GraphEntity { name: "Nova Speaker".into(), kind: EntityKind::Product },
        Delta::GraphEdge {
            a: "Cobalt Labs".into(),
            b: "Nova Speaker".into(),
            kind: EdgeKind::RelatesTo("supplies".into()),
        },
    ]
}

fn tmp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("unisem-recovery-{}-{tag}", std::process::id()));
    p
}

fn remove_wal(base: &Path) {
    std::fs::remove_file(base).ok();
}

fn answers(engine: &UnifiedEngine) -> Vec<Answer> {
    QUERIES.iter().map(|q| engine.answer(q)).collect()
}

/// The never-crashed reference at a given thread count: reopen the base
/// snapshot and apply the full delta stream in order. (Delta application
/// order determines graph node-id assignment, so the reference must take
/// the same path as the crashed engine — base state plus the same
/// stream — not a from-scratch build.)
fn reference_answers(snap: &Path, deltas: &[Delta], threads: usize) -> Vec<Answer> {
    let (mut engine, _) =
        EngineBuilder::open_snapshot(snap, config(threads, FaultPlan::disabled()))
            .expect("open reference snapshot");
    for d in deltas {
        engine.ingest_delta(d.clone()).expect("reference ingest");
    }
    answers(&engine)
}

enum Crash {
    /// The append of delta `k` tears mid-frame.
    Append,
    /// Delta `k` is appended but the flush loses it.
    Flush,
}

#[test]
fn crash_matrix_recovers_byte_identically() {
    let deltas = delta_stream();
    let snap = tmp_path("matrix-base.usk");
    tiny_engine().save_snapshot(&snap).expect("save base snapshot");

    let reference: Vec<Vec<Answer>> =
        THREAD_COUNTS.iter().map(|&t| reference_answers(&snap, &deltas, t)).collect();
    for t in &reference {
        for a in t {
            assert!(a.trace.is_some(), "traces were opted in");
        }
    }

    let mut scenarios = 0usize;
    for crash in [Crash::Append, Crash::Flush] {
        for k in 0..deltas.len() {
            let tag = match crash {
                Crash::Append => format!("append-{k}"),
                Crash::Flush => format!("flush-{k}"),
            };
            let wal = tmp_path(&format!("{tag}.wal"));
            remove_wal(&wal);

            // Phase 1: a clean engine makes deltas[..k] durable.
            {
                let (mut engine, _, replayed) = EngineBuilder::open_snapshot_with_wal(
                    &snap,
                    &wal,
                    config(1, FaultPlan::disabled()),
                )
                .expect("phase-1 open");
                assert_eq!(replayed, 0, "{tag}: fresh log has nothing to replay");
                for d in &deltas[..k] {
                    engine.ingest_delta(d.clone()).expect("phase-1 ingest");
                }
            }

            // Phase 2: crash on delta k at the armed boundary.
            let site = match crash {
                Crash::Append => FaultSite::WalAppend,
                Crash::Flush => FaultSite::WalFlush,
            };
            {
                let (mut engine, _, replayed) = EngineBuilder::open_snapshot_with_wal(
                    &snap,
                    &wal,
                    config(1, FaultPlan::single(site)),
                )
                .expect("phase-2 open (replay does not touch the armed site)");
                assert_eq!(replayed, k, "{tag}: durable prefix replays");
                let seq_before = engine.applied_seq();
                match engine.ingest_delta(deltas[k].clone()) {
                    Err(EngineError::Store(StoreError::Fault(f))) => {
                        assert_eq!(f.site, site, "{tag}: fault at the armed site");
                    }
                    Err(other) => panic!("{tag}: expected injected fault, got {other}"),
                    Ok(_) => panic!("{tag}: armed boundary did not fire"),
                }
                assert_eq!(
                    engine.applied_seq(),
                    seq_before,
                    "{tag}: an unacknowledged delta must not advance the applied sequence"
                );
            }

            // Phase 3: recover the crash image at every thread count.
            // Recovery truncates torn tails and appends, so each run of it
            // gets its own copy of the crash image.
            let frozen = std::fs::read(&wal).expect("the crash image has a log");
            for &threads in &THREAD_COUNTS {
                let twal = tmp_path(&format!("{tag}-t{threads}.wal"));
                std::fs::write(&twal, &frozen).expect("copy the crash image");
                let (mut recovered, _, replayed) = EngineBuilder::open_snapshot_with_wal(
                    &snap,
                    &twal,
                    config(threads, FaultPlan::disabled()),
                )
                .expect("recovery open");
                assert_eq!(replayed, k, "{tag} at {threads} threads: exactly the durable prefix");
                assert_eq!(recovered.applied_seq(), k as u64);
                // Resubmit the lost delta and the rest of the stream —
                // the client's retry after a failed acknowledgement.
                for d in &deltas[k..] {
                    recovered.ingest_delta(d.clone()).expect("re-ingest after recovery");
                }
                let got = answers(&recovered);
                let want = &reference[THREAD_COUNTS.iter().position(|&t| t == threads).unwrap()];
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g, w, "{tag} at {threads} threads: answer diverged");
                }
                remove_wal(&twal);
            }
            remove_wal(&wal);
            scenarios += 1;
        }
    }
    assert_eq!(scenarios, 2 * deltas.len(), "full boundary matrix ran");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn checkpoint_crashes_recover_byte_identically() {
    let deltas = delta_stream();
    let snap = tmp_path("ckpt-base.usk");
    tiny_engine().save_snapshot(&snap).expect("save base snapshot");
    let reference = reference_answers(&snap, &deltas, 1);

    // Crash A: before the snapshot fold ("begin") — the checkpoint is a
    // no-op, the log stays authoritative.
    {
        let wal = tmp_path("ckpt-begin.wal");
        remove_wal(&wal);
        let ckpt = tmp_path("ckpt-begin.usk");
        std::fs::remove_file(&ckpt).ok();
        let (mut engine, _, _) = EngineBuilder::open_snapshot_with_wal(
            &snap,
            &wal,
            config(1, FaultPlan::single(FaultSite::WalCheckpoint)),
        )
        .expect("open");
        for d in &deltas {
            engine.ingest_delta(d.clone()).expect("ingest");
        }
        match engine.checkpoint(&ckpt) {
            Err(EngineError::Fault(f)) => {
                assert_eq!(f.site, FaultSite::WalCheckpoint);
                assert_eq!(f.key, "begin");
            }
            other => panic!("expected fault at checkpoint begin, got {other:?}"),
        }
        assert!(!ckpt.exists(), "begin-crash must not leave a partial checkpoint");
        drop(engine);
        let (recovered, _, replayed) =
            EngineBuilder::open_snapshot_with_wal(&snap, &wal, config(1, FaultPlan::disabled()))
                .expect("recover from old snapshot + intact log");
        assert_eq!(replayed, deltas.len(), "every delta replays from the log");
        for (g, w) in answers(&recovered).iter().zip(&reference) {
            assert_eq!(g, w, "begin-crash recovery diverged");
        }
        remove_wal(&wal);
    }

    // Crash B: after the snapshot fold, before log truncation
    // ("truncate") — the new snapshot already holds every delta, and
    // recovery must skip the now-stale log records by sequence number.
    {
        // A probabilistic plan whose decision hash spares "begin" but
        // fires at "truncate" — searched deterministically, so the
        // scenario is stable across runs.
        let plan = (0u64..10_000)
            .map(|s| FaultPlan::unset().with_seed(s).with_site(FaultSite::WalCheckpoint, 128))
            .find(|p| {
                !p.fires(FaultSite::WalCheckpoint, "begin")
                    && p.fires(FaultSite::WalCheckpoint, "truncate")
            })
            .expect("a seed separating the two checkpoint keys exists");
        let wal = tmp_path("ckpt-truncate.wal");
        remove_wal(&wal);
        let ckpt = tmp_path("ckpt-truncate.usk");
        std::fs::remove_file(&ckpt).ok();
        let (mut engine, _, _) =
            EngineBuilder::open_snapshot_with_wal(&snap, &wal, config(1, plan)).expect("open");
        for d in &deltas {
            engine.ingest_delta(d.clone()).expect("ingest");
        }
        match engine.checkpoint(&ckpt) {
            Err(EngineError::Store(StoreError::Fault(f))) => {
                assert_eq!(f.site, FaultSite::WalCheckpoint);
                assert_eq!(f.key, "truncate");
            }
            other => panic!("expected fault at checkpoint truncate, got {other:?}"),
        }
        assert!(ckpt.exists(), "the folded snapshot committed before the crash");
        assert!(Wal::exists(&wal), "truncate-crash leaves the stale log behind");
        drop(engine);
        let (recovered, _, replayed) =
            EngineBuilder::open_snapshot_with_wal(&ckpt, &wal, config(1, FaultPlan::disabled()))
                .expect("recover from folded snapshot + stale log");
        assert_eq!(replayed, 0, "stale records are skipped by sequence, not re-applied");
        assert_eq!(recovered.applied_seq(), deltas.len() as u64);
        for (g, w) in answers(&recovered).iter().zip(&reference) {
            assert_eq!(g, w, "truncate-crash recovery diverged");
        }
        remove_wal(&wal);
        std::fs::remove_file(&ckpt).ok();
    }
    std::fs::remove_file(&snap).ok();
}

/// A crash inside `Wal::create` leaves half a header at `<wal>.tmp` and
/// `<wal>` as it was (DESIGN.md §13b): at first enable, no log; at a
/// checkpoint's re-create, the stale log. Neither the leftover nor the
/// stale records change what recovery replays, and both reopen to answer
/// like the engine that never crashed.
#[test]
fn half_written_wal_create_recovers_byte_identically() {
    let deltas = delta_stream();
    let snap = tmp_path("torncreate-base.usk");
    tiny_engine().save_snapshot(&snap).expect("save base snapshot");
    let reference = reference_answers(&snap, &deltas, 1);
    let half_header = |wal: &Path| {
        let tmp = PathBuf::from(format!("{}.tmp", wal.display()));
        std::fs::write(&tmp, b"USKWAL01\0\0").expect("half a header");
        tmp
    };
    let quiet = || config(1, FaultPlan::disabled());

    // First enable: there is no log yet, so a fresh one is created.
    {
        let wal = tmp_path("torncreate-first.wal");
        remove_wal(&wal);
        let tmp = half_header(&wal);
        assert!(!Wal::exists(&wal), "a torn create is no log");
        let (mut recovered, _, replayed) =
            EngineBuilder::open_snapshot_with_wal(&snap, &wal, quiet()).expect("recover");
        assert_eq!(replayed, 0, "nothing to replay");
        assert!(!tmp.exists(), "the leftover was overwritten and renamed into place");
        for d in &deltas {
            recovered.ingest_delta(d.clone()).expect("ingest after recovery");
        }
        assert_eq!(answers(&recovered), reference, "first-enable recovery diverged");
        remove_wal(&wal);
    }

    // A checkpoint's re-create: the folded snapshot is in place and the
    // stale log was never replaced.
    {
        let wal = tmp_path("torncreate-ckpt.wal");
        remove_wal(&wal);
        let ckpt = tmp_path("torncreate-ckpt.usk");
        let (head, last) = deltas.split_at(deltas.len() - 1);
        let (mut engine, _, _) =
            EngineBuilder::open_snapshot_with_wal(&snap, &wal, quiet()).expect("open");
        for d in head {
            engine.ingest_delta(d.clone()).expect("ingest");
        }
        let stale = std::fs::read(&wal).expect("read log");
        engine.checkpoint(&ckpt).expect("checkpoint");
        drop(engine);
        std::fs::write(&wal, &stale).expect("the log the crashed re-create left");
        half_header(&wal);
        let (mut recovered, _, replayed) =
            EngineBuilder::open_snapshot_with_wal(&ckpt, &wal, quiet()).expect("recover");
        assert_eq!(replayed, 0, "the snapshot holds every delta of the stale log");
        assert_eq!(recovered.applied_seq(), head.len() as u64);
        let seq = recovered.ingest_delta(last[0].clone()).expect("ingest after recovery");
        assert_eq!(seq, deltas.len() as u64, "the log continues the snapshot's sequence");
        assert_eq!(answers(&recovered), reference, "checkpoint recovery diverged");
        drop(recovered);
        remove_wal(&wal);
        std::fs::remove_file(PathBuf::from(format!("{}.tmp", wal.display()))).ok();
        std::fs::remove_file(&ckpt).ok();
    }
    std::fs::remove_file(&snap).ok();
}

#[test]
fn mid_log_damage_is_refused_with_the_log_untouched() {
    let deltas = delta_stream();
    let snap = tmp_path("midlog-base.usk");
    let wal = tmp_path("midlog.wal");
    remove_wal(&wal);
    tiny_engine().save_snapshot(&snap).expect("save base snapshot");
    let quiet = || config(1, FaultPlan::disabled());
    let (mut engine, _, _) =
        EngineBuilder::open_snapshot_with_wal(&snap, &wal, quiet()).expect("open");
    for d in &deltas {
        engine.ingest_delta(d.clone()).expect("ingest");
    }
    drop(engine);
    // One flipped byte inside the 2nd record's payload: the four after it
    // were acknowledged, so recovery must refuse the log, not cut them off.
    let mut bytes = std::fs::read(&wal).expect("read log");
    let frame_at = |at: usize| {
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        at + 20 + len as usize
    };
    let second = frame_at(20);
    bytes[second + 20] ^= 0x01;
    std::fs::write(&wal, &bytes).expect("damage the log");
    match EngineBuilder::open_snapshot_with_wal(&snap, &wal, quiet()) {
        Err(EngineError::Store(StoreError::WalCorrupt(reason))) => {
            assert!(reason.contains(&format!("record seq 2 at offset {second}")), "{reason}")
        }
        Err(other) => panic!("expected a corrupt log, got {other}"),
        Ok(_) => panic!("a damaged mid-log record was accepted"),
    }
    assert_eq!(std::fs::read(&wal).expect("read log"), bytes, "the log is left as it was");
    remove_wal(&wal);
    std::fs::remove_file(&snap).ok();
}

#[test]
fn same_seed_delta_streams_write_byte_identical_segments() {
    let deltas = delta_stream();
    let snap = tmp_path("bytes-base.usk");
    tiny_engine().save_snapshot(&snap).expect("save base snapshot");

    // Thread count is the one knob that must never leak into the log
    // bytes: ingest the same stream at 1 and 4 threads, compare the logs.
    let mut images: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 4] {
        let wal = tmp_path(&format!("bytes-t{threads}.wal"));
        remove_wal(&wal);
        let (mut engine, _, _) = EngineBuilder::open_snapshot_with_wal(
            &snap,
            &wal,
            config(threads, FaultPlan::disabled()),
        )
        .expect("open");
        for d in &deltas {
            engine.ingest_delta(d.clone()).expect("ingest");
        }
        images.push(std::fs::read(&wal).expect("the stream produced a log"));
        remove_wal(&wal);
    }
    assert_eq!(images[0], images[1], "WAL bytes depend on thread count");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn estimates_track_post_delta_cardinalities() {
    let mut engine = tiny_engine();
    let question = "What was the total sales amount of Aero Widget across all quarters?";

    // The base-table scan's estimate is the table's row count, read when
    // the plan is costed, so its `rows~` figure is the stale-count canary.
    fn scan_line(engine: &UnifiedEngine, question: &str) -> String {
        let plan = engine
            .answer(question)
            .trace
            .expect("traces on")
            .plan
            .expect("analytical route planned");
        plan.lines()
            .find(|l| l.contains("Scan: sales"))
            .unwrap_or_else(|| panic!("no sales scan in plan:\n{plan}"))
            .to_string()
    }

    let rows = |engine: &UnifiedEngine, name: &str| {
        engine.db().table(name).map(|t| t.num_rows()).expect("registered table")
    };
    assert_eq!(rows(&engine, "sales"), 3);
    let before = scan_line(&engine, question);
    assert!(before.contains("rows~3"), "pre-delta scan estimates 3 rows: {before}");

    engine
        .ingest_deltas(&delta_stream())
        .expect("ingest the full stream (no WAL attached — in-memory path)");

    // The cost model reads the grown table, so the planner's explain
    // trace shows the new cardinality — never a stale count.
    assert_eq!(rows(&engine, "sales"), 4);
    assert_eq!(rows(&engine, "orders"), 2);
    let after = scan_line(&engine, question);
    assert!(after.contains("rows~4"), "post-delta scan estimates 4 rows: {after}");
    assert!(!after.contains("rows~3"), "stale cardinality leaked into the scan: {after}");
}
