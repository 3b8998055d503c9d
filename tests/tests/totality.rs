//! Totality: nothing reachable from the engine's public API panics on
//! hostile input. clippy proves the panic-free crates call no `unwrap`,
//! `expect` or `panic!`; it cannot see an index, a slice or an arithmetic
//! overflow. These two detkit properties can:
//!
//! 1. **Questions.** `UnifiedEngine::answer` returns for every workload
//!    question mutated with the characters that break case folding and
//!    byte arithmetic — the Kelvin sign, `İ`, combining marks, NUL, the
//!    SQL wildcards `%` and `_` — and with arbitrary code points.
//! 2. **Snapshots.** A snapshot whose section payloads were flipped,
//!    zeroed or overwritten with runs of `0xFF`, each frame's checksum
//!    recomputed so the section decoders see the damage, opens to a typed
//!    error or to an engine that answers every workload question. One
//!    byte appended to any section is always a typed error.
//!
//! A panic inside a property is a falsified case: detkit prints its seed
//! and a shrunk counterexample. ci.sh runs both at `DETKIT_CASES=1024`.

use std::cell::Cell;
use std::path::PathBuf;

use detkit::prop::{check, check_with, one_of, u32s, usizes, vec_of, zip, zip3, Config, Gen};
use storekit::{Snapshot, SnapshotWriter, StoreError};
use unisem_core::{EngineBuilder, EngineConfig, EngineError, FaultPlan, UnifiedEngine};
use unisem_slm::Lexicon;
use unisem_workloads::ecommerce::DocSpec;
use unisem_workloads::{
    EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload, QaItem,
};

/// The snapshot's sections, in file order (DESIGN.md §12d).
const SECTIONS: [&str; 7] = ["config", "lexicon", "docs", "tables", "graph", "ingest", "walmeta"];

/// Pieces a question edit writes, besides arbitrary code points: the
/// Kelvin sign and `İ` (whose lower-case forms change length), combining
/// marks alone and after a letter, NUL, and the LIKE wildcards.
const PIECES: &[&str] =
    &["\u{212a}", "\u{130}", "\u{301}", "e\u{308}", "\u{20dd}", "\0", "%", "_", "%_%"];

struct Workload {
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
        Workload { lexicon: e.lexicon, db: e.db, semi: e.semi, documents: e.documents, qa: e.qa },
        Workload { lexicon: h.lexicon, db: h.db, semi: h.semi, documents: h.documents, qa: h.qa },
    ]
}

/// Faults disabled, so a case's outcome is a function of its seed alone,
/// whatever `UNISEM_FAULTS` the surrounding run has armed.
fn config() -> EngineConfig {
    EngineConfig { seed: 0xABCD_1234, faults: FaultPlan::disabled(), ..EngineConfig::default() }
}

fn build(w: &Workload) -> UnifiedEngine {
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), config());
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

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("unisem-totality-{}-{tag}.usk", std::process::id()))
}

/// What one question edit writes: a piece of [`PIECES`] or any code point
/// (a surrogate becomes U+FFFD).
fn piece() -> Gen<String> {
    one_of(vec![
        usizes(0, PIECES.len() - 1).map(|&i| PIECES[i].to_string()),
        u32s(0, 0x10_FFFF).map(|&c| char::from_u32(c).unwrap_or('\u{FFFD}').to_string()),
    ])
}

/// Applies `(op, at, piece)` edits in order: op 0 inserts `piece` before
/// char `at`, op 1 replaces char `at` with it, op 2 deletes char `at`
/// (`at` wraps to the current length; past the end, 1 and 2 append).
fn mutate(question: &str, edits: &[(usize, usize, String)]) -> String {
    let mut chars: Vec<char> = question.chars().collect();
    for (op, at, piece) in edits {
        let at = at % (chars.len() + 1);
        let end = (at + 1).min(chars.len());
        match op {
            0 => drop(chars.splice(at..at, piece.chars())),
            1 => drop(chars.splice(at..end, piece.chars())),
            _ => drop(chars.drain(at..end)),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_questions_never_panic() {
    let workloads = workloads();
    let engines: Vec<UnifiedEngine> = workloads.iter().map(build).collect();
    let questions: Vec<(usize, &str)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(e, w)| w.qa.iter().map(move |item| (e, item.question.as_str())))
        .collect();
    let edit = zip3(&usizes(0, 2), &usizes(0, 1 << 10), &piece());
    let gen = zip(&usizes(0, questions.len() - 1), &vec_of(&edit, 1, 8));
    check("mutated_questions_never_panic", &gen, |(q, edits)| {
        let (engine, question) = questions[*q];
        engines[engine].answer(&mutate(question, edits));
        Ok(())
    });
}

/// One snapshot edit: `(section, kind, at, len)`. Kind 0 flips a bit in
/// each of `len` bytes, 1 zeroes them, 2 sets them to `0xFF`; `at` wraps
/// to the section's length.
type SnapEdit = (usize, usize, usize, usize);

fn corrupt(section: &mut [u8], (_, kind, at, len): SnapEdit) {
    if section.is_empty() {
        return;
    }
    let at = at % section.len();
    let end = (at + len).min(section.len());
    for byte in &mut section[at..end] {
        *byte = match kind {
            0 => *byte ^ (1 << (len % 8)),
            1 => 0,
            _ => 0xFF,
        };
    }
}

/// A corrupted-snapshot case: a workload of `workloads` and one to four
/// edits.
fn snapshot_cases(workloads: usize) -> Gen<(usize, Vec<SnapEdit>)> {
    let edit = zip(
        &zip(&usizes(0, SECTIONS.len() - 1), &usizes(0, 2)),
        &zip(&usizes(0, 1 << 20), &usizes(1, 16)),
    )
    .map(|((s, k), (a, l))| (*s, *k, *a, *l));
    zip(&usizes(0, workloads - 1), &vec_of(&edit, 1, 4))
}

const SNAPSHOT_PROPERTY: &str = "corrupted_snapshots_open_to_typed_errors_or_answering_engines";

/// Every seed `totality.regressions` pins for [`SNAPSHOT_PROPERTY`], with
/// the workload it corrupts (0 e-commerce, 1 healthcare) and the sections
/// its edits land in, by name.
const PINNED: &[(u64, usize, &[&str])] = &[(0x22750c52f35330f3, 1, &["tables"])];

/// A case's edits pick their section by index into [`SECTIONS`], so a
/// change to the sections or to the case generator retargets every pinned
/// seed: this fails then, naming the seed, instead of the seed silently
/// testing another section.
#[test]
fn pinned_snapshot_seeds_land_in_their_sections() {
    let seeds = detkit::file_regressions!("totality.regressions", SNAPSHOT_PROPERTY);
    assert_eq!(seeds, PINNED.iter().map(|p| p.0).collect::<Vec<_>>(), "a seed not named here");
    let cases = snapshot_cases(workloads().len());
    for &(seed, workload, sections) in PINNED {
        let (w, edits) = cases.generate(&mut detkit::Rng::new(seed)).value().clone();
        let mut hit: Vec<&str> = edits.iter().map(|e| SECTIONS[e.0]).collect();
        hit.sort_unstable();
        hit.dedup();
        assert_eq!((w, hit.as_slice()), (workload, sections), "seed {seed:#x} moved");
    }
}

#[test]
fn corrupted_snapshots_open_to_typed_errors_or_answering_engines() {
    let workloads = workloads();
    let clean: Vec<Snapshot> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let path = tmp_path(&format!("clean-{i}"));
            build(w).save_snapshot(&path).expect("save");
            let snap = Snapshot::open(&path).expect("open");
            std::fs::remove_file(&path).ok();
            snap
        })
        .collect();
    let forged = tmp_path("forged");
    let (rejected, answered) = (Cell::new(0u32), Cell::new(0u32));
    let gen = snapshot_cases(workloads.len());
    let cfg = Config::default()
        .with_regressions(detkit::file_regressions!("totality.regressions", SNAPSHOT_PROPERTY));
    check_with(&cfg, SNAPSHOT_PROPERTY, &gen, |(w, edits)| {
        let mut writer = SnapshotWriter::create(&forged, FaultPlan::disabled())
            .map_err(|e| format!("create: {e}"))?;
        for (s, name) in SECTIONS.iter().enumerate() {
            let mut bytes = clean[*w].section(name).expect("saved section").to_vec();
            for edit in edits.iter().filter(|e| e.0 == s) {
                corrupt(&mut bytes, *edit);
            }
            writer.add_section(name, &bytes).map_err(|e| format!("add: {e}"))?;
        }
        writer.commit(&forged).map_err(|e| format!("commit: {e}"))?;
        match EngineBuilder::open_snapshot(&forged, config()) {
            Err(_) => rejected.set(rejected.get() + 1),
            Ok((engine, _)) => {
                for item in &workloads[*w].qa {
                    engine.answer(&item.question);
                }
                answered.set(answered.get() + 1);
            }
        }
        Ok(())
    });
    std::fs::remove_file(&forged).ok();
    // Both outcomes occur, so neither half of the property is vacuous.
    let (rejected, answered) = (rejected.get(), answered.get());
    assert!(rejected > 0 && answered > 0, "{rejected} rejected, {answered} answered");
}

/// A section one byte longer than its encoder wrote, checksum recomputed,
/// is a typed decode error from every section decoder — never an engine
/// opened from bytes it did not read.
#[test]
fn a_section_with_trailing_bytes_is_rejected() {
    let w = &workloads()[0];
    let path = tmp_path("trailing-clean");
    build(w).save_snapshot(&path).expect("save");
    let clean = Snapshot::open(&path).expect("open");
    std::fs::remove_file(&path).ok();
    let forged = tmp_path("trailing");
    for longer in SECTIONS {
        let mut writer = SnapshotWriter::create(&forged, FaultPlan::disabled()).expect("create");
        for name in SECTIONS {
            let mut bytes = clean.section(name).expect("saved section").to_vec();
            if name == longer {
                bytes.push(0);
            }
            writer.add_section(name, &bytes).expect("add");
        }
        writer.commit(&forged).expect("commit");
        match EngineBuilder::open_snapshot(&forged, config()) {
            Err(EngineError::Store(StoreError::Decode(_) | StoreError::InvalidSnapshot(_))) => {}
            Err(e) => panic!("section {longer:?} with a trailing byte: untyped error {e}"),
            Ok(_) => panic!("section {longer:?} with a trailing byte opened"),
        }
    }
    std::fs::remove_file(&forged).ok();
}
