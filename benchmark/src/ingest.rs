//! The `ingest_stream` workload, untraced: durable writes beside reads.
//!
//! Every round starts from the same built engine (a clone with a fresh
//! write-ahead log), so all rounds do identical work and the number of
//! rounds a time budget allows never changes what one sample measures.
//!
//! No snapshot is saved: `save_snapshot` fails with `TooLarge` on every
//! corpus of 64 products or more (README, "Findings"). The base state a
//! log is replayed onto is therefore a rebuild from the same inputs, which
//! the engine guarantees is the same state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use detkit::Rng;
use storekit::Wal;
use tracekit::wall::Stopwatch;
use unisem_core::{Answer, UnifiedEngine};
use unisem_workloads::{answer_matches, EcommerceWorkload};

use crate::inputs::{self, Rotation};
use crate::workload::{median_setup, run_rounds, Outcome, Round, Scale};

/// The generated inputs of an ingest run.
pub struct IngestInputs {
    pub corpus: EcommerceWorkload,
    /// Consecutive rotations; a round replays the first `per_round`.
    pub rotations: Vec<Rotation>,
}

/// The first `n` rotations of the seed's delta stream over `corpus`. A salt
/// keeps the stream independent of the corpus stream.
pub fn rotation_stream(corpus: &EcommerceWorkload, n: usize, seed: u64) -> Vec<Rotation> {
    inputs::rotations(corpus, 0, n, &mut Rng::new(seed ^ 0x00DE_17A5))
}

pub fn generate(products: usize, rotations: usize, seed: u64) -> IngestInputs {
    let corpus = inputs::corpus(products, seed);
    let rotations = rotation_stream(&corpus, rotations, seed);
    IngestInputs { corpus, rotations }
}

/// Bytes in the log's segment files.
pub fn wal_bytes(base: &Path) -> u64 {
    Wal::segment_paths(base).iter().map(|p| std::fs::metadata(p).map_or(0, |m| m.len())).sum()
}

pub fn remove_wal(base: &Path) {
    for segment in Wal::segment_paths(base) {
        std::fs::remove_file(segment).ok();
    }
}

/// True when the read saw its rotation's writes: it matches the new total
/// and not the old one.
pub fn read_is_fresh(rot: &Rotation, answer: &Answer) -> bool {
    answer_matches(&rot.gold, &answer.text) && !answer_matches(&rot.stale, &answer.text)
}

/// One round on `engine` (a fresh clone with its log attached): five deltas
/// then one read per rotation, each timed. Returns the round and the reads'
/// answers.
pub fn run_round(
    engine: &mut UnifiedEngine,
    rotations: &[Rotation],
) -> (Round, Vec<Option<Answer>>) {
    let mut round = Round::default();
    let mut reads = Vec::with_capacity(rotations.len());
    let wall = Stopwatch::start();
    for rot in rotations {
        for delta in &rot.deltas {
            let delta = delta.clone();
            let clock = Stopwatch::start();
            let acked = catch_unwind(AssertUnwindSafe(|| engine.ingest_delta(delta)));
            round.op_ns.push(clock.elapsed_ns());
            if !matches!(acked, Ok(Ok(_))) {
                round.failed += 1;
            }
        }
        let clock = Stopwatch::start();
        let answer = catch_unwind(AssertUnwindSafe(|| engine.answer(&rot.read))).ok();
        round.read_ns.push(clock.elapsed_ns());
        if !answer.as_ref().is_some_and(|a| read_is_fresh(rot, a)) {
            round.failed += 1;
        }
        reads.push(answer);
    }
    round.wall_ns = wall.elapsed_ns();
    (round, reads)
}

pub fn run(scale: Scale, seed: u64, seconds: f64, tmp: &Path) -> Outcome {
    let mut out = Outcome::default();
    let inp = generate(scale.products, scale.per_round, seed);
    let setup_wal = tmp.join("setup.wal");
    let round_wal = tmp.join("round.wal");
    let deltas = scale.per_round * 5;
    let delta_bytes: u64 =
        inp.rotations.iter().flat_map(|r| &r.deltas).map(inputs::delta_bytes).sum();
    let input_bytes = inputs::corpus_bytes(&inp.corpus) + delta_bytes;

    // Set-up as a user pays it before the first durable write: build, then
    // attach the log. The clone kept as every round's start is taken off
    // the clock, before the log is attached (clones share it).
    let base = median_setup(scale.setups, &mut out, || {
        let clock = Stopwatch::start();
        let mut engine = inputs::build_engine(&inp.corpus, inputs::engine_config(false));
        let built_ns = clock.elapsed_ns();
        let base = engine.clone();
        let clock = Stopwatch::start();
        engine.enable_wal(&setup_wal).expect("log attaches with faults off");
        let ns = built_ns + clock.elapsed_ns();
        remove_wal(&setup_wal);
        (base, ns)
    });
    out.notes.push(format!(
        "corpus: {} products, {} documents; a round = {deltas} deltas + {} reads on a fresh clone; \
         a set-up = build + enable_wal",
        scale.products,
        inp.corpus.documents.len(),
        scale.per_round,
    ));

    let fresh = |wal: &Path| {
        let mut engine = base.clone();
        engine.enable_wal(wal).expect("log attaches with faults off");
        engine
    };

    // Warm-up round, untimed, and the checks that need its files: what it
    // acknowledged must survive a reopen from the inputs and the log alone.
    let mut live = fresh(&round_wal);
    let (warm_up, reference) = run_round(&mut live, &inp.rotations);
    out.check(warm_up.failed == 0, || format!("{} warm-up operations failed", warm_up.failed));
    out.check(live.applied_seq() == deltas as u64, || {
        format!("applied_seq {} after {deltas} deltas", live.applied_seq())
    });
    let log_bytes = wal_bytes(&round_wal);
    let index_bytes = live.index_bytes();
    let mut reopened = inputs::build_engine(&inp.corpus, inputs::engine_config(false));
    match reopened.enable_wal(&round_wal) {
        Ok(replayed) => {
            out.check(replayed == deltas && reopened.applied_seq() == live.applied_seq(), || {
                format!(
                    "reopen replayed {replayed} of {deltas} deltas to seq {}",
                    reopened.applied_seq()
                )
            });
            let same =
                inp.rotations.iter().all(|r| reopened.answer(&r.read) == live.answer(&r.read));
            out.check(same, || "reopened engine answers the probe set differently".to_string());
            out.notes.push(format!(
                "recovery: a rebuild + the log replayed {replayed} deltas; {} probe answers compared",
                inp.rotations.len()
            ));
        }
        Err(e) => out.broken.push(format!("reopening the log failed: {e}")),
    }
    drop(reopened);
    drop(live);
    remove_wal(&round_wal);

    let rounds = run_rounds(seconds, scale.min_rounds, || {
        let mut engine = fresh(&round_wal);
        let (mut round, reads) = run_round(&mut engine, &inp.rotations);
        // Round N equals round 1, and the log holds the same bytes.
        if reads != reference || wal_bytes(&round_wal) != log_bytes {
            round.failed += 1;
        }
        drop(engine);
        remove_wal(&round_wal);
        round
    });
    out.attempted = rounds.attempted();
    out.failed = rounds.failed();
    rounds.report(deltas + scale.per_round, &mut out);

    let fresh_reads = inp
        .rotations
        .iter()
        .zip(&reference)
        .filter(|(r, a)| a.as_ref().is_some_and(|a| read_is_fresh(r, a)));
    out.metrics.set("answer_accuracy", fresh_reads.count() as f64 / inp.rotations.len() as f64);
    out.metrics.set("index_bytes_per_input_byte", index_bytes as f64 / input_bytes as f64);
    out.notes.push(format!(
        "log: {log_bytes} bytes for {delta_bytes} delta input bytes ({:.4} B/B; traced runs report it as \
         storekit.wal_bytes_per_input_byte)",
        log_bytes as f64 / delta_bytes as f64
    ));
    out
}
