//! The question-answering workloads, untraced: `structured_qa`,
//! `retrieval_qa` and `mixed_batch`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use detkit::Rng;
use tracekit::wall::Stopwatch;
use unisem_core::{Answer, UnifiedEngine};
use unisem_workloads::{answer_matches, EcommerceWorkload, QaCategory, QaItem};

use crate::inputs;
use crate::workload::{median_setup, run_rounds, Outcome, Round, Scale};

/// The generated inputs of a QA run.
pub struct QaInputs {
    pub corpus: EcommerceWorkload,
    /// One round's questions, `batch` per operation, in operation order.
    pub questions: Vec<QaItem>,
}

pub fn generate(mix: &[QaCategory], batch: usize, scale: Scale, seed: u64) -> QaInputs {
    let corpus = inputs::corpus(scale.products, seed);
    // A salt keeps the question stream independent of the corpus stream.
    let mut rng = Rng::new(seed ^ 0x0051_7E57_1045);
    let questions = inputs::draw_questions(&corpus, mix, scale.per_round * batch, &mut rng);
    QaInputs { corpus, questions }
}

/// One operation: a single `answer()`, or one `answer_batch()` call.
pub fn run_op(engine: &UnifiedEngine, questions: &[QaItem]) -> Vec<Answer> {
    match questions {
        [one] => vec![engine.answer(&one.question)],
        many => {
            let texts: Vec<&str> = many.iter().map(|q| q.question.as_str()).collect();
            engine.answer_batch(&texts)
        }
    }
}

/// Runs every operation of a round once, timing each; an operation fails
/// when it panics or any of its answers differs from the reference.
pub fn run_round(
    engine: &UnifiedEngine,
    questions: &[QaItem],
    batch: usize,
    reference: &[Answer],
) -> Round {
    let mut round = Round::default();
    let wall = Stopwatch::start();
    for (op, want) in questions.chunks(batch).zip(reference.chunks(batch)) {
        let clock = Stopwatch::start();
        let got = catch_unwind(AssertUnwindSafe(|| run_op(engine, op)));
        round.op_ns.push(clock.elapsed_ns());
        if !got.is_ok_and(|answers| answers == want) {
            round.failed += 1;
        }
    }
    round.wall_ns = wall.elapsed_ns();
    round
}

/// Share of answers that match their question's gold answer.
pub fn accuracy(questions: &[QaItem], answers: &[Answer]) -> f64 {
    let right =
        questions.iter().zip(answers).filter(|(q, a)| answer_matches(&q.gold, &a.text)).count();
    right as f64 / questions.len() as f64
}

pub fn run(mix: &[QaCategory], batch: usize, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let inp = generate(mix, batch, scale, seed);
    let input_bytes = inputs::corpus_bytes(&inp.corpus);

    let engine = median_setup(scale.setups, &mut out, || {
        let clock = Stopwatch::start();
        let engine = inputs::build_engine(&inp.corpus, inputs::engine_config(false));
        let ns = clock.elapsed_ns();
        (engine, ns)
    });
    out.notes.push(format!(
        "corpus: {} products, {} documents, {input_bytes} input bytes; a set-up feeds and builds the engine",
        scale.products,
        inp.corpus.documents.len(),
    ));

    // The reference every later answer must equal: each question through a
    // serial `answer()`. For single-answer workloads this is also round 1
    // of "round 1 equals round N"; for batches it is the serial side of
    // "answer_batch equals serial".
    let reference: Vec<Answer> = inp.questions.iter().map(|q| engine.answer(&q.question)).collect();
    let warm_up = run_round(&engine, &inp.questions, batch, &reference);
    out.check(warm_up.failed == 0, || {
        format!("{} warm-up operations differ from the serial reference", warm_up.failed)
    });

    let rounds = run_rounds(seconds, scale.min_rounds, || {
        run_round(&engine, &inp.questions, batch, &reference)
    });
    out.attempted = rounds.attempted();
    out.failed = rounds.failed();
    rounds.report(scale.per_round, &mut out);
    out.metrics.set("answer_accuracy", accuracy(&inp.questions, &reference));
    out.metrics.set("index_bytes_per_input_byte", engine.index_bytes() as f64 / input_bytes as f64);
    out
}
