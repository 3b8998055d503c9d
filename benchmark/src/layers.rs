//! Traced mode: the per-layer metrics.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! layer's public functions — the engine itself is not instrumented by this
//! benchmark. One round of the workload's operations is replayed through
//! standalone layer objects built over the engine's public `db()`,
//! `docs()`, `graph()` and `slm()`, in the order the engine's answer path
//! calls them; counts come from the engine's own meters and reports. Every
//! traced run also builds layer by layer and runs a short ingest stream, so
//! each per-layer metric is live on each workload.

use std::path::Path;
use std::sync::Arc;

use parkit::Pool;
use storekit::Wal;
use tracekit::wall::Stopwatch;
use unisem_core::evidence::{extract_evidence_grounded, to_supported_answers};
use unisem_core::{Answer, Delta, FaultPlan, Route, UnifiedEngine};
use unisem_entropy::EntropyEstimator;
use unisem_extract::TableGenerator;
use unisem_hetgraph::algo::pagerank;
use unisem_hetgraph::GraphBuilder;
use unisem_relstore::ExecLimits;
use unisem_retrieval::{ChunkRetriever, DenseRetriever, LexicalRetriever, TopologyRetriever};
use unisem_semops::{IntentParser, OperatorSynthesizer};
use unisem_slm::{GenConfig, SupportedAnswer};
use unisem_text::{chunk_sentences, Bm25Index};
use unisem_workloads::{EcommerceWorkload, QaCategory, QaItem};

use crate::ingest::{read_is_fresh, wal_bytes};
use crate::inputs::{self, Rotation};
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::{self, ms, ratio, us};
use crate::workload::{Outcome, Scale, Shape, Spec};
use crate::{ingest, qa};

/// Questions the batch-against-serial comparison replays at most.
const BATCH_SECTION_QUESTIONS: usize = 400;
/// Questions per `answer_batch` call in that comparison.
const BATCH_SECTION_WIDTH: usize = 8;
/// Fork-joins timed for `parkit.fork_join_us`.
const FORK_JOINS: usize = 200;

/// Mean self time per operation of the spans called `name`, in microseconds.
fn self_us_per_op(rec: &Recorder, name: &str, ops: usize) -> f64 {
    ratio(us(rec.self_ns(name)), ops as f64)
}

/// Median duration of the spans called `name`, in nanoseconds (0 if none).
fn median_ns(rec: &Recorder, name: &str) -> u64 {
    stats::percentile(&rec.durations(name), 50.0).unwrap_or(0)
}

/// Builds layer by layer over the corpus, one span per layer.
fn build_replay(w: &EcommerceWorkload, engine: &UnifiedEngine, rec: &mut Recorder, m: &mut Values) {
    let slm = engine.slm().clone();
    let docs = engine.docs();
    let n_docs = w.documents.len() as f64;

    rec.span("semistore.flatten", 0, || {
        for coll in w.semi.collections() {
            std::hint::black_box(w.semi.to_table(coll).expect("generated collections flatten"));
        }
    });
    m.set("semistore.flatten_ms", ms(rec.self_ns("semistore.flatten")));

    let chunks = rec.span("docstore.chunk", 0, || {
        w.documents
            .iter()
            .map(|d| chunk_sentences(&d.text, docs.chunk_config()).len())
            .sum::<usize>()
    });
    m.set("docstore.chunk_ms", ms(rec.self_ns("docstore.chunk")));
    m.set("docstore.chunks", chunks as f64);

    rec.span("text.bm25_build", 0, || {
        let mut index = Bm25Index::default();
        for chunk in docs.chunks() {
            index.add_document(&chunk.text);
        }
        std::hint::black_box(index.len())
    });
    m.set("text.bm25_build_ms", ms(rec.self_ns("text.bm25_build")));

    rec.span("slm.ner", 0, || {
        for d in &w.documents {
            std::hint::black_box(slm.tag_entities(&d.text));
        }
    });
    m.set("slm.ner_us_per_doc", ratio(us(rec.self_ns("slm.ner")), n_docs));

    rec.span("slm.embed", 0, || {
        for chunk in docs.chunks() {
            std::hint::black_box(slm.embed(&chunk.text));
        }
    });
    m.set("slm.embed_us_per_chunk", ratio(us(rec.self_ns("slm.embed")), docs.num_chunks() as f64));

    let texts: Vec<&str> = w.documents.iter().map(|d| d.text.as_str()).collect();
    let rows = rec.span("extract.tablegen", 0, || {
        let (table, _) = TableGenerator::new(slm.clone())
            .generate_table(&texts)
            .expect("generated documents extract");
        table.num_rows()
    });
    m.set("extract.tablegen_ms", ms(rec.self_ns("extract.tablegen")));
    m.set("extract.rows_per_doc", ratio(rows as f64, n_docs));

    let (graph, graph_stats) = rec.span("hetgraph.build", 0, || {
        let mut gb = GraphBuilder::new(slm.clone());
        gb.add_docstore(docs);
        for name in engine.db().table_names() {
            if name != "extracted" {
                gb.add_table(name, engine.db().table(name).expect("listed table exists"));
            }
        }
        gb.finish()
    });
    m.set("hetgraph.build_ms", ms(rec.self_ns("hetgraph.build")));
    m.set("hetgraph.nodes", graph_stats.nodes as f64);
    m.set("hetgraph.edges", graph_stats.edges as f64);

    let topology = engine.config().topology;
    rec.span("hetgraph.pagerank", 0, || {
        std::hint::black_box(pagerank(&graph, topology.damping, topology.iterations))
    });
    m.set("hetgraph.pagerank_ms", ms(rec.self_ns("hetgraph.pagerank")));

    // The engine's own clocks for the same build, as a cross-check.
    let timing = engine.timing_report();
    for (metric, stage) in [
        ("core.build_extract_ms", "build.extract"),
        ("core.build_graph_ms", "build.graph"),
        ("core.build_dense_ms", "build.dense"),
        ("core.build_stats_ms", "build.stats"),
    ] {
        m.set(metric, ms(timing.total_ns(stage).unwrap_or(0)));
    }
}

/// The layer objects of the answer path, standing alone.
struct Layers {
    parser: IntentParser,
    synthesizer: OperatorSynthesizer,
    lexical: LexicalRetriever,
    topology: TopologyRetriever,
    dense: DenseRetriever,
    estimator: EntropyEstimator,
}

impl Layers {
    fn over(engine: &UnifiedEngine) -> Layers {
        let config = engine.config();
        let slm = engine.slm().clone();
        let docs = Arc::new(engine.docs().clone());
        let graph = Arc::new(engine.graph().clone());
        let mut topo_config = config.topology;
        topo_config.max_frontier =
            topo_config.max_frontier.min(config.governors.max_traversal_frontier);
        let mut estimator = EntropyEstimator::new(slm.clone());
        estimator.n_samples = config.entropy_samples;
        estimator.temperature = config.entropy_temperature;
        Layers {
            parser: IntentParser::new(slm.clone()),
            synthesizer: OperatorSynthesizer::new(),
            lexical: LexicalRetriever::new(docs.clone()),
            topology: TopologyRetriever::new(slm.clone(), graph, docs.clone(), topo_config),
            dense: DenseRetriever::build_with_pool(slm.clone(), &docs, config.parallel.pool()),
            estimator,
        }
    }
}

/// Work counted while replaying, beside the spans.
#[derive(Default)]
struct ReplayCounts {
    tables_tried: u64,
    plans: u64,
    rows_scanned: u64,
    result_rows: u64,
    retrievals: u64,
    frontier_capped: u64,
    dense_compared: u64,
    samples: u64,
    /// Replays whose entropy report differs from the engine's own.
    diverged: u64,
}

/// Replays one question through the standalone layers in the order the
/// engine's answer path calls them. `real` is the engine's answer to the
/// same question: it says where the structured rung stopped and what the
/// entropy report must come out as.
fn replay_question(
    engine: &UnifiedEngine,
    layers: &Layers,
    op: u64,
    question: &str,
    real: &Answer,
    rec: &mut Recorder,
    counts: &mut ReplayCounts,
) {
    let config = engine.config();
    let db = engine.db();
    let whole = rec.enter("op.replay", op);
    let intent = rec.span("semops.parse", op, || layers.parser.analyze(question));

    let hit = match &real.route {
        Route::Structured { table } => Some(table.as_str()),
        _ => None,
    };
    if !intent.is_plain_lookup() {
        // Every table is planned up front, native tables first; plans then
        // run in that order until one carries signal.
        let mut names = db.table_names();
        names.sort_by_key(|n| (*n == "extracted", *n));
        let plans: Vec<_> = names
            .iter()
            .map(|name| {
                rec.span("semops.synthesize", op, || {
                    layers.synthesizer.synthesize(&intent, db, name).ok()
                })
            })
            .collect();
        counts.tables_tried += names.len() as u64;
        let limits = ExecLimits { max_join_rows: config.governors.max_join_rows };
        for (name, plan) in names.iter().zip(&plans) {
            if let Some(plan) = plan {
                counts.plans += 1;
                let (result, stats) =
                    rec.span("relstore.exec", op, || db.run_plan_with_limits_stats(plan, &limits));
                counts.rows_scanned += stats.rows_scanned as u64;
                counts.result_rows += result.map_or(0, |t| t.num_rows()) as u64;
            }
            if hit == Some(*name) {
                break;
            }
        }
    }

    let supported = if hit.is_some() {
        vec![SupportedAnswer::new(real.text.clone(), 6.0)]
    } else {
        let k = config.retrieval_top_k;
        counts.retrievals += 1;
        // The lexical scan also runs inside the topology retriever's
        // fusion; alone it shows how much of that span is BM25.
        rec.span("retrieval.bm25", op, || {
            std::hint::black_box(layers.lexical.retrieve(question, (k * 4).max(20)))
        });
        let (hits, stats) =
            rec.span("retrieval.topology", op, || layers.topology.retrieve_with_stats(question, k));
        counts.frontier_capped += stats.frontier_capped as u64;
        // With faults off the engine never takes its dense fallback; the
        // scan is timed so a change to it has a number.
        rec.span("retrieval.dense", op, || {
            std::hint::black_box(layers.dense.retrieve(question, k))
        });
        counts.dense_compared += layers.dense.len() as u64;
        let triples: Vec<(usize, String, f64)> = hits
            .iter()
            .filter_map(|h| {
                engine.docs().chunk(h.chunk_id).ok().map(|c| (c.id, c.text.clone(), h.score))
            })
            .collect();
        let evidence = rec.span("core.evidence", op, || {
            extract_evidence_grounded(question, &triples, 6, &intent.entities)
        });
        to_supported_answers(&evidence)
    };

    let estimate = rec.enter("entropy.estimate", op);
    let gen = GenConfig {
        n_samples: layers.estimator.n_samples,
        temperature: layers.estimator.temperature,
        paraphrase: true,
        ..GenConfig::default()
    };
    let generations =
        rec.span("slm.generate", op, || engine.slm().sample_answers(question, &supported, &gen));
    let report = layers.estimator.measure_generations(&generations);
    rec.exit(estimate);
    counts.samples += generations.len() as u64;
    if report != real.entropy {
        counts.diverged += 1;
    }
    rec.exit(whole);
}

/// Answers each question three ways, interleaved so all three see the same
/// machine: plainly, inside a bench-side span, and on an engine with explain
/// traces on. Returns the plain answers, the traced ones, and the per-op
/// latencies of each way.
fn answer_three_ways(
    plain: &UnifiedEngine,
    traced: &UnifiedEngine,
    questions: &[QaItem],
    batch: usize,
    rec: &mut Recorder,
) -> (Vec<Answer>, Vec<Answer>, [Vec<u64>; 3]) {
    let mut plain_answers = Vec::with_capacity(questions.len());
    let mut traced_answers = Vec::with_capacity(questions.len());
    let mut ns: [Vec<u64>; 3] = Default::default();
    for (i, op) in questions.chunks(batch).enumerate() {
        let clock = Stopwatch::start();
        plain_answers.extend(qa::run_op(plain, op));
        ns[0].push(clock.elapsed_ns());

        let clock = Stopwatch::start();
        std::hint::black_box(rec.span("op.engine", i as u64, || qa::run_op(plain, op)));
        ns[1].push(clock.elapsed_ns());

        let clock = Stopwatch::start();
        traced_answers.extend(qa::run_op(traced, op));
        ns[2].push(clock.elapsed_ns());
    }
    (plain_answers, traced_answers, ns)
}

/// Sections B and E: the three-way answering, the engine's own counters
/// and stage clocks, and the layer replay of every question.
fn query_sections(
    w: &EcommerceWorkload,
    engine: &UnifiedEngine,
    questions: &[QaItem],
    batch: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let traced_engine = inputs::build_engine(w, inputs::engine_config(true));
    // Warm both engines before anything is timed.
    for op in questions.chunks(batch) {
        qa::run_op(engine, op);
        qa::run_op(&traced_engine, op);
    }
    let before = engine.metrics_report();
    let (answers, traced_answers, ns) =
        answer_three_ways(engine, &traced_engine, questions, batch, rec);
    let after = engine.metrics_report();
    let n = questions.len();

    // Explain traces must not change answers.
    let untraced: Vec<Answer> =
        traced_answers.iter().cloned().map(|a| Answer { trace: None, ..a }).collect();
    out.failed += answers.iter().zip(&untraced).filter(|(a, b)| a != b).count() as u64;
    // Per-query meters, read from the explain trace of each answer.
    let meters: Vec<_> = traced_answers.iter().filter_map(|a| a.trace.as_ref()?.meter).collect();
    out.check(meters.len() == n, || {
        format!("{} of {n} traced answers carry a meter", meters.len())
    });

    let m = &mut out.metrics;
    let p50 = |ns: &[u64]| stats::percentile(ns, 50.0).expect("at least one operation") as f64;
    m.set("unibench.span_overhead_share", p50(&ns[1]) / p50(&ns[0]) - 1.0);
    m.set("tracekit.trace_overhead_share", p50(&ns[2]) / p50(&ns[0]) - 1.0);
    let per_op = |f: fn(&tracekit::ResourceMeter) -> u64| {
        meters.iter().map(f).sum::<u64>() as f64 / n as f64
    };
    m.set("slm.calls_per_op", per_op(|r| r.slm_calls));
    m.set("entropy.samples_per_op", per_op(|r| r.slm_samples));
    m.set("retrieval.postings_scanned_per_op", per_op(|r| r.postings_scanned));
    m.set("retrieval.nodes_popped_per_op", per_op(|r| r.nodes_popped));

    // Engine counters over exactly the plain and spanned passes.
    let delta = |name: &str| (after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0)) as f64;
    let answered = delta("query.answered");
    m.set("core.structured_hit_share", ratio(delta("query.structured_hits"), answered));
    m.set("core.degradations_per_op", ratio(delta("query.degradations"), answered));
    m.set("entropy.abstain_share", ratio(delta("query.abstained"), answered));

    // Engine stage clocks: medians over every answer this engine has given.
    let timing = engine.timing_report();
    for (metric, stage) in [
        ("core.answer_structured_us", "answer.structured"),
        ("core.answer_retrieval_us", "answer.retrieval"),
        ("core.answer_entropy_us", "answer.entropy"),
    ] {
        m.set(metric, us(stats::percentile(timing.samples_of(stage), 50.0).unwrap_or(0)));
    }

    let layers = Layers::over(engine);
    let mut counts = ReplayCounts::default();
    for (i, (q, real)) in questions.iter().zip(&answers).enumerate() {
        replay_question(engine, &layers, i as u64, &q.question, real, rec, &mut counts);
    }
    out.attempted += n as u64;
    out.failed += counts.diverged;
    for (metric, span) in [
        ("semops.parse_us", "semops.parse"),
        ("semops.synthesize_us", "semops.synthesize"),
        ("relstore.exec_us", "relstore.exec"),
        ("retrieval.bm25_us", "retrieval.bm25"),
        ("retrieval.topology_us", "retrieval.topology"),
        ("retrieval.dense_us", "retrieval.dense"),
        ("core.evidence_us", "core.evidence"),
    ] {
        m.set(metric, self_us_per_op(rec, span, n));
    }
    // Sampling is a child span of the estimate, so the estimate's time is
    // both together.
    let estimate_ns = rec.self_ns("entropy.estimate") + rec.self_ns("slm.generate");
    m.set("entropy.estimate_us", ratio(us(estimate_ns), n as f64));
    m.set(
        "slm.generate_us_per_sample",
        ratio(us(rec.self_ns("slm.generate")), counts.samples as f64),
    );
    m.set("semops.synth_success_share", ratio(counts.plans as f64, counts.tables_tried as f64));
    m.set(
        "relstore.rows_scanned_per_result_row",
        ratio(counts.rows_scanned as f64, counts.result_rows as f64),
    );
    m.set(
        "retrieval.frontier_capped_share",
        ratio(counts.frontier_capped as f64, counts.retrievals as f64),
    );
    m.set("retrieval.dense_compared_per_op", counts.dense_compared as f64 / n as f64);
    out.notes.push(format!(
        "replay: {n} questions through standalone layers ({} reached retrieval, {} plans run); \
         {} entropy reports differ from the engine's",
        counts.retrievals, counts.plans, counts.diverged
    ));
}

/// Section C: the same questions through `answer_batch` and through serial
/// `answer`, and the bare cost of one fork-join.
fn batch_section(engine: &UnifiedEngine, questions: &[QaItem], m: &mut Values) {
    let texts: Vec<&str> =
        questions.iter().take(BATCH_SECTION_QUESTIONS).map(|q| q.question.as_str()).collect();
    let clock = Stopwatch::start();
    for chunk in texts.chunks(BATCH_SECTION_WIDTH) {
        std::hint::black_box(engine.answer_batch(chunk));
    }
    let batch_ns = clock.elapsed_ns();
    let clock = Stopwatch::start();
    for q in &texts {
        std::hint::black_box(engine.answer(q));
    }
    let serial_ns = clock.elapsed_ns();
    m.set("core.batch_queries_per_s", texts.len() as f64 * 1e9 / batch_ns as f64);
    m.set("core.batch_speedup_vs_serial", serial_ns as f64 / batch_ns as f64);

    let pool = Pool::new(inputs::THREADS);
    let items = [1u64, 2];
    let joins: Vec<u64> = (0..FORK_JOINS)
        .map(|_| {
            let clock = Stopwatch::start();
            std::hint::black_box(pool.par_map(&items, |x| x + 1));
            clock.elapsed_ns()
        })
        .collect();
    m.set("parkit.fork_join_us", us(stats::percentile(&joins, 50.0).expect("FORK_JOINS > 0")));
}

fn ingest_span(delta: &Delta) -> &'static str {
    match delta {
        Delta::DocAdd { .. } => "core.ingest.doc_add",
        Delta::TableRow { .. } => "core.ingest.table_row",
        Delta::SemiFragment { .. } => "core.ingest.semi_fragment",
        Delta::GraphEntity { .. } => "core.ingest.graph_entity",
        Delta::GraphEdge { .. } => "core.ingest.graph_edge",
    }
}

/// Section D: three consecutive rounds of the ingest stream on a clone of
/// the engine with a log attached (no reset, so the corpus grows), and a
/// standalone log beside it.
fn ingest_section(
    engine: &UnifiedEngine,
    rotations: &[Rotation],
    tmp: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let log = tmp.join("traced.wal");
    let bare_log = tmp.join("bare.wal");
    let mut live = engine.clone();
    live.enable_wal(&log).expect("log attaches with faults off");

    let mut bare = Wal::create(&bare_log, 1, FaultPlan::disabled(), None)
        .expect("log creates with faults off");
    let mut delta_bytes = 0u64;
    let mut deltas = 0u64;
    let mut failed = 0u64;
    let mut round_ns: Vec<Vec<u64>> = Vec::new();
    let per_round = rotations.len() / 3;
    for (r, rot) in rotations.iter().enumerate() {
        if r % per_round == 0 {
            round_ns.push(Vec::new());
        }
        for delta in &rot.deltas {
            let op = deltas;
            deltas += 1;
            delta_bytes += inputs::delta_bytes(delta);
            if let Delta::SemiFragment { json, .. } = delta {
                rec.span("semistore.parse_json", op, || {
                    std::hint::black_box(unisem_semistore::parse_json(json)).is_ok()
                });
            }
            let encoded = delta.encode();
            let logged = rec.span("storekit.wal_append_flush", op, || {
                bare.append(&encoded).and_then(|_| bare.flush())
            });
            let clock = Stopwatch::start();
            let acked = rec.span(ingest_span(delta), op, || live.ingest_delta(delta.clone()));
            round_ns.last_mut().expect("pushed above").push(clock.elapsed_ns());
            failed += (logged.is_err() || acked.is_err()) as u64;
        }
        failed += !read_is_fresh(rot, &live.answer(&rot.read)) as u64;
    }
    out.attempted += deltas + rotations.len() as u64;
    out.failed += failed;

    let log_bytes = wal_bytes(&log);
    let m = &mut out.metrics;
    for (metric, span) in [
        ("core.ingest_us.doc_add", "core.ingest.doc_add"),
        ("core.ingest_us.table_row", "core.ingest.table_row"),
        ("core.ingest_us.semi_fragment", "core.ingest.semi_fragment"),
        ("core.ingest_us.graph_entity", "core.ingest.graph_entity"),
        ("core.ingest_us.graph_edge", "core.ingest.graph_edge"),
        ("semistore.parse_json_us", "semistore.parse_json"),
        ("storekit.wal_append_flush_us", "storekit.wal_append_flush"),
    ] {
        m.set(metric, us(median_ns(rec, span)));
    }
    let round_median = |ns: &Vec<u64>| stats::percentile(ns, 50.0).unwrap_or(0) as f64;
    m.set(
        "core.ingest_last_over_first_round",
        ratio(round_median(round_ns.last().expect("three rounds")), round_median(&round_ns[0])),
    );
    m.set("storekit.wal_bytes_per_delta", log_bytes as f64 / deltas as f64);
    m.set("storekit.wal_bytes_per_input_byte", log_bytes as f64 / delta_bytes as f64);

    out.notes.push(format!(
        "ingest replay: {deltas} deltas in 3 rounds of {} on a clone with a log, {log_bytes} log bytes",
        per_round * 5
    ));
    drop(live);
    drop(bare);
    ingest::remove_wal(&log);
    ingest::remove_wal(&bare_log);
}

/// A traced run of one workload. Writes the spans to `spans_path`.
pub fn run(spec: &Spec, scale: Scale, seed: u64, tmp: &Path, spans_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();

    // The workload's own inputs; the operations replayed are one round's.
    // The delta stream is the ingest workload's, three traced rounds long.
    let (corpus, questions, batch) = match spec.shape {
        Shape::Answers { mix, batch } => {
            let inp = qa::generate(mix, batch, scale, seed);
            (inp.corpus, inp.questions, batch)
        }
        Shape::Ingest => (inputs::corpus(scale.products, seed), Vec::new(), 1),
    };
    let rotations = ingest::rotation_stream(&corpus, scale.traced_rotations * 3, seed);
    let questions = match spec.shape {
        Shape::Answers { .. } => questions,
        // The reads of one round, asked of the corpus as built.
        Shape::Ingest => rotations[..scale.per_round]
            .iter()
            .enumerate()
            .map(|(id, r)| QaItem {
                id,
                question: r.read.clone(),
                gold: r.stale.clone(),
                category: QaCategory::Aggregate,
                gold_doc_ids: Vec::new(),
                entities: Vec::new(),
            })
            .collect(),
    };

    let engine = inputs::build_engine(&corpus, inputs::engine_config(false));
    build_replay(&corpus, &engine, &mut rec, &mut out.metrics);
    query_sections(&corpus, &engine, &questions, batch, &mut rec, &mut out);
    batch_section(&engine, &questions, &mut out.metrics);
    ingest_section(&engine, &rotations, tmp, &mut rec, &mut out);

    match rec.write_jsonl(spans_path) {
        Ok(()) => out.notes.push(format!(
            "spans: {} written to {}",
            rec.spans().len(),
            spans_path.display()
        )),
        Err(e) => out.broken.push(format!("cannot write spans to {}: {e}", spans_path.display())),
    }
    out
}
