//! Per-stage pipeline profile: builds the two evaluation workloads,
//! answers their full QA sets through [`UnifiedEngine::answer_batch`],
//! streams a short run of durable deltas into each, and emits every
//! tracekit stage timing as a detkit `Stats` JSON line (suite `profile`,
//! name `<workload>.<stage>`).
//!
//! The default run regenerates `BENCH_baseline.json` in the current
//! directory; `--smoke` shrinks the workloads and prints to stdout only
//! (the ci.sh bench smoke step), leaving the committed baseline untouched.
//!
//! ```sh
//! cargo run --release -p unisem-bench --bin profile            # rewrite baseline
//! cargo run --release -p unisem-bench --bin profile -- --smoke # CI smoke
//! ```

use std::collections::BTreeMap;

use detkit::bench::Stats;
use unisem_bench::harness::{build_ecommerce_engine, build_healthcare_engine};
use unisem_core::{Delta, EngineConfig, EntityKind, TimingReport, UnifiedEngine};
use unisem_hetgraph::EdgeKind;
use unisem_workloads::{EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload};

/// Engine builds per workload: build-stage lines get real order statistics
/// over five independent builds instead of the degenerate single sample a
/// one-shot build produces.
const BUILD_ITERS: usize = 5;

/// Flattens stage timings from several engine runs into `Stats` lines,
/// concatenating the per-call samples of the same stage across runs so
/// median/p95/min/max are computed over every recorded call.
fn stage_stats(workload: &str, reports: &[TimingReport]) -> Vec<Stats> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut agg: BTreeMap<&'static str, (u64, u64, Vec<u64>)> = BTreeMap::new();
    for report in reports {
        for &(stage, count, total_ns) in &report.stages {
            if !agg.contains_key(stage) {
                order.push(stage);
            }
            let entry = agg.entry(stage).or_default();
            entry.0 += count;
            entry.1 += total_ns;
            entry.2.extend_from_slice(report.samples_of(stage));
        }
    }
    order
        .into_iter()
        .map(|stage| {
            let (count, total_ns, samples) = agg.remove(stage).expect("ordered keys");
            if samples.is_empty() {
                // Sample buffer exhausted (see MAX_STAGE_SAMPLES): fall
                // back to the aggregate mean for every field.
                let mean = total_ns / count.max(1);
                return Stats {
                    suite: "profile".to_string(),
                    name: format!("{workload}.{stage}"),
                    iters: u32::try_from(count).unwrap_or(u32::MAX),
                    mean_ns: mean,
                    median_ns: mean,
                    p95_ns: mean,
                    min_ns: mean,
                    max_ns: mean,
                };
            }
            Stats::from_samples("profile", &format!("{workload}.{stage}"), samples)
        })
        .collect()
}

fn answer_qa(engine: &UnifiedEngine, questions: Vec<String>) {
    let answers = engine.answer_batch(&questions);
    assert_eq!(answers.len(), questions.len());
}

/// Streams `rounds` × 4 single deltas into the engine through a
/// write-ahead log in the temp directory (one fsync each), so the
/// `ingest.log` / `ingest.apply` stages get samples. Each round re-adds
/// one document and one row the corpus already holds, then a new entity
/// and an edge from it to the previous round's — a stream any corpus
/// accepts.
fn ingest_stream(workload: &str, engine: &mut UnifiedEngine, rounds: usize) {
    let wal =
        std::env::temp_dir().join(format!("unisem-profile-{}-{workload}.wal", std::process::id()));
    let remove_wal = || {
        for segment in storekit::Wal::segment_paths(&wal) {
            std::fs::remove_file(segment).ok();
        }
    };
    remove_wal();
    engine.enable_wal(&wal).expect("attach a fresh log");
    let table = engine
        .db()
        .table_names()
        .into_iter()
        .find(|name| *name != "extracted")
        .expect("a workload has tables")
        .to_string();
    let partner = |round: usize| format!("Profile Partner {round}");
    for round in 0..rounds {
        let doc = &engine.docs().documents()[round % engine.docs().num_documents()];
        let row = engine.db().table(&table).expect("listed table");
        let mut deltas = vec![
            Delta::DocAdd {
                title: format!("{} (again)", doc.title),
                text: doc.text.clone(),
                source: doc.source.clone(),
            },
            Delta::TableRow { table: table.clone(), values: row.row(round % row.num_rows()) },
            Delta::GraphEntity { name: partner(round), kind: EntityKind::Organization },
        ];
        if round > 0 {
            deltas.push(Delta::GraphEdge {
                a: partner(round),
                b: partner(round - 1),
                kind: EdgeKind::RelatesTo("partners".to_string()),
            });
        }
        for delta in deltas {
            engine.ingest_delta(delta).expect("the stream applies");
        }
    }
    remove_wal();
}

/// Builds the engine [`BUILD_ITERS`] times (collecting each build's stage
/// timings), answers the QA set and ingests `ingest_rounds` of deltas on
/// the final build, and merges every run's samples into one stats set.
fn profile_runs(
    workload: &str,
    build: impl Fn() -> UnifiedEngine,
    questions: Vec<String>,
    ingest_rounds: usize,
) -> Vec<Stats> {
    let mut reports: Vec<TimingReport> = Vec::with_capacity(BUILD_ITERS);
    for _ in 0..BUILD_ITERS - 1 {
        reports.push(build().timing_report());
    }
    let mut engine = build();
    answer_qa(&engine, questions);
    ingest_stream(workload, &mut engine, ingest_rounds);
    reports.push(engine.timing_report());
    stage_stats(workload, &reports)
}

fn profile_ecommerce(smoke: bool) -> Vec<Stats> {
    let w = EcommerceWorkload::generate(EcommerceConfig {
        products: if smoke { 4 } else { 12 },
        quarters: if smoke { 2 } else { 4 },
        reviews_per_product: if smoke { 1 } else { 4 },
        qa_per_category: if smoke { 1 } else { 5 },
        seed: 0xEC0,
        name_offset: 0,
    });
    let questions = w.qa.iter().map(|q| q.question.clone()).collect();
    profile_runs(
        "ecommerce",
        || build_ecommerce_engine(&w, EngineConfig::default()),
        questions,
        if smoke { 2 } else { 25 },
    )
}

fn profile_healthcare(smoke: bool) -> Vec<Stats> {
    let w = HealthcareWorkload::generate(HealthcareConfig {
        drugs: if smoke { 4 } else { 8 },
        patients: if smoke { 4 } else { 16 },
        trials_per_drug: if smoke { 1 } else { 3 },
        qa_per_category: if smoke { 1 } else { 5 },
        seed: 0x4EA17,
    });
    let questions = w.qa.iter().map(|q| q.question.clone()).collect();
    profile_runs(
        "healthcare",
        || build_healthcare_engine(&w, EngineConfig::default()),
        questions,
        if smoke { 2 } else { 25 },
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut lines = String::new();
    for stats in profile_ecommerce(smoke).iter().chain(profile_healthcare(smoke).iter()) {
        lines.push_str(&stats.to_json_line());
        lines.push('\n');
        eprintln!("{} mean {} ns ({} samples)", stats.name, stats.mean_ns, stats.iters);
    }
    if smoke {
        print!("{lines}");
    } else {
        std::fs::write("BENCH_baseline.json", &lines).expect("write BENCH_baseline.json");
        eprintln!("wrote BENCH_baseline.json ({} stages)", lines.lines().count());
    }
}
