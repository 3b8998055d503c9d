//! The eight experiments of EXPERIMENTS.md.
//!
//! Each function returns the tables it regenerates, rendered. The paper
//! (a 4-page vision paper) publishes no quantitative tables; these
//! experiments substantiate its textual claims — see DESIGN.md §4 for the
//! claim ↔ experiment mapping. Every number is a function of the seeds,
//! so `tests/experiments_golden.rs` holds each rendering byte-for-byte to
//! its fenced block in EXPERIMENTS.md.

use std::sync::Arc;

use unisem_core::{
    DirectSlmPipeline, EngineConfig, FaultPlan, FaultSite, NaiveRagPipeline, TextToSqlPipeline,
};
use unisem_docstore::DocStore;
use unisem_entropy::{auroc, rejection_accuracy_curve};
use unisem_extract::TableGenerator;
use unisem_hetgraph::GraphBuilder;
use unisem_retrieval::{
    ChunkRetriever, DenseRetriever, LexicalRetriever, TopologyConfig, TopologyRetriever,
};
use unisem_slm::{CostModel, ModelClass, Slm, SlmConfig};
use unisem_workloads::{
    EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload, QaCategory,
    ReportCorpus,
};

use crate::harness::{
    base_config, build_ecommerce_engine, build_healthcare_engine, evaluate_pipeline, f2, f3, kib,
    EvalResult, QuestionRecord, TextTable,
};

/// An experiment's id — what the binary takes and EXPERIMENTS.md's fenced
/// block carries (```` ```text e1 ````) — and the function rendering it.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment, in EXPERIMENTS.md's order.
pub const EXPERIMENTS: [Experiment; 8] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
];

fn default_ecommerce(seed: u64) -> EcommerceWorkload {
    EcommerceWorkload::generate(EcommerceConfig {
        products: 12,
        quarters: 4,
        reviews_per_product: 3,
        qa_per_category: 5,
        seed,
        name_offset: 0,
    })
}

fn default_healthcare(seed: u64) -> HealthcareWorkload {
    HealthcareWorkload::generate(HealthcareConfig {
        drugs: 8,
        patients: 16,
        trials_per_drug: 3,
        qa_per_category: 5,
        seed,
    })
}

/// E1 / Table 1 — Multi-Entity QA accuracy across systems.
///
/// Claim (§I gap 2, §III.C): the hybrid SLM pipeline resolves Multi-Entity
/// QA that Text-to-SQL and naive RAG each miss on their own side.
pub fn e1() -> String {
    let mut sections = Vec::new();
    for (domain, seed) in [("ecommerce", 101u64), ("healthcare", 202u64)] {
        let (qa, engine, docs, db) = match domain {
            "ecommerce" => {
                let w = default_ecommerce(seed);
                let e = build_ecommerce_engine(&w, base_config());
                (w.qa.clone(), e, Arc::new(w.docstore()), w.db.clone())
            }
            _ => {
                let w = default_healthcare(seed);
                let e = build_healthcare_engine(&w, base_config());
                (w.qa.clone(), e, Arc::new(w.docstore()), w.db.clone())
            }
        };
        let slm = engine.slm().clone();
        let rag = NaiveRagPipeline::new(slm.clone(), docs, 5);
        let sql = TextToSqlPipeline::new(slm.clone(), db);
        let direct = DirectSlmPipeline::new(slm);

        let pipelines: Vec<(&str, EvalResult)> = vec![
            ("unisem (ours)", evaluate_pipeline(&engine, &qa)),
            ("naive_rag", evaluate_pipeline(&rag, &qa)),
            ("text_to_sql", evaluate_pipeline(&sql, &qa)),
            ("direct_slm", evaluate_pipeline(&direct, &qa)),
        ];

        let mut t = TextTable::new([
            "system",
            "lookup",
            "aggregate",
            "multi_entity",
            "comparative",
            "cross_modal",
            "unanswerable",
            "overall",
        ]);
        for (name, r) in &pipelines {
            t.row([
                (*name).to_string(),
                f2(r.accuracy(QaCategory::SingleEntityLookup)),
                f2(r.accuracy(QaCategory::Aggregate)),
                f2(r.accuracy(QaCategory::MultiEntityFilter)),
                f2(r.accuracy(QaCategory::Comparative)),
                f2(r.accuracy(QaCategory::CrossModal)),
                f2(r.accuracy(QaCategory::Unanswerable)),
                f2(r.overall()),
            ]);
        }
        sections.push(format!("--- workload: {domain} ---\n{}", t.render()));
    }
    sections.join("\n")
}

/// E2 / Table 2 — index footprint vs corpus scale.
///
/// Claim (§I gap 1): graph indexing avoids "large-scale vector indexing";
/// §III.A: the graph "reduces reliance on computationally expensive dense
/// retrieval".
pub fn e2() -> String {
    let mut t =
        TextTable::new(["docs", "chunks", "graph_KiB", "nodes", "edges", "dense_KiB", "bm25_KiB"]);
    for products in [8usize, 16, 32, 64] {
        let w = EcommerceWorkload::generate(EcommerceConfig {
            products,
            quarters: 4,
            reviews_per_product: 3,
            qa_per_category: 1,
            seed: 300 + products as u64,
            name_offset: 0,
        });
        let docs = Arc::new(w.docstore());
        let slm = Slm::new(SlmConfig { lexicon: w.lexicon.clone(), ..SlmConfig::default() });
        let mut gb = GraphBuilder::new(slm.clone());
        gb.add_docstore(&docs);
        for name in w.db.table_names() {
            gb.add_table(name, w.db.table(name).expect("listed"));
        }
        let (graph, _) = gb.finish();
        let dense = DenseRetriever::build(slm, &docs);
        t.row([
            docs.num_documents().to_string(),
            docs.num_chunks().to_string(),
            kib(graph.approx_bytes()),
            graph.num_nodes().to_string(),
            graph.num_edges().to_string(),
            kib(dense.index_bytes()),
            kib(docs.index_bytes()),
        ]);
    }
    t.render()
}

/// E3 / Figure 2 — retrieval work per query vs corpus size, per retriever.
///
/// Claim (§III.B): topology-guided traversal "reduc\[es\] computational
/// overhead and improv\[es\] response times" by scoring a sparse frontier
/// instead of every vector. The columns are exact per-query work counts
/// (means over the queries): nodes in the frontier and popped off the
/// traversal's heap, and posting entries scanned by the traversal's
/// lexical half and by BM25 alone. A dense scan compares the query with
/// every vector, so its count is the `chunks` column. Latency is
/// unibench's (`retrieval_qa`).
pub fn e3() -> String {
    let mut t = TextTable::new([
        "docs",
        "chunks",
        "frontier_nodes",
        "nodes_popped",
        "topo_postings",
        "bm25_postings",
        "total_nodes",
    ]);
    for products in [8usize, 16, 32, 64] {
        let w = EcommerceWorkload::generate(EcommerceConfig {
            products,
            quarters: 4,
            reviews_per_product: 3,
            qa_per_category: 3,
            seed: 400 + products as u64,
            name_offset: 0,
        });
        let docs = Arc::new(w.docstore());
        let slm = Slm::new(SlmConfig { lexicon: w.lexicon.clone(), ..SlmConfig::default() });
        let mut gb = GraphBuilder::new(slm.clone());
        gb.add_docstore(&docs);
        let (graph, _) = gb.finish();
        let graph = Arc::new(graph);
        let topo =
            TopologyRetriever::new(slm, graph.clone(), docs.clone(), TopologyConfig::default());

        let mut work = TraversalWork::default();
        let mut bm25_postings = Vec::new();
        for item in &w.qa {
            work.record(&topo, &item.question);
            bm25_postings.push(docs.search_counted(&item.question, 5).1);
        }
        t.row([
            docs.num_documents().to_string(),
            docs.num_chunks().to_string(),
            f2(mean(&work.frontier)),
            f2(mean(&work.popped)),
            f2(mean(&work.postings)),
            f2(mean(&bm25_postings)),
            graph.num_nodes().to_string(),
        ]);
    }
    let single = t.render();

    // Multi-domain sweep: a heterogeneous data lake is many weakly-coupled
    // domains. Queries anchor inside one domain, so the traversal's frontier
    // stays bounded while a dense scan compares every vector of the lake.
    let mut t = TextTable::new([
        "domains",
        "chunks",
        "frontier",
        "nodes_popped",
        "postings",
        "total_nodes",
    ]);
    for domains in [1usize, 2, 4, 8, 16] {
        let mut docs = DocStore::default();
        let mut lexicon = unisem_slm::Lexicon::new();
        let mut queries: Vec<String> = Vec::new();
        for d in 0..domains {
            let w = EcommerceWorkload::generate(EcommerceConfig {
                products: 8,
                quarters: 4,
                reviews_per_product: 3,
                qa_per_category: 3,
                seed: 420 + d as u64,
                name_offset: d * 8,
            });
            for spec in &w.documents {
                docs.add_document(spec.title.clone(), spec.text.clone(), spec.source.clone());
            }
            for i in 0..8 {
                lexicon.add(
                    &unisem_workloads::names::product(i + d * 8),
                    unisem_slm::EntityKind::Product,
                );
            }
            for i in 0..10 {
                lexicon.add(
                    &unisem_workloads::names::manufacturer(i),
                    unisem_slm::EntityKind::Organization,
                );
            }
            if d == 0 {
                queries = w.qa.iter().map(|i| i.question.clone()).collect();
            }
        }
        let docs = Arc::new(docs);
        let slm = Slm::new(SlmConfig { lexicon, ..SlmConfig::default() });
        let mut gb = GraphBuilder::new(slm.clone());
        gb.add_docstore(&docs);
        let (graph, _) = gb.finish();
        let graph = Arc::new(graph);
        let topo =
            TopologyRetriever::new(slm, graph.clone(), docs.clone(), TopologyConfig::default());

        let mut work = TraversalWork::default();
        for q in &queries {
            work.record(&topo, q);
        }
        t.row([
            domains.to_string(),
            docs.num_chunks().to_string(),
            f2(mean(&work.frontier)),
            f2(mean(&work.popped)),
            f2(mean(&work.postings)),
            graph.num_nodes().to_string(),
        ]);
    }
    format!(
        "--- single-domain corpus ---\n{single}\n\
         --- multi-domain lake (8 products/domain, queries target domain 0) ---\n{}",
        t.render()
    )
}

/// Per-query traversal work, one entry per query.
#[derive(Default)]
struct TraversalWork {
    frontier: Vec<usize>,
    popped: Vec<usize>,
    postings: Vec<usize>,
}

impl TraversalWork {
    fn record(&mut self, topo: &TopologyRetriever, query: &str) {
        let (_, stats) = topo.retrieve_with_stats(query, 5);
        self.frontier.push(stats.nodes_touched);
        self.popped.push(stats.nodes_popped);
        self.postings.push(stats.postings_scanned);
    }
}

fn mean(xs: &[usize]) -> f64 {
    xs.iter().sum::<usize>() as f64 / xs.len().max(1) as f64
}

/// E4 / Table 3 — Relational Table Generation quality.
///
/// Claim (§III.C task 1): the SLM converts free text into structured
/// tables with columns like "Quarter" and "Change Percentage".
pub fn e4() -> String {
    let mut t = TextTable::new([
        "facts",
        "extracted",
        "row_precision",
        "row_recall",
        "row_f1",
        "pct_acc",
        "amount_acc",
    ]);
    for n_facts in [60usize, 200] {
        let corpus = ReportCorpus::generate(n_facts, 500 + n_facts as u64);
        let mut lexicon = unisem_slm::Lexicon::new();
        for (name, kind) in &corpus.lexicon_entries {
            lexicon.add(name, *kind);
        }
        let slm = Slm::new(SlmConfig { lexicon, ..SlmConfig::default() });
        let gen = TableGenerator::new(slm);
        let texts: Vec<&str> = corpus.texts.iter().map(String::as_str).collect();
        let (table, _stats) = gen.generate_table(&texts).expect("extraction");
        let m = score_extraction(&table, &corpus);
        t.row([
            n_facts.to_string(),
            table.num_rows().to_string(),
            f2(m.precision),
            f2(m.recall),
            f2(m.f1),
            f2(m.pct_acc),
            f2(m.amount_acc),
        ]);
    }
    t.render()
}

/// Extraction scoring: rows match gold facts on (subject, period).
pub struct ExtractionScore {
    /// Matched extracted rows / extracted rows.
    pub precision: f64,
    /// Matched gold facts / gold facts.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
    /// change_pct cell accuracy over matched pairs asserting one.
    pub pct_acc: f64,
    /// amount cell accuracy over matched pairs asserting one.
    pub amount_acc: f64,
}

/// Scores an extracted table against a gold report corpus.
pub fn score_extraction(table: &unisem_relstore::Table, corpus: &ReportCorpus) -> ExtractionScore {
    let idx = |name: &str| table.schema().index_of(name);
    let (si, pi) = match (idx("subject"), idx("period")) {
        (Some(s), Some(p)) => (s, p),
        _ => {
            return ExtractionScore {
                precision: 0.0,
                recall: 0.0,
                f1: 0.0,
                pct_acc: 0.0,
                amount_acc: 0.0,
            }
        }
    };
    let ci = idx("change_pct");
    let ai = idx("amount");

    let mut matched_rows = 0usize;
    let mut matched_gold = vec![false; corpus.facts.len()];
    let mut pct_ok = 0usize;
    let mut pct_total = 0usize;
    let mut amt_ok = 0usize;
    let mut amt_total = 0usize;

    for r in 0..table.num_rows() {
        let subject = table.cell(r, si).to_string().to_lowercase();
        let period = table.cell(r, pi).to_string();
        let gold = corpus
            .facts
            .iter()
            .enumerate()
            .find(|(gi, f)| !matched_gold[*gi] && f.subject == subject && f.period == period);
        let Some((gi, fact)) = gold else { continue };
        matched_gold[gi] = true;
        matched_rows += 1;
        if let (Some(ci), Some(gold_pct)) = (ci, fact.change_pct) {
            pct_total += 1;
            if let Some(v) = table.cell(r, ci).as_f64() {
                if (v - gold_pct).abs() < 0.11 {
                    pct_ok += 1;
                }
            }
        }
        if let (Some(ai), Some(gold_amt)) = (ai, fact.amount) {
            amt_total += 1;
            if let Some(v) = table.cell(r, ai).as_f64() {
                if (v - gold_amt).abs() < 0.51 {
                    amt_ok += 1;
                }
            }
        }
    }
    let precision = matched_rows as f64 / table.num_rows().max(1) as f64;
    let recall = matched_rows as f64 / corpus.facts.len().max(1) as f64;
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    ExtractionScore {
        precision,
        recall,
        f1,
        pct_acc: pct_ok as f64 / pct_total.max(1) as f64,
        amount_acc: amt_ok as f64 / amt_total.max(1) as f64,
    }
}

/// E5 / Figure 3 — semantic entropy predicts answer errors.
///
/// Claim (§III.D): semantic entropy is "more predictive of model accuracy
/// compared to traditional baselines"; high entropy flags outputs for
/// review.
pub fn e5() -> String {
    // Calibration is measured on the generation path *without* abstention
    // (the naive RAG pipeline): the unified engine already consumes its own
    // entropy to abstain, which would make the evaluation circular. This
    // mirrors Kuhn et al.'s protocol — sample answers, cluster, and test
    // whether entropy predicts which answers are wrong.
    let mut records: Vec<QuestionRecord> = Vec::new();
    {
        let w = EcommerceWorkload::generate(EcommerceConfig {
            products: 12,
            quarters: 4,
            reviews_per_product: 3,
            qa_per_category: 8,
            seed: 601,
            name_offset: 0,
        });
        let slm = Slm::new(SlmConfig { lexicon: w.lexicon.clone(), ..SlmConfig::default() });
        let rag = NaiveRagPipeline::new(slm, Arc::new(w.docstore()), 5);
        records.extend(evaluate_pipeline(&rag, &w.qa).records);
    }
    {
        let w = HealthcareWorkload::generate(HealthcareConfig {
            drugs: 8,
            patients: 16,
            trials_per_drug: 3,
            qa_per_category: 8,
            seed: 602,
        });
        let slm = Slm::new(SlmConfig { lexicon: w.lexicon.clone(), ..SlmConfig::default() });
        let rag = NaiveRagPipeline::new(slm, Arc::new(w.docstore()), 5);
        records.extend(evaluate_pipeline(&rag, &w.qa).records);
    }

    let labels: Vec<bool> = records.iter().map(|r| !r.correct).collect();
    let measures: [(&str, Vec<f64>); 4] = [
        ("semantic_entropy", records.iter().map(|r| r.semantic_entropy).collect()),
        ("discrete_semantic", records.iter().map(|r| r.discrete_entropy).collect()),
        ("predictive_entropy", records.iter().map(|r| r.predictive_entropy).collect()),
        ("lexical_variance", records.iter().map(|r| r.lexical_variance).collect()),
    ];
    let mut t = TextTable::new(["uncertainty measure", "AUROC (predicting error)"]);
    for (name, scores) in &measures {
        t.row([(*name).to_string(), f3(auroc(scores, &labels))]);
    }
    let aurocs = t.render();

    let scores: Vec<f64> = records.iter().map(|r| r.discrete_entropy).collect();
    let correct: Vec<bool> = records.iter().map(|r| r.correct).collect();
    let curve = rejection_accuracy_curve(&scores, &correct, &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0]);
    let mut t = TextTable::new(["kept fraction", "accuracy on kept"]);
    for (f, acc) in curve {
        t.row([f2(f), f2(acc)]);
    }
    format!(
        "{aurocs}\nrejection curve (discrete semantic entropy):\n{}\n\
         (n = {} questions across both workloads)\n",
        t.render(),
        records.len()
    )
}

/// E6 / Figure 4 — retrieval quality vs traversal depth and k.
///
/// Claim (§III.B): centrality/connectivity prioritization finds the
/// relevant nodes; deeper traversal trades cost for recall.
pub fn e6() -> String {
    let w = default_ecommerce(700);
    let docs = Arc::new(w.docstore());
    let slm = Slm::new(SlmConfig { lexicon: w.lexicon.clone(), ..SlmConfig::default() });
    let mut gb = GraphBuilder::new(slm.clone());
    gb.add_docstore(&docs);
    for name in w.db.table_names() {
        gb.add_table(name, w.db.table(name).expect("listed"));
    }
    let (graph, _) = gb.finish();
    let graph = Arc::new(graph);

    // Questions with retrieval ground truth.
    let items: Vec<_> = w.qa.iter().filter(|i| !i.gold_doc_ids.is_empty()).collect();

    let mut t = TextTable::new(["retriever", "hops", "recall@1", "recall@5", "recall@10", "MRR"]);
    for hops in [1usize, 2, 3, 4] {
        let topo = TopologyRetriever::new(
            slm.clone(),
            graph.clone(),
            docs.clone(),
            TopologyConfig { max_hops: hops, ..TopologyConfig::default() },
        );
        let (r1, r5, r10, m) = doc_level_metrics(&topo, &docs, &items);
        t.row(["topology".to_string(), hops.to_string(), f2(r1), f2(r5), f2(r10), f2(m)]);
    }
    // Structure-only variant (β = 0): isolates what the graph contributes
    // without the lexical fusion component.
    for hops in [1usize, 2, 3, 4] {
        let topo = TopologyRetriever::new(
            slm.clone(),
            graph.clone(),
            docs.clone(),
            TopologyConfig { max_hops: hops, alpha: 1.0, beta: 0.0, ..TopologyConfig::default() },
        );
        let (r1, r5, r10, m) = doc_level_metrics(&topo, &docs, &items);
        t.row(["topology (α only)".to_string(), hops.to_string(), f2(r1), f2(r5), f2(r10), f2(m)]);
    }
    let dense = DenseRetriever::build(slm.clone(), &docs);
    let (r1, r5, r10, m) = doc_level_metrics(&dense, &docs, &items);
    t.row(["dense".to_string(), "-".to_string(), f2(r1), f2(r5), f2(r10), f2(m)]);
    let bm25 = LexicalRetriever::new(docs.clone());
    let (r1, r5, r10, m) = doc_level_metrics(&bm25, &docs, &items);
    t.row(["bm25".to_string(), "-".to_string(), f2(r1), f2(r5), f2(r10), f2(m)]);
    t.render()
}

/// Doc-level recall@k / MRR for one retriever over gold-doc-labeled items.
fn doc_level_metrics(
    retriever: &dyn ChunkRetriever,
    docs: &DocStore,
    items: &[&unisem_workloads::QaItem],
) -> (f64, f64, f64, f64) {
    let mut r1 = 0.0;
    let mut r5 = 0.0;
    let mut r10 = 0.0;
    let mut mrr = 0.0;
    for item in items {
        let hits = retriever.retrieve(&item.question, 10);
        let hit_docs: Vec<usize> =
            hits.iter().filter_map(|h| docs.chunk(h.chunk_id).ok().map(|c| c.doc_id)).collect();
        // Dedup consecutive repeats while preserving rank order.
        let mut ranked: Vec<usize> = Vec::new();
        for d in hit_docs {
            if !ranked.contains(&d) {
                ranked.push(d);
            }
        }
        let gold = &item.gold_doc_ids;
        let hit_at = |k: usize| -> f64 {
            if ranked.iter().take(k).any(|d| gold.contains(d)) {
                1.0
            } else {
                0.0
            }
        };
        r1 += hit_at(1);
        r5 += hit_at(5);
        r10 += hit_at(10);
        mrr += ranked.iter().position(|d| gold.contains(d)).map_or(0.0, |p| 1.0 / (p + 1) as f64);
    }
    let n = items.len().max(1) as f64;
    (r1 / n, r5 / n, r10 / n, mrr / n)
}

/// E7 / Table 4 — component ablations.
///
/// Claim (§III): every component is load-bearing — topology for retrieval,
/// extraction + operator synthesis for Multi-Entity QA.
pub fn e7() -> String {
    let w = default_ecommerce(800);

    let row_for = |t: &mut TextTable, name: &str, r: &EvalResult| {
        t.row([
            name.to_string(),
            f2(r.accuracy(QaCategory::SingleEntityLookup)),
            f2(r.accuracy(QaCategory::Aggregate)),
            f2(r.accuracy(QaCategory::MultiEntityFilter)),
            f2(r.accuracy(QaCategory::Comparative)),
            f2(r.accuracy(QaCategory::CrossModal)),
            f2(r.accuracy(QaCategory::Unanswerable)),
            f2(r.overall()),
        ]);
    };
    let header = [
        "variant",
        "lookup",
        "aggregate",
        "multi_entity",
        "comparative",
        "cross_modal",
        "unanswerable",
        "overall",
    ];

    // Scenario A: all modalities ingested (native tables present).
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("full", base_config()),
        ("- topology (BM25 only)", EngineConfig { enable_topology: false, ..base_config() }),
        (
            "traversal faulted (lexical fallback)",
            EngineConfig { faults: FaultPlan::single(FaultSite::GraphTraverse), ..base_config() },
        ),
        ("- operator synthesis", EngineConfig { enable_synthesis: false, ..base_config() }),
        ("- entity nodes", EngineConfig { enable_entity_nodes: false, ..base_config() }),
    ];
    let mut t = TextTable::new(header);
    for (name, config) in variants {
        let engine = build_ecommerce_engine(&w, config);
        let r = evaluate_pipeline(&engine, &w.qa);
        row_for(&mut t, name, &r);
    }
    let all_modalities = t.render();

    // Scenario B: text-only ingestion — no native tables, so every
    // analytical answer must come from Relational Table Generation. This is
    // the paper's §III.C hybrid pipeline (unstructured → tables → TableQA):
    // removing extraction should collapse the analytical categories.
    let mut t = TextTable::new(header);
    for (name, config) in [
        ("full (extraction on)", base_config()),
        ("- extraction", EngineConfig { enable_extraction: false, ..base_config() }),
    ] {
        let mut b = unisem_core::EngineBuilder::with_config(w.lexicon.clone(), config);
        for d in &w.documents {
            b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
        }
        let engine = b.build().0;
        let r = evaluate_pipeline(&engine, &w.qa);
        row_for(&mut t, name, &r);
    }
    format!(
        "--- scenario A: all modalities ingested ---\n{all_modalities}\n\
         --- scenario B: text-only ingestion (tables must be extracted) ---\n{}",
        t.render()
    )
}

/// E8 / Figure 5 — efficiency/accuracy frontier: SLM-class vs LLM-class.
///
/// Claim (§I): LLM pipelines are "impractical for applications requiring
/// low-latency responses or deployment on devices with limited memory";
/// the SLM system keeps accuracy at a fraction of the cost.
pub fn e8() -> String {
    let w = default_ecommerce(900);

    // Each system gets a fresh SLM so meters are independent.
    struct Point {
        name: &'static str,
        class: ModelClass,
        accuracy: f64,
        tokens_per_q: f64,
        latency_ms_per_q: f64,
        energy_j_per_q: f64,
        memory_gb: f64,
    }
    let mut points: Vec<Point> = Vec::new();
    let n_q = w.qa.len() as f64;

    // unisem on an SLM (the paper's system).
    {
        let engine = build_ecommerce_engine(&w, base_config());
        engine.meter().reset();
        let r = evaluate_pipeline(&engine, &w.qa);
        let u = engine.meter().snapshot();
        let model = CostModel::for_class(ModelClass::SlmClass);
        points.push(Point {
            name: "unisem (SLM)",
            class: ModelClass::SlmClass,
            accuracy: r.overall(),
            tokens_per_q: u.total_tokens() as f64 / n_q,
            latency_ms_per_q: model
                .latency_secs(u.embed_tokens + u.tag_tokens + u.prompt_tokens, u.decode_tokens)
                / n_q
                * 1e3,
            energy_j_per_q: model.energy_joules(u.total_tokens()) / n_q,
            memory_gb: model.memory_gb,
        });
    }

    // Conventional RAG, once costed as SLM and once as the LLM it would
    // normally require.
    for (name, class) in
        [("naive_rag (SLM)", ModelClass::SlmClass), ("naive_rag (LLM)", ModelClass::LlmClass)]
    {
        let lexicon = w.lexicon.clone();
        let slm = Slm::new(SlmConfig { lexicon, ..SlmConfig::default() });
        let rag = NaiveRagPipeline::new(slm.clone(), Arc::new(w.docstore()), 5);
        slm.meter().reset();
        let r = evaluate_pipeline(&rag, &w.qa);
        let u = slm.meter().snapshot();
        let model = CostModel::for_class(class);
        points.push(Point {
            name,
            class,
            accuracy: r.overall(),
            tokens_per_q: u.total_tokens() as f64 / n_q,
            latency_ms_per_q: model
                .latency_secs(u.embed_tokens + u.tag_tokens + u.prompt_tokens, u.decode_tokens)
                / n_q
                * 1e3,
            energy_j_per_q: model.energy_joules(u.total_tokens()) / n_q,
            memory_gb: model.memory_gb,
        });
    }

    let mut t = TextTable::new([
        "system",
        "class",
        "accuracy",
        "tokens/q",
        "sim_latency_ms/q",
        "sim_energy_J/q",
        "memory_GB",
    ]);
    for p in &points {
        t.row([
            p.name.to_string(),
            format!("{:?}", p.class),
            f2(p.accuracy),
            f2(p.tokens_per_q),
            f2(p.latency_ms_per_q),
            f2(p.energy_j_per_q),
            f2(p.memory_gb),
        ]);
    }
    format!(
        "{}\n(frontier: accuracy vs sim_latency; the SLM system should dominate LLM RAG)\n",
        t.render()
    )
}
