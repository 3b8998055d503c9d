//! Baseline QA pipelines for the comparative evaluation (E1) and the
//! ablation grid (E7).
//!
//! Each baseline deliberately embodies one of the "fundamental limitations"
//! §I attributes to traditional approaches:
//!
//! - [`NaiveRagPipeline`] — conventional dense-retrieval RAG: no graph, no
//!   tables, no operator synthesis. Fails on aggregates and multi-entity
//!   selection ("LLM-based QA systems often hallucinate plausible but
//!   ungrounded comparisons due to missing cross-modal context").
//! - [`TextToSqlPipeline`] — Text-to-SQL only: operator synthesis over
//!   native tables, nothing else. "Traditional Text-to-SQL engines fail to
//!   parse the unstructured component."
//! - [`DirectSlmPipeline`] — closed-book SLM with no retrieval at all; the
//!   hallucination floor.

use std::sync::Arc;

use unisem_docstore::DocStore;
use unisem_entropy::EntropyEstimator;
use unisem_relstore::Database;
use unisem_retrieval::{ChunkRetriever, DenseRetriever};
use unisem_semops::{IntentParser, OperatorSynthesizer};
use unisem_slm::Slm;

use crate::answer::{Answer, Provenance, Route};
use crate::engine::UnifiedEngine;
use crate::evidence::{extract_evidence, to_supported_answers};
use crate::executor::render_structured;
use crate::planner::has_signal;

/// Uniform pipeline interface for the evaluation harness.
pub trait QaPipeline {
    /// Report name.
    fn name(&self) -> &'static str;
    /// Answers a question.
    fn answer(&self, question: &str) -> Answer;
}

impl QaPipeline for UnifiedEngine {
    fn name(&self) -> &'static str {
        "unisem"
    }

    fn answer(&self, question: &str) -> Answer {
        UnifiedEngine::answer(self, question)
    }
}

/// Conventional dense-retrieval RAG baseline.
#[derive(Debug, Clone)]
pub struct NaiveRagPipeline {
    slm: Slm,
    docs: Arc<DocStore>,
    dense: DenseRetriever,
    estimator: EntropyEstimator,
    top_k: usize,
}

impl NaiveRagPipeline {
    /// Builds the baseline over a document store.
    pub fn new(slm: Slm, docs: Arc<DocStore>, top_k: usize) -> Self {
        let dense = DenseRetriever::build(slm.clone(), &docs);
        let estimator = EntropyEstimator::new(slm.clone());
        Self { slm, docs, dense, estimator, top_k }
    }

    /// Access to the underlying SLM (cost meter).
    pub fn slm(&self) -> &Slm {
        &self.slm
    }
}

impl QaPipeline for NaiveRagPipeline {
    fn name(&self) -> &'static str {
        "naive_rag"
    }

    fn answer(&self, question: &str) -> Answer {
        let hits = self.dense.retrieve(question, self.top_k);
        let triples: Vec<(usize, String, f64)> = hits
            .iter()
            .filter_map(|h| {
                self.docs.chunk(h.chunk_id).ok().map(|c| (c.id, c.text.clone(), h.score))
            })
            .collect();
        let evidence = extract_evidence(question, &triples, 6);
        let supported = to_supported_answers(&evidence);
        let report = self.estimator.estimate(question, &supported);
        let confidence = report.confidence();
        let provenance: Vec<Provenance> = evidence
            .iter()
            .filter_map(|e| {
                self.docs
                    .chunk(e.chunk_id)
                    .ok()
                    .map(|c| Provenance::Chunk { chunk_id: c.id, doc_id: c.doc_id })
            })
            .collect();
        let chunks: Vec<usize> = evidence.iter().map(|e| e.chunk_id).collect();
        // Naive RAG always answers with its best evidence sentence — it has
        // no abstention logic (that is the point of E5's comparison).
        let text = report
            .top_answer
            .clone()
            .or_else(|| evidence.first().map(|e| e.text.clone()))
            .unwrap_or_else(|| "No relevant context found.".to_string());
        Answer {
            text,
            confidence,
            entropy: report,
            route: Route::Unstructured { chunks },
            provenance,
            result_table: None,
            degradations: vec![],
            trace: None,
        }
    }
}

/// Text-to-SQL-only baseline: operator synthesis over native tables,
/// nothing for unstructured content.
#[derive(Debug, Clone)]
pub struct TextToSqlPipeline {
    slm: Slm,
    db: Database,
    parser: IntentParser,
    synthesizer: OperatorSynthesizer,
    estimator: EntropyEstimator,
}

impl TextToSqlPipeline {
    /// Builds the baseline over a relational catalog (native tables only —
    /// callers must not hand it extraction output, that is the contrast).
    pub fn new(slm: Slm, db: Database) -> Self {
        Self {
            parser: IntentParser::new(slm.clone()),
            synthesizer: OperatorSynthesizer::new(),
            estimator: EntropyEstimator::new(slm.clone()),
            slm,
            db,
        }
    }

    /// Access to the underlying SLM.
    pub fn slm(&self) -> &Slm {
        &self.slm
    }
}

impl QaPipeline for TextToSqlPipeline {
    fn name(&self) -> &'static str {
        "text_to_sql"
    }

    fn answer(&self, question: &str) -> Answer {
        let intent = self.parser.analyze(question);
        if !intent.is_plain_lookup() {
            for name in self.db.table_names().into_iter().map(String::from).collect::<Vec<_>>() {
                let Ok(plan) = self.synthesizer.synthesize(&intent, &self.db, &name) else {
                    continue;
                };
                let Ok(result) = self.db.run_plan(&plan) else {
                    continue;
                };
                if !has_signal(&result) {
                    continue;
                }
                let text = render_structured(&intent, &self.db, &name, &result);
                if !text.is_empty() {
                    let evidence = vec![unisem_slm::SupportedAnswer::new(text.clone(), 6.0)];
                    let report = self.estimator.estimate(question, &evidence);
                    return Answer {
                        text,
                        confidence: 0.95,
                        entropy: report,
                        route: Route::Structured { table: name.clone() },
                        provenance: vec![Provenance::TableRows {
                            table: name,
                            rows: result.num_rows(),
                        }],
                        result_table: Some(result),
                        degradations: vec![],
                        trace: None,
                    };
                }
            }
        }
        // No SQL-expressible answer: a Text-to-SQL system simply fails.
        let report = self.estimator.estimate(question, &[]);
        Answer {
            text: "Query could not be expressed in SQL over the available tables.".to_string(),
            confidence: 0.0,
            entropy: report,
            route: Route::Abstained,
            provenance: vec![],
            result_table: None,
            degradations: vec![],
            trace: None,
        }
    }
}

/// Closed-book SLM: answers with no evidence at all.
#[derive(Debug, Clone)]
pub struct DirectSlmPipeline {
    slm: Slm,
    estimator: EntropyEstimator,
}

impl DirectSlmPipeline {
    /// Builds the baseline.
    pub fn new(slm: Slm) -> Self {
        Self { estimator: EntropyEstimator::new(slm.clone()), slm }
    }

    /// Access to the underlying SLM.
    pub fn slm(&self) -> &Slm {
        &self.slm
    }
}

impl QaPipeline for DirectSlmPipeline {
    fn name(&self) -> &'static str {
        "direct_slm"
    }

    fn answer(&self, question: &str) -> Answer {
        let report = self.estimator.estimate(question, &[]);
        let confidence = report.confidence();
        Answer {
            text: report.top_answer.clone().unwrap_or_default(),
            confidence,
            entropy: report,
            route: Route::Unstructured { chunks: vec![] },
            provenance: vec![],
            result_table: None,
            degradations: vec![],
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_relstore::{DataType, Schema, Table, Value};
    use unisem_slm::{EntityKind, Lexicon, SlmConfig};

    fn slm() -> Slm {
        Slm::new(SlmConfig {
            lexicon: Lexicon::new().with_entries([("Aero Widget", EntityKind::Product)]),
            ..SlmConfig::default()
        })
    }

    fn docs() -> Arc<DocStore> {
        let mut d = DocStore::default();
        d.add_document(
            "news",
            "The Aero Widget is manufactured by Acme Corp. It sells well.",
            "news",
        );
        Arc::new(d)
    }

    fn db() -> Database {
        let mut db = Database::new();
        let sales = Table::from_rows(
            Schema::of(&[
                ("product", DataType::Str),
                ("quarter", DataType::Str),
                ("amount", DataType::Float),
            ]),
            vec![
                vec![Value::str("Aero Widget"), Value::str("Q1"), Value::Float(100.0)],
                vec![Value::str("Aero Widget"), Value::str("Q2"), Value::Float(140.0)],
            ],
        )
        .unwrap();
        db.create_table("sales", sales).unwrap();
        db
    }

    #[test]
    fn naive_rag_answers_lookup_but_not_aggregate() {
        let p = NaiveRagPipeline::new(slm(), docs(), 3);
        let lookup = p.answer("Who manufactures the Aero Widget?");
        assert!(lookup.text.contains("Acme"), "{}", lookup.text);
        // Aggregate question: RAG can only parrot a sentence; it cannot
        // compute 240.
        let agg = p.answer("What was the total sales amount of Aero Widget across all quarters?");
        assert!(!agg.text.contains("240"), "{}", agg.text);
    }

    #[test]
    fn text_to_sql_answers_aggregate_but_not_lookup() {
        let p = TextToSqlPipeline::new(slm(), db());
        let agg = p.answer("What was the total sales amount of Aero Widget across all quarters?");
        assert!(agg.text.contains("240"), "{}", agg.text);
        let lookup = p.answer("Who manufactures the Aero Widget?");
        assert!(lookup.is_abstention());
    }

    #[test]
    fn direct_slm_is_ungrounded() {
        let p = DirectSlmPipeline::new(slm());
        let a = p.answer("What was the total sales of Aero Widget?");
        assert!(!a.text.contains("240"));
        assert!(a.entropy.n_clusters >= 2, "hallucinations diverge");
    }

    #[test]
    fn pipeline_names() {
        assert_eq!(NaiveRagPipeline::new(slm(), docs(), 3).name(), "naive_rag");
        assert_eq!(TextToSqlPipeline::new(slm(), db()).name(), "text_to_sql");
        assert_eq!(DirectSlmPipeline::new(slm()).name(), "direct_slm");
    }
}
