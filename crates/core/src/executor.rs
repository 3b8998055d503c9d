//! The answer path: one question in, one plan built and run, one
//! [`Answer`] out (DESIGN.md §11).

use faultkit::Site;
use tracekit::{
    component, EntropyVerdict, Hist, Metric, ResourceMeter, RungOutcome, Stage, TraceScope,
    TraversalTrace,
};
use unisem_relstore::plan::AggFunc;
use unisem_relstore::{Database, ExecLimits, RelError, Table};
use unisem_retrieval::{ChunkRetriever, RetrievalResult};
use unisem_semops::synthesize::resolve_subject_column;
use unisem_semops::QueryIntent;
use unisem_slm::SupportedAnswer;

use crate::answer::{Answer, Degradation, Provenance, Route};
use crate::engine::UnifiedEngine;
use crate::evidence::{extract_evidence_grounded, to_supported_answers};
use crate::planner::physical::{self, ExecActuals};
use crate::planner::{CandidatePlan, CostModel, LogicalNode};

impl UnifiedEngine {
    /// Answers a natural-language question across all ingested modalities.
    ///
    /// Resolution walks a graceful-degradation ladder (DESIGN.md §8):
    /// structured → hybrid → pure retrieval → abstain. Every downgrade —
    /// a failed component, an injected fault, a tripped resource governor
    /// — is recorded in [`Answer::degradations`], so a degraded answer is
    /// always diagnosable and never silent.
    pub fn answer(&self, question: &str) -> Answer {
        let (answer, block) = self.answer_traced(question);
        if let Some(block) = block {
            self.sink.write_block(&block);
        }
        answer
    }

    /// [`Self::answer`] split for the batch path: resolves the answer and
    /// renders — but does not write — the trace-sink block, so
    /// [`Self::answer_batch`] can merge blocks in input order after its
    /// parallel map (cross-query interleaving is unrepresentable).
    ///
    /// Zero-cost-when-disabled contract: with tracing off
    /// (`config.trace == false` and an off sink) the scope is disabled —
    /// every recording call is one branch, no allocation — the block is
    /// `None`, and the sink is never touched.
    fn answer_traced(&self, question: &str) -> (Answer, Option<String>) {
        let start = tracekit::wall::Stopwatch::start();
        let sinking = !self.sink.is_off();
        let mut scope = if self.config.trace || sinking {
            TraceScope::enabled(question)
        } else {
            TraceScope::disabled()
        };

        let mut meter = ResourceMeter::default();
        let mut answer = self.answer_planned(question, &mut scope, &mut meter);

        self.metrics.incr(Metric::QueryAnswered);
        if answer.is_abstention() {
            self.metrics.incr(Metric::QueryAbstained);
        }
        if matches!(answer.route, Route::Structured { .. }) {
            self.metrics.incr(Metric::QueryStructuredHits);
        }
        self.metrics.add(Metric::QueryDegradations, answer.degradations.len() as u64);
        // Per-query resource accounting: one histogram observation per
        // meter field per query (zeros included — the histogram shape is
        // a pure function of the workload, never of which branches ran).
        self.metrics.observe(Hist::QueryDegradationDepth, answer.degradations.len() as u64);
        self.metrics.observe(Hist::QueryProvenance, answer.provenance.len() as u64);
        self.metrics.observe(Hist::MeterPagesRead, meter.pages_read);
        self.metrics.observe(Hist::MeterPostingsScanned, meter.postings_scanned);
        self.metrics.observe(Hist::MeterNodesPopped, meter.nodes_popped);
        self.metrics.observe(Hist::MeterDenseCompared, meter.dense_compared);
        self.metrics.observe(Hist::MeterSlmCalls, meter.slm_calls);
        self.metrics.observe(Hist::MeterSlmSamples, meter.slm_samples);
        self.metrics.observe(Hist::MeterWalBytes, meter.wal_bytes);
        self.metrics.record_stage(Stage::AnswerTotal, start.elapsed_ns());

        scope.set_meter(meter);
        let trace = scope.finish(answer.route.label());
        let block = match (&trace, sinking) {
            (Some(t), true) => Some(tracekit::render_block(t, start.elapsed_ns())),
            _ => None,
        };
        if self.config.trace {
            answer.trace = trace;
        }
        (answer, block)
    }

    /// Cost-based resolution (DESIGN.md §11): synthesize a logical plan
    /// spanning every substrate, cost it against the build-time statistics
    /// catalog, execute it, and record the physical plan — with per-node
    /// estimated vs actual costs — in the explain trace.
    ///
    /// The answers are pinned byte-for-byte by the golden files of
    /// `tests/tests/planner_golden.rs`. Join reordering is
    /// deliberately *not* applied here: physically re-joining in a
    /// different order changes row enumeration order and therefore
    /// float-accumulation order in aggregates. The reordering optimizer is
    /// exposed through [`Self::optimized_multi_join`] instead.
    fn answer_planned(
        &self,
        question: &str,
        scope: &mut TraceScope,
        meter: &mut ResourceMeter,
    ) -> Answer {
        let faults = self.config.faults;
        let governors = self.config.governors;
        let mut degradations: Vec<Degradation> = Vec::new();
        let mut actuals = ExecActuals::default();

        // Admission gates run before any plan is built: without a working
        // generator or enough entropy samples nothing downstream can be
        // certified, so the only plan is the gate itself.
        if let Err(f) = faults.check(Site::SlmGenerate, question) {
            self.metrics.incr(Metric::FaultsFired);
            scope.event("fault.fired", || f.to_string());
            scope.rung("entropy_gate", RungOutcome::Failed, || {
                "answer sampling unavailable; abstaining".to_string()
            });
            degradations.push(Degradation::new(
                component::SLM_GENERATE,
                format!("answer sampling unavailable: {f}"),
            ));
            actuals.gate = Some(format!("failed: {f}"));
            actuals.outcome = Some("abstained".to_string());
            self.set_physical_plan(scope, &self.gate_only_plan(), &actuals);
            return abstained(degradations);
        }
        if self.config.entropy_samples < governors.entropy_sample_floor {
            scope.rung("entropy_gate", RungOutcome::Failed, || {
                format!(
                    "{} samples below floor {}",
                    self.config.entropy_samples, governors.entropy_sample_floor
                )
            });
            degradations.push(Degradation::new(
                component::ENTROPY_SAMPLES,
                format!(
                    "{} entropy samples below floor {}; confidence uncertifiable",
                    self.config.entropy_samples, governors.entropy_sample_floor
                ),
            ));
            actuals.gate = Some(format!(
                "failed: {} samples below floor {}",
                self.config.entropy_samples, governors.entropy_sample_floor
            ));
            actuals.outcome = Some("abstained".to_string());
            self.set_physical_plan(scope, &self.gate_only_plan(), &actuals);
            return abstained(degradations);
        }
        actuals.gate = Some("passed".to_string());

        let intent = self.parser.analyze(question);
        meter.slm_calls += 1;
        scope.event("intent.parsed", || {
            format!(
                "entities={} plain_lookup={} comparative={}",
                intent.entities.len(),
                intent.is_plain_lookup(),
                intent.comparative
            )
        });
        actuals.tag = Some(format!(
            "entities={} plain_lookup={} comparative={}",
            intent.entities.len(),
            intent.is_plain_lookup(),
            intent.comparative
        ));

        // Plan synthesis: candidate relational plans are synthesized up
        // front (synthesis is pure), faulted tables marked without
        // synthesis — exactly the tables the ladder never synthesizes.
        let structured = self.config.enable_synthesis && !intent.is_plain_lookup();
        let structured_start = tracekit::wall::Stopwatch::start();
        let candidates = if structured { self.plan_candidates(&intent) } else { Vec::new() };
        let logical = self.assemble_logical(&intent, &candidates, structured);
        self.metrics.incr(Metric::PlannerPlansBuilt);

        // Structured branch: first signal-bearing candidate wins; every
        // failure on the way is bookkept like the ladder's.
        if structured {
            let limits = ExecLimits { max_join_rows: governors.max_join_rows };
            let mut failures: Vec<(String, String)> = Vec::new();
            let mut hit: Option<(String, Table)> = None;
            for (name, state) in &candidates {
                match state {
                    CandidatePlan::Faulted => {
                        if let Err(f) = faults.check(Site::RelExec, name) {
                            self.metrics.incr(Metric::FaultsFired);
                            scope.event("fault.fired", || f.to_string());
                            failures.push((name.clone(), f.to_string()));
                            actuals.structured.insert(name.clone(), format!("fault: {f}"));
                        }
                    }
                    CandidatePlan::Unplannable(e) => {
                        self.metrics.incr(Metric::RelSynthesisErrors);
                        failures.push((name.clone(), format!("synthesis: {e}")));
                        actuals.structured.insert(name.clone(), format!("synthesis failed: {e}"));
                    }
                    CandidatePlan::Planned(plan) => {
                        let (outcome, stats) = self.db.run_plan_with_limits_stats(plan, &limits);
                        self.metrics.incr(Metric::RelPlansExecuted);
                        self.metrics.add(Metric::RelRowsScanned, stats.rows_scanned as u64);
                        self.metrics.add(Metric::RelRowsJoined, stats.rows_joined as u64);
                        match outcome {
                            Ok(result) if has_signal(&result) => {
                                self.metrics.observe(Hist::RelResultRows, result.num_rows() as u64);
                                actuals.structured.insert(
                                    name.clone(),
                                    format!("rows={} (signal)", result.num_rows()),
                                );
                                hit = Some((name.clone(), result));
                                break;
                            }
                            Ok(result) => {
                                actuals.structured.insert(
                                    name.clone(),
                                    format!("rows={} (no signal)", result.num_rows()),
                                );
                            }
                            Err(e) => {
                                if matches!(e, RelError::ResourceExhausted { .. }) {
                                    self.metrics.incr(Metric::RelBudgetHits);
                                } else {
                                    self.metrics.incr(Metric::RelExecErrors);
                                }
                                failures.push((name.clone(), format!("execution: {e}")));
                                actuals
                                    .structured
                                    .insert(name.clone(), format!("execution error: {e}"));
                            }
                        }
                    }
                }
            }
            self.metrics.record_stage(Stage::AnswerStructured, structured_start.elapsed_ns());
            if let Some((table, result)) = hit {
                let text = render_structured(&intent, &self.db, &table, &result);
                if !text.is_empty() {
                    let entropy_start = tracekit::wall::Stopwatch::start();
                    let evidence = vec![SupportedAnswer::new(text.clone(), 6.0)];
                    let report = self.estimator.estimate(question, &evidence);
                    self.metrics.record_stage(Stage::AnswerEntropy, entropy_start.elapsed_ns());
                    self.record_entropy(&report, meter);
                    let confidence = report.confidence();
                    scope.rung("structured", RungOutcome::Succeeded, || {
                        format!("table '{table}' ({} result rows)", result.num_rows())
                    });
                    scope.set_entropy(entropy_verdict(&report, confidence, false));
                    actuals.entail = Some(format!(
                        "samples={} clusters={} confidence={confidence:.2}",
                        report.n_samples, report.n_clusters
                    ));
                    actuals.outcome = Some("structured".to_string());
                    self.set_physical_plan(scope, &logical, &actuals);
                    return Answer {
                        text,
                        confidence,
                        entropy: report,
                        route: Route::Structured { table: table.clone() },
                        provenance: vec![Provenance::TableRows { table, rows: result.num_rows() }],
                        result_table: Some(result),
                        degradations,
                        trace: None,
                    };
                }
            }
            match failures.last() {
                Some((table, err)) => {
                    scope.rung("structured", RungOutcome::Failed, || {
                        format!("last failure on '{table}': {err}")
                    });
                    degradations.push(Degradation::new(
                        component::REL_EXEC,
                        format!("structured route failed on '{table}': {err}"),
                    ));
                }
                None => {
                    scope.rung("structured", RungOutcome::Failed, || {
                        "no table produced a signal-bearing result".to_string()
                    });
                    degradations.push(Degradation::new(
                        component::ENGINE_STRUCTURED,
                        "no table produced a signal-bearing result",
                    ));
                }
            }
        } else {
            scope.rung("structured", RungOutcome::Skipped, || {
                if self.config.enable_synthesis {
                    "plain lookup intent".to_string()
                } else {
                    "operator synthesis disabled".to_string()
                }
            });
        }

        // Retrieval branch: identical traversal / dense-fallback semantics
        // to the ladder.
        let retrieval_start = tracekit::wall::Stopwatch::start();
        let hits = if self.config.enable_topology {
            if let Err(f) = faults.check(Site::GraphTraverse, question) {
                self.metrics.incr(Metric::FaultsFired);
                self.metrics.incr(Metric::DenseFallbackQueries);
                scope.event("fault.fired", || f.to_string());
                scope.set_traversal(TraversalTrace {
                    dense_fallback: true,
                    ..TraversalTrace::default()
                });
                degradations.push(Degradation::new(
                    component::GRAPH_TRAVERSE,
                    format!("topology traversal unavailable: {f}; using dense retrieval"),
                ));
                actuals.retrieval = Some(format!("dense fallback ({f})"));
                self.dense_retrieve_metered(question, meter)
            } else {
                let (hits, stats) = self.traverse(question, self.config.retrieval_top_k);
                // One SLM call for anchor entity tagging; traversal work
                // and posting scans are pure functions of query + corpus.
                meter.slm_calls += 1;
                meter.nodes_popped += stats.nodes_popped as u64;
                meter.postings_scanned += stats.postings_scanned as u64;
                self.metrics.incr(Metric::TraverseQueries);
                self.metrics.add(Metric::TraverseAnchors, stats.anchors as u64);
                self.metrics.add(Metric::TraverseNodesTouched, stats.nodes_touched as u64);
                self.metrics.add(Metric::TraverseNodesPopped, stats.nodes_popped as u64);
                self.metrics.add(Metric::TraverseChunksScored, stats.chunks_scored as u64);
                self.metrics.observe(Hist::TraverseFrontier, stats.nodes_touched as u64);
                if stats.lexical_fallback {
                    self.metrics.incr(Metric::TraverseLexicalFallback);
                }
                scope.set_traversal(TraversalTrace {
                    anchors: stats.anchors,
                    nodes_touched: stats.nodes_touched,
                    nodes_popped: stats.nodes_popped,
                    chunks_scored: stats.chunks_scored,
                    frontier_capped: stats.frontier_capped,
                    lexical_fallback: stats.lexical_fallback,
                    dense_fallback: false,
                });
                if stats.frontier_capped {
                    self.metrics.incr(Metric::TraverseFrontierCapped);
                    degradations.push(Degradation::new(
                        component::GRAPH_TRAVERSE,
                        format!(
                            "traversal frontier capped at {} nodes; candidates truncated",
                            self.topo.config().max_frontier
                        ),
                    ));
                }
                actuals.retrieval = Some(format!(
                    "anchors={} nodes_touched={} chunks_scored={} hits={}",
                    stats.anchors,
                    stats.nodes_touched,
                    stats.chunks_scored,
                    hits.len()
                ));
                hits
            }
        } else {
            scope.set_traversal(TraversalTrace {
                dense_fallback: true,
                ..TraversalTrace::default()
            });
            let hits = self.dense_retrieve_metered(question, meter);
            actuals.retrieval = Some(format!("dense scan hits={}", hits.len()));
            hits
        };
        self.metrics.record_stage(Stage::AnswerRetrieval, retrieval_start.elapsed_ns());
        let chunk_triples: Vec<(usize, String, f64)> = hits
            .iter()
            .filter_map(|h| {
                self.docs.chunk(h.chunk_id).ok().map(|c| (c.id, c.text.clone(), h.score))
            })
            .collect();
        let evidence = extract_evidence_grounded(question, &chunk_triples, 6, &intent.entities);
        let supported = to_supported_answers(&evidence);
        actuals.extract = Some(format!("evidence={} sentences", evidence.len()));
        let entropy_start = tracekit::wall::Stopwatch::start();
        let report = self.estimator.estimate(question, &supported);
        self.metrics.record_stage(Stage::AnswerEntropy, entropy_start.elapsed_ns());
        self.record_entropy(&report, meter);
        let confidence = report.confidence();
        actuals.entail = Some(format!(
            "samples={} clusters={} confidence={confidence:.2}",
            report.n_samples, report.n_clusters
        ));

        let chunks: Vec<usize> = evidence.iter().map(|e| e.chunk_id).collect();
        let provenance: Vec<Provenance> = evidence
            .iter()
            .filter_map(|e| {
                self.docs
                    .chunk(e.chunk_id)
                    .ok()
                    .map(|c| Provenance::Chunk { chunk_id: c.id, doc_id: c.doc_id })
            })
            .collect();

        if supported.is_empty() || confidence < self.config.abstain_confidence {
            scope.rung("retrieval", RungOutcome::Failed, || {
                if supported.is_empty() {
                    "no grounded supporting evidence".to_string()
                } else {
                    format!(
                        "confidence {confidence:.2} below abstain threshold {:.2}",
                        self.config.abstain_confidence
                    )
                }
            });
            scope.set_entropy(entropy_verdict(&report, confidence, true));
            degradations.push(if supported.is_empty() {
                Degradation::new(component::RETRIEVAL_EVIDENCE, "no grounded supporting evidence")
            } else {
                Degradation::new(
                    component::ENTROPY_CONFIDENCE,
                    format!(
                        "confidence {confidence:.2} below abstain threshold {:.2}",
                        self.config.abstain_confidence
                    ),
                )
            });
            actuals.confidence = Some(if supported.is_empty() {
                "abstained: no grounded supporting evidence".to_string()
            } else {
                format!(
                    "abstained: confidence {confidence:.2} below threshold {:.2}",
                    self.config.abstain_confidence
                )
            });
            actuals.outcome = Some("abstained".to_string());
            self.set_physical_plan(scope, &logical, &actuals);
            return Answer {
                text: "This cannot be determined from the available data.".to_string(),
                confidence,
                entropy: report,
                route: Route::Abstained,
                provenance,
                result_table: None,
                degradations,
                trace: None,
            };
        }

        scope.rung("retrieval", RungOutcome::Succeeded, || {
            format!("{} evidence sentences from {} chunks", evidence.len(), chunks.len())
        });
        scope.set_entropy(entropy_verdict(&report, confidence, false));
        let text = report.top_answer.clone().unwrap_or_else(|| evidence[0].text.clone());
        let route = if structured {
            Route::Hybrid { table: None, chunks }
        } else {
            Route::Unstructured { chunks }
        };
        actuals.confidence = Some(format!("passed: confidence {confidence:.2}"));
        actuals.outcome = Some(route.label().to_string());
        self.set_physical_plan(scope, &logical, &actuals);
        Answer {
            text,
            confidence,
            entropy: report,
            route,
            provenance,
            result_table: None,
            degradations,
            trace: None,
        }
    }

    /// Synthesizes the per-table relational candidates in ladder order
    /// (native tables first, `extracted` last). Tables the deterministic
    /// fault plan hits are marked [`CandidatePlan::Faulted`] without
    /// synthesis — the ladder never synthesizes them either, and the
    /// bookkeeping for both is deferred to execution.
    fn plan_candidates(&self, intent: &QueryIntent) -> Vec<(String, CandidatePlan)> {
        let faults = self.config.faults;
        let mut names: Vec<String> = self.db.table_names().into_iter().map(String::from).collect();
        names.sort_by_key(|n| (n == "extracted", n.clone()));
        names
            .into_iter()
            .map(|name| {
                let state = if faults.check(Site::RelExec, &name).is_err() {
                    CandidatePlan::Faulted
                } else {
                    match self.synthesizer.synthesize(intent, &self.db, &name) {
                        Ok(p) => CandidatePlan::Planned(p),
                        Err(e) => CandidatePlan::Unplannable(e.to_string()),
                    }
                };
                (name, state)
            })
            .collect()
    }

    /// Assembles the unified logical plan for one query: an entropy gate
    /// admitting a semantic-tagging node over ordered alternatives —
    /// entailment-verified relational candidates, a confidence-gated
    /// retrieval pipeline (topology traversal with dense fallback, or
    /// dense-only), and terminal abstention.
    fn assemble_logical(
        &self,
        intent: &QueryIntent,
        candidates: &[(String, CandidatePlan)],
        structured: bool,
    ) -> LogicalNode {
        let samples = self.config.entropy_samples;
        let top_k = self.config.retrieval_top_k;
        let mut branches: Vec<LogicalNode> = Vec::new();
        if structured {
            let alts = candidates
                .iter()
                .map(|(table, plan)| LogicalNode::Relational {
                    table: table.clone(),
                    plan: plan.clone(),
                })
                .collect();
            branches.push(LogicalNode::SemEntail {
                samples,
                child: Box::new(LogicalNode::Alternatives { children: alts }),
            });
        }
        let retrieval = if self.config.enable_topology {
            LogicalNode::GraphTraverse {
                top_k,
                max_frontier: self.topo.config().max_frontier,
                fallback: Box::new(LogicalNode::DenseScan { top_k, dims: self.dense.dims() }),
            }
        } else {
            LogicalNode::DenseScan { top_k, dims: self.dense.dims() }
        };
        branches.push(LogicalNode::ConfidenceGate {
            threshold: self.config.abstain_confidence,
            child: Box::new(LogicalNode::SemEntail {
                samples,
                child: Box::new(LogicalNode::SemExtract {
                    max_sentences: 6,
                    child: Box::new(retrieval),
                }),
            }),
        });
        branches.push(LogicalNode::Abstain);
        LogicalNode::EntropyGate {
            samples,
            floor: self.config.governors.entropy_sample_floor,
            child: Box::new(LogicalNode::SemTag {
                entities: intent.entities.len(),
                plain_lookup: intent.is_plain_lookup(),
                comparative: intent.comparative,
                child: Box::new(LogicalNode::Alternatives { children: branches }),
            }),
        }
    }

    /// The degenerate plan recorded when an admission gate abstains before
    /// any plan could be built.
    fn gate_only_plan(&self) -> LogicalNode {
        LogicalNode::EntropyGate {
            samples: self.config.entropy_samples,
            floor: self.config.governors.entropy_sample_floor,
            child: Box::new(LogicalNode::Abstain),
        }
    }

    /// Lowers the logical plan to its costed physical form and records it
    /// in the trace scope. The closure only runs when tracing is enabled,
    /// so the planner keeps the zero-cost-when-disabled contract.
    fn set_physical_plan(
        &self,
        scope: &mut TraceScope,
        logical: &LogicalNode,
        actuals: &ExecActuals,
    ) {
        let model = CostModel::new(&self.stats);
        scope.set_plan(|| physical::lower(logical, &model, actuals).render());
    }

    /// Records one entropy estimate in the closed metric registry and on
    /// the per-query resource meter (one SLM call, `n_samples` samples).
    fn record_entropy(&self, report: &unisem_entropy::EntropyReport, meter: &mut ResourceMeter) {
        self.metrics.incr(Metric::EntropyEstimates);
        self.metrics.add(Metric::EntropySamples, report.n_samples as u64);
        self.metrics.add(Metric::EntropyClusters, report.n_clusters as u64);
        meter.slm_calls += 1;
        meter.slm_samples += report.n_samples as u64;
    }

    /// Dense retrieval with resource-meter accounting: one SLM call (the
    /// query embedding) plus one similarity comparison per stored vector.
    fn dense_retrieve_metered(
        &self,
        question: &str,
        meter: &mut ResourceMeter,
    ) -> Vec<RetrievalResult> {
        meter.slm_calls += 1;
        meter.dense_compared += self.dense.len() as u64;
        self.dense.retrieve(question, self.config.retrieval_top_k)
    }

    /// Answers a batch of independent questions across the configured
    /// pool ([`ParallelConfig`]), returning answers in input order.
    ///
    /// Each question is answered exactly as [`UnifiedEngine::answer`]
    /// would sequentially — all per-question randomness is derived from
    /// the engine seed and the question itself, never from scheduling — so
    /// the output is byte-identical for any thread count, including 1.
    /// When a trace sink is active, each query's block is rendered inside
    /// the parallel map but written here, sequentially, in input order —
    /// cross-query interleaving in the sink is unrepresentable.
    pub fn answer_batch<S: AsRef<str> + Sync>(&self, questions: &[S]) -> Vec<Answer> {
        self.metrics.incr(Metric::BatchCalls);
        self.metrics.add(Metric::BatchItems, questions.len() as u64);
        self.metrics.add(Metric::BatchChunks, parkit::auto_chunk_count(questions.len()) as u64);
        let traced =
            self.config.parallel.pool().par_map(questions, |q| self.answer_traced(q.as_ref()));
        traced
            .into_iter()
            .map(|(answer, block)| {
                if let Some(block) = block {
                    self.sink.write_block(&block);
                }
                answer
            })
            .collect()
    }
}

/// An abstention emitted before entropy estimation could run (generator
/// fault or sample floor): zeroed report, zero confidence.
fn abstained(degradations: Vec<Degradation>) -> Answer {
    Answer {
        text: "This cannot be determined from the available data.".to_string(),
        confidence: 0.0,
        entropy: unisem_entropy::EntropyReport {
            n_samples: 0,
            n_clusters: 0,
            semantic_entropy: 0.0,
            discrete_semantic_entropy: 0.0,
            predictive_entropy: 0.0,
            lexical_variance: 0.0,
            top_answer: None,
        },
        route: Route::Abstained,
        provenance: Vec::new(),
        result_table: None,
        degradations,
        trace: None,
    }
}

/// Packs an entropy report + final confidence into the trace verdict.
fn entropy_verdict(
    report: &unisem_entropy::EntropyReport,
    confidence: f64,
    abstained: bool,
) -> EntropyVerdict {
    EntropyVerdict {
        n_samples: report.n_samples,
        n_clusters: report.n_clusters,
        discrete_semantic_entropy: report.discrete_semantic_entropy,
        confidence,
        abstained,
    }
}

/// A result carries signal when it has rows and at least one non-null cell
/// in its final (aggregate) column.
pub(crate) fn has_signal(result: &Table) -> bool {
    if result.is_empty() || result.num_columns() == 0 {
        return false;
    }
    let last = result.num_columns() - 1;
    (0..result.num_rows()).any(|r| !result.cell(r, last).is_null())
}

/// Renders a structured result into answer text appropriate for the intent.
fn render_structured(intent: &QueryIntent, db: &Database, table: &str, result: &Table) -> String {
    if result.is_empty() {
        return String::new();
    }
    // Single cell: the aggregate value.
    if result.num_rows() == 1 && result.num_columns() == 1 {
        let v = result.cell(0, 0);
        if v.is_null() {
            return String::new();
        }
        let label = intent
            .aggregate
            .as_ref()
            .map(|(f, _)| match f {
                AggFunc::Sum => "total",
                AggFunc::Avg => "average",
                AggFunc::Count | AggFunc::CountDistinct => "count",
                AggFunc::Min => "minimum",
                AggFunc::Max => "maximum",
            })
            .unwrap_or("value");
        return format!("The {label} is {v}.");
    }
    // Comparative / superlative: headline only the top row, so the answer
    // names exactly one entity.
    if intent.comparative
        || matches!(
            intent.aggregate.as_ref().map(|(f, _)| f),
            Some(AggFunc::Max) | Some(AggFunc::Min)
        )
    {
        let subject = result.cell(0, 0);
        let value = result.cell(0, result.num_columns() - 1);
        return format!("{subject} ranks first with {value}.");
    }
    // Multi-entity selection: list distinct subject values.
    let subject_col = db
        .table(table)
        .ok()
        .and_then(|t| resolve_subject_column(t.schema()))
        .and_then(|c| result.schema().index_of(&c))
        .unwrap_or(0);
    let mut seen = std::collections::BTreeSet::new();
    for r in 0..result.num_rows() {
        let v = result.cell(r, subject_col);
        if !v.is_null() {
            seen.insert(v.to_string());
        }
    }
    if seen.is_empty() {
        return String::new();
    }
    format!("Qualifying: {}.", seen.into_iter().collect::<Vec<_>>().join(", "))
}

/// Public wrapper over [`render_structured`] for the baseline pipelines.
pub(crate) fn render_structured_public(
    intent: &QueryIntent,
    db: &Database,
    table: &str,
    result: &Table,
) -> String {
    if has_signal(result) {
        render_structured(intent, db, table, result)
    } else {
        String::new()
    }
}
