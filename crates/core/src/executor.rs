//! The answer path: one question in, one plan built and run, one
//! [`Answer`] out (DESIGN.md §11).

use faultkit::Site;
use tracekit::{component, Hist, Metric, QueryTrace, ResourceMeter, Stage};
use unisem_entropy::EntropyReport;
use unisem_relstore::plan::AggFunc;
use unisem_relstore::{Database, ExecLimits, RelError, Table};
use unisem_retrieval::RetrievalResult;
use unisem_semops::synthesize::resolve_subject_column;
use unisem_semops::QueryIntent;
use unisem_slm::SupportedAnswer;

use crate::answer::{Answer, Degradation, Provenance, Route};
use crate::engine::UnifiedEngine;
use crate::evidence::{extract_evidence_grounded, to_supported_answers, EvidenceSentence};
use crate::planner::physical::{self, ExecActuals};
use crate::planner::{has_signal, prune_reason, CandidatePlan, CostModel, LogicalNode};

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
    /// (`config.trace == false` and an off sink) no actual is recorded —
    /// every recording call is one branch, no allocation — no plan is
    /// rendered, the block is `None`, and the sink is never touched.
    fn answer_traced(&self, question: &str) -> (Answer, Option<String>) {
        let start = tracekit::wall::Stopwatch::start();
        let sinking = !self.sink.is_off();
        let traced = self.config.trace || sinking;

        let mut meter = ResourceMeter::default();
        let (mut answer, plan) = self.execute_query(question, traced, &mut meter);

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
        self.metrics.observe(Hist::MeterPostingsScanned, meter.postings_scanned);
        self.metrics.observe(Hist::MeterNodesPopped, meter.nodes_popped);
        self.metrics.observe(Hist::MeterSlmCalls, meter.slm_calls);
        self.metrics.observe(Hist::MeterSlmSamples, meter.slm_samples);
        self.metrics.record_stage(Stage::AnswerTotal, start.elapsed_ns());

        let trace = traced.then(|| QueryTrace {
            question: question.to_string(),
            route: answer.route.label().to_string(),
            plan,
            meter: Some(meter),
        });
        let block = trace.as_ref().filter(|_| sinking).map(QueryTrace::to_jsonl);
        if self.config.trace {
            answer.trace = trace;
        }
        (answer, block)
    }

    /// Resolves one question (DESIGN.md §11): admit it, tag it, assemble
    /// its logical plan over every substrate, and run that plan — the
    /// plan's alternatives in plan order, each operator with the
    /// parameters its node carries. When `traced`, it also returns the
    /// rendered physical plan, with per-node estimated vs actual costs,
    /// for the explain trace.
    ///
    /// Every downgrade on the way is an [`Answer::degradations`] entry
    /// (the degradation contract, DESIGN.md §8).
    fn execute_query(
        &self,
        question: &str,
        traced: bool,
        meter: &mut ResourceMeter,
    ) -> (Answer, Option<String>) {
        let mut run = Run {
            question,
            traced,
            meter,
            degradations: Vec::new(),
            actuals: ExecActuals::default(),
            structured: false,
        };
        // The admission gate runs before any plan is built: without a
        // working generator or enough entropy samples nothing downstream
        // can be certified, so the only plan is the gate itself.
        let gate = self.entropy_gate(LogicalNode::Abstain);
        let (plan, mut answer) = if self.exec_entropy_gate(&gate, &mut run) {
            let intent = self.exec_sem_tag(&mut run);
            let clock = tracekit::wall::Stopwatch::start();
            let plan = self.assemble_logical(&intent);
            self.metrics.incr(Metric::PlannerPlansBuilt);
            let answer = self.exec_alternatives(&plan, &intent, clock, &mut run);
            (plan, answer)
        } else {
            (gate, abstained())
        };
        run.actual(|a| a.outcome = Some(answer.route.label().to_string()));
        let rendered = run.traced.then(|| {
            physical::lower(&plan, &CostModel::new(&self.stats), &self.db, &run.actuals).render()
        });
        answer.degradations = run.degradations;
        (answer, rendered)
    }

    /// `EntropyGate`: a generator fault or a sample count below the
    /// governor floor means no confidence can be certified — and an
    /// uncertifiable answer is worse than an abstention (§III.D). Returns
    /// whether the query is admitted.
    fn exec_entropy_gate(&self, gate: &LogicalNode, run: &mut Run) -> bool {
        let LogicalNode::EntropyGate { samples, floor, .. } = gate else { return true };
        if let Err(f) = self.config.faults.check(Site::SlmGenerate, run.question) {
            self.metrics.incr(Metric::FaultsFired);
            run.actual(|a| a.gate = Some(format!("failed: {f}")));
            run.degradations.push(Degradation::new(
                component::SLM_GENERATE,
                format!("answer sampling unavailable: {f}"),
            ));
            return false;
        }
        if samples < floor {
            run.actual(|a| a.gate = Some(format!("failed: {samples} samples below floor {floor}")));
            run.degradations.push(Degradation::new(
                component::ENTROPY_SAMPLES,
                format!("{samples} entropy samples below floor {floor}; confidence uncertifiable"),
            ));
            return false;
        }
        run.actual(|a| a.gate = Some("passed".to_string()));
        true
    }

    /// `SemTag`: intent analysis, one SLM call.
    fn exec_sem_tag(&self, run: &mut Run) -> QueryIntent {
        let intent = self.parser.analyze(run.question);
        run.meter.slm_calls += 1;
        run.actual(|a| {
            a.tag = Some(format!(
                "entities={} plain_lookup={} comparative={}",
                intent.entities.len(),
                intent.is_plain_lookup(),
                intent.comparative
            ))
        });
        intent
    }

    /// `Alternatives`: the plan's branches in plan order; the first to
    /// produce an answer wins, and falling off the end — `Abstain` — is
    /// an abstention.
    fn exec_alternatives(
        &self,
        plan: &LogicalNode,
        intent: &QueryIntent,
        clock: tracekit::wall::Stopwatch,
        run: &mut Run,
    ) -> Answer {
        for branch in plan.alternatives() {
            let answer = match branch {
                LogicalNode::SemEntail { samples, child } => {
                    self.exec_structured(child.alternatives(), *samples, intent, clock, run)
                }
                LogicalNode::ConfidenceGate { threshold, child } => {
                    self.exec_retrieval(*threshold, child, intent, run)
                }
                _ => None,
            };
            if let Some(answer) = answer {
                return answer;
            }
        }
        abstained()
    }

    /// The structured branch (§III.C task 2): `SemEntail` over the
    /// `Alternatives` of relational candidates. The first signal-bearing
    /// candidate is rendered and its stability confirmed by entropy
    /// sampling; otherwise the last failure on the way is the reason the
    /// branch steps down. `clock` has been running since plan synthesis.
    fn exec_structured(
        &self,
        candidates: &[LogicalNode],
        samples: usize,
        intent: &QueryIntent,
        clock: tracekit::wall::Stopwatch,
        run: &mut Run,
    ) -> Option<Answer> {
        run.structured = true;
        let mut failures: Vec<(&str, String)> = Vec::new();
        let hit = candidates.iter().find_map(|c| self.exec_relational(c, &mut failures, run));
        self.metrics.record_stage(Stage::AnswerStructured, clock.elapsed_ns());
        if let Some((table, result)) = hit {
            let text = render_structured(intent, &self.db, table, &result);
            if !text.is_empty() {
                // Deterministic plan output = maximally grounded evidence.
                let evidence = [SupportedAnswer::new(text.clone(), STRUCTURED_SUPPORT)];
                let (report, confidence) =
                    self.exec_sem_entail(samples, &evidence, |a| &mut a.structured_entail, run);
                return Some(Answer {
                    text,
                    confidence,
                    entropy: report,
                    route: Route::Structured { table: table.to_string() },
                    provenance: vec![Provenance::TableRows {
                        table: table.to_string(),
                        rows: result.num_rows(),
                    }],
                    result_table: Some(result),
                    degradations: Vec::new(),
                    trace: None,
                });
            }
        }
        match failures.last() {
            Some((table, err)) => run.degradations.push(Degradation::new(
                component::REL_EXEC,
                format!("structured route failed on '{table}': {err}"),
            )),
            None => run.degradations.push(Degradation::new(
                component::ENGINE_STRUCTURED,
                "no table produced a signal-bearing result",
            )),
        }
        None
    }

    /// `Relational`: one candidate table. An injected fault, a synthesis
    /// error, an execution error or a tripped join-row governor is a
    /// failure recorded for the caller; a result without signal is
    /// passed over silently, and so is a pruned candidate, which provably
    /// has none. Returns the table and its signal-bearing result.
    fn exec_relational<'p>(
        &self,
        node: &'p LogicalNode,
        failures: &mut Vec<(&'p str, String)>,
        run: &mut Run,
    ) -> Option<(&'p str, Table)> {
        let LogicalNode::Relational { table, plan } = node else { return None };
        match plan {
            CandidatePlan::Faulted => {
                if let Err(f) = self.config.faults.check(Site::RelExec, table) {
                    self.metrics.incr(Metric::FaultsFired);
                    run.candidate_actual(table, || format!("fault: {f}"));
                    failures.push((table, f.to_string()));
                }
            }
            CandidatePlan::Unplannable(e) => {
                self.metrics.incr(Metric::RelSynthesisErrors);
                run.candidate_actual(table, || format!("synthesis failed: {e}"));
                failures.push((table, format!("synthesis: {e}")));
            }
            CandidatePlan::Pruned { .. } => {
                self.metrics.incr(Metric::PlannerCandidatesPruned);
                run.candidate_actual(table, || "not executed".to_string());
            }
            CandidatePlan::Planned(rel) => {
                let limits = ExecLimits { max_join_rows: self.config.governors.max_join_rows };
                let (outcome, stats) = self.db.run_plan_with_limits_stats(rel, &limits);
                self.metrics.incr(Metric::RelPlansExecuted);
                self.metrics.add(Metric::RelRowsScanned, stats.rows_scanned as u64);
                self.metrics.add(Metric::RelRowsJoined, stats.rows_joined as u64);
                match outcome {
                    Ok(result) => {
                        let signal = has_signal(&result);
                        run.candidate_actual(table, || {
                            let verdict = if signal { "signal" } else { "no signal" };
                            format!("rows={} ({verdict})", result.num_rows())
                        });
                        if signal {
                            self.metrics.observe(Hist::RelResultRows, result.num_rows() as u64);
                            return Some((table, result));
                        }
                    }
                    Err(e) => {
                        self.metrics.incr(if matches!(e, RelError::ResourceExhausted { .. }) {
                            Metric::RelBudgetHits
                        } else {
                            Metric::RelExecErrors
                        });
                        run.candidate_actual(table, || format!("execution error: {e}"));
                        failures.push((table, format!("execution: {e}")));
                    }
                }
            }
        }
        None
    }

    /// The retrieval branch (§III.B): `ConfidenceGate` over `SemEntail`
    /// over `SemExtract` over a retrieval operator. Always answers — the
    /// gate turns weak evidence into an abstention.
    fn exec_retrieval(
        &self,
        threshold: f64,
        entail: &LogicalNode,
        intent: &QueryIntent,
        run: &mut Run,
    ) -> Option<Answer> {
        let LogicalNode::SemEntail { samples, child } = entail else { return None };
        let LogicalNode::SemExtract { max_sentences, child: retrieval } = &**child else {
            return None;
        };
        let clock = tracekit::wall::Stopwatch::start();
        let hits = match &**retrieval {
            LogicalNode::GraphTraverse { top_k, max_frontier, fallback } => {
                self.exec_graph_traverse(*top_k, *max_frontier, fallback, run)
            }
            scan => self.exec_lexical_scan(scan, run),
        };
        self.metrics.record_stage(Stage::AnswerRetrieval, clock.elapsed_ns());
        let evidence = self.exec_sem_extract(*max_sentences, &hits, intent, run);
        let evidence_answers = to_supported_answers(&evidence);
        let (report, confidence) =
            self.exec_sem_entail(*samples, &evidence_answers, |a| &mut a.retrieval_entail, run);

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
        let passed = self.exec_confidence_gate(threshold, evidence.len(), confidence, run);
        let (text, route) = match evidence.first() {
            Some(first) if passed => (
                report.top_answer.clone().unwrap_or_else(|| first.text.clone()),
                if run.structured {
                    Route::Hybrid { table: None, chunks }
                } else {
                    Route::Unstructured { chunks }
                },
            ),
            _ => (ABSTENTION.to_string(), Route::Abstained),
        };
        Some(Answer {
            text,
            confidence,
            entropy: report,
            route,
            provenance,
            result_table: None,
            degradations: Vec::new(),
            trace: None,
        })
    }

    /// `GraphTraverse`: topology retrieval. An injected traversal fault
    /// runs the `fallback` operator instead of failing the query (the
    /// traversal's actual then names the fault, the fallback's its scan); a
    /// frontier capped by the governor is a recorded degradation, and the
    /// traversal's actual ends in `frontier_capped`.
    fn exec_graph_traverse(
        &self,
        top_k: usize,
        max_frontier: usize,
        fallback: &LogicalNode,
        run: &mut Run,
    ) -> Vec<RetrievalResult> {
        if let Err(f) = self.config.faults.check(Site::GraphTraverse, run.question) {
            self.metrics.incr(Metric::FaultsFired);
            self.metrics.incr(Metric::TraverseFaultFallbacks);
            run.degradations.push(Degradation::new(
                component::GRAPH_TRAVERSE,
                format!("topology traversal unavailable: {f}; using lexical retrieval"),
            ));
            run.actual(|a| a.traverse = Some(format!("fault: {f}")));
            return self.exec_lexical_scan(fallback, run);
        }
        let (hits, stats) = self.traverse(run.question, top_k);
        // One SLM call for anchor entity tagging; traversal work and
        // posting scans are pure functions of query + corpus.
        run.meter.slm_calls += 1;
        run.meter.nodes_popped += stats.nodes_popped as u64;
        run.meter.postings_scanned += stats.postings_scanned as u64;
        self.metrics.incr(Metric::TraverseQueries);
        self.metrics.add(Metric::TraverseAnchors, stats.anchors as u64);
        self.metrics.add(Metric::TraverseNodesTouched, stats.nodes_touched as u64);
        self.metrics.add(Metric::TraverseNodesPopped, stats.nodes_popped as u64);
        self.metrics.add(Metric::TraverseChunksScored, stats.chunks_scored as u64);
        self.metrics.observe(Hist::TraverseFrontier, stats.nodes_touched as u64);
        if stats.lexical_fallback {
            self.metrics.incr(Metric::TraverseLexicalFallback);
        }
        if stats.frontier_capped {
            self.metrics.incr(Metric::TraverseFrontierCapped);
            run.degradations.push(Degradation::new(
                component::GRAPH_TRAVERSE,
                format!("traversal frontier capped at {max_frontier} nodes; candidates truncated"),
            ));
        }
        run.actual(|a| {
            a.traverse = Some(format!(
                "anchors={} nodes_touched={} chunks_scored={} hits={}{}",
                stats.anchors,
                stats.nodes_touched,
                stats.chunks_scored,
                hits.len(),
                if stats.frontier_capped { " frontier_capped" } else { "" }
            ))
        });
        hits
    }

    /// `LexicalScan`: BM25 alone — what a traversal without anchors
    /// returns — metered by the postings it walks; no SLM call.
    fn exec_lexical_scan(&self, scan: &LogicalNode, run: &mut Run) -> Vec<RetrievalResult> {
        let LogicalNode::LexicalScan { top_k } = scan else { return Vec::new() };
        let (hits, scanned) = self.lexical_scan(run.question, *top_k);
        run.meter.postings_scanned += scanned as u64;
        run.actual(|a| {
            a.lexical_scan = Some(format!("postings_scanned={scanned} hits={}", hits.len()))
        });
        hits
    }

    /// `SemExtract`: grounded evidence sentences from the retrieved
    /// chunks. When the question names entities, only sentences
    /// mentioning them are admissible — ungrounded context is exactly the
    /// hallucination source §I warns about, and filtering before IDF
    /// weighting also sharpens discriminative terms.
    fn exec_sem_extract(
        &self,
        max_sentences: usize,
        hits: &[RetrievalResult],
        intent: &QueryIntent,
        run: &mut Run,
    ) -> Vec<EvidenceSentence> {
        let chunks: Vec<(usize, String, f64)> = hits
            .iter()
            .filter_map(|h| {
                self.docs.chunk(h.chunk_id).ok().map(|c| (c.id, c.text.clone(), h.score))
            })
            .collect();
        let evidence =
            extract_evidence_grounded(run.question, &chunks, max_sentences, &intent.entities);
        run.actual(|a| a.extract = Some(format!("evidence={} sentences", evidence.len())));
        evidence
    }

    /// `SemEntail`: semantic entropy over `samples` sampled answers — one
    /// SLM call — and the confidence it certifies, recorded as the `actual`
    /// of the branch's own `SemEntail` node.
    fn exec_sem_entail(
        &self,
        samples: usize,
        evidence: &[SupportedAnswer],
        actual: fn(&mut ExecActuals) -> &mut Option<String>,
        run: &mut Run,
    ) -> (EntropyReport, f64) {
        let clock = tracekit::wall::Stopwatch::start();
        let mut estimator = self.estimator.clone();
        estimator.n_samples = samples;
        let report = estimator.estimate(run.question, evidence);
        self.metrics.record_stage(Stage::AnswerEntropy, clock.elapsed_ns());
        self.metrics.incr(Metric::EntropyEstimates);
        self.metrics.add(Metric::EntropySamples, report.n_samples as u64);
        self.metrics.add(Metric::EntropyClusters, report.n_clusters as u64);
        run.meter.slm_calls += 1;
        run.meter.slm_samples += report.n_samples as u64;
        let confidence = report.confidence();
        run.actual(|a| {
            *actual(a) = Some(format!(
                "samples={} clusters={} confidence={confidence:.2}",
                report.n_samples, report.n_clusters
            ))
        });
        (report, confidence)
    }

    /// `ConfidenceGate`: the last rung. `evidence` grounded sentences at
    /// `confidence` pass, or the gate declines to answer and says why.
    fn exec_confidence_gate(
        &self,
        threshold: f64,
        evidence: usize,
        confidence: f64,
        run: &mut Run,
    ) -> bool {
        let grounded = evidence > 0;
        if !grounded || confidence < threshold {
            let (component, reason) = if grounded {
                (
                    component::ENTROPY_CONFIDENCE,
                    format!("confidence {confidence:.2} below abstain threshold {threshold:.2}"),
                )
            } else {
                (component::RETRIEVAL_EVIDENCE, "no grounded supporting evidence".to_string())
            };
            run.actual(|a| {
                a.confidence = Some(if grounded {
                    format!("abstained: confidence {confidence:.2} below threshold {threshold:.2}")
                } else {
                    format!("abstained: {reason}")
                })
            });
            run.degradations.push(Degradation::new(component, reason));
            return false;
        }
        run.actual(|a| a.confidence = Some(format!("passed: confidence {confidence:.2}")));
        true
    }

    /// The relational candidates in plan order (native tables first,
    /// `extracted` last), each synthesized up front — synthesis is pure.
    /// Tables the deterministic fault plan hits are marked
    /// [`CandidatePlan::Faulted`] without synthesis; a synthesized plan its
    /// table's value index proves signal-free is [`CandidatePlan::Pruned`]
    /// (DESIGN.md §11g). The order is never changed: which table answers
    /// must not depend on the pruning. The bookkeeping for every candidate
    /// is deferred to its execution.
    fn plan_candidates(&self, intent: &QueryIntent) -> Vec<LogicalNode> {
        let faults = self.config.faults;
        let mut names: Vec<String> = self.db.table_names().into_iter().map(String::from).collect();
        names.sort_by_key(|n| (n == "extracted", n.clone()));
        names
            .into_iter()
            .map(|table| {
                let plan = if faults.check(Site::RelExec, &table).is_err() {
                    CandidatePlan::Faulted
                } else {
                    match self.synthesizer.synthesize(intent, &self.db, &table) {
                        Ok(plan) => match prune_reason(&plan, &self.db) {
                            Some(reason) => CandidatePlan::Pruned { plan, reason },
                            None => CandidatePlan::Planned(plan),
                        },
                        Err(e) => CandidatePlan::Unplannable(e.to_string()),
                    }
                };
                LogicalNode::Relational { table, plan }
            })
            .collect()
    }

    /// Assembles the unified logical plan for one query: an entropy gate
    /// admitting a semantic-tagging node over ordered alternatives —
    /// entailment-verified relational candidates, a confidence-gated
    /// retrieval pipeline (topology traversal with a lexical fallback, or
    /// the lexical scan alone), and terminal abstention. This is the only
    /// place the ablation switches and per-operator parameters are read.
    fn assemble_logical(&self, intent: &QueryIntent) -> LogicalNode {
        let samples = self.config.entropy_samples;
        let top_k = self.config.retrieval_top_k;
        let mut branches: Vec<LogicalNode> = Vec::new();
        if self.config.enable_synthesis && !intent.is_plain_lookup() {
            branches.push(LogicalNode::SemEntail {
                samples,
                child: Box::new(LogicalNode::Alternatives {
                    children: self.plan_candidates(intent),
                }),
            });
        }
        let scan = LogicalNode::LexicalScan { top_k };
        let retrieval = if self.config.enable_topology {
            LogicalNode::GraphTraverse {
                top_k,
                max_frontier: self.topo.config().max_frontier,
                fallback: Box::new(scan),
            }
        } else {
            scan
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
        self.entropy_gate(LogicalNode::SemTag {
            entities: intent.entities.len(),
            plain_lookup: intent.is_plain_lookup(),
            comparative: intent.comparative,
            child: Box::new(LogicalNode::Alternatives { children: branches }),
        })
    }

    /// The admission gate over `child`; over `Abstain` it is the
    /// degenerate plan recorded when the gate itself abstains.
    fn entropy_gate(&self, child: LogicalNode) -> LogicalNode {
        LogicalNode::EntropyGate {
            samples: self.config.entropy_samples,
            floor: self.config.governors.entropy_sample_floor,
            child: Box::new(child),
        }
    }

    /// Answers a batch of independent questions across the configured pool
    /// ([`ParallelConfig`](crate::ParallelConfig)), returning answers in
    /// input order.
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

/// What one query accumulates while its plan runs.
struct Run<'a> {
    question: &'a str,
    /// Whether the query records its explain trace.
    traced: bool,
    meter: &'a mut ResourceMeter,
    degradations: Vec<Degradation>,
    /// Per-operator outcomes for the explain plan; empty unless traced.
    actuals: ExecActuals,
    /// Whether the structured branch ran (hybrid vs unstructured route).
    structured: bool,
}

impl Run<'_> {
    /// Records an operator's actual. `record` — and whatever it formats —
    /// runs only when the query is traced.
    fn actual(&mut self, record: impl FnOnce(&mut ExecActuals)) {
        if self.traced {
            record(&mut self.actuals);
        }
    }

    /// [`Self::actual`] for the relational candidate over `table`.
    fn candidate_actual(&mut self, table: &str, text: impl FnOnce() -> String) {
        self.actual(|a| {
            a.structured.insert(table.to_string(), text());
        });
    }
}

/// The text of every abstention.
const ABSTENTION: &str = "This cannot be determined from the available data.";

/// Support weight of a signal-bearing plan result in entropy sampling.
const STRUCTURED_SUPPORT: f64 = 6.0;

/// An abstention emitted before entropy estimation could run (generator
/// fault or sample floor): zeroed report, zero confidence.
fn abstained() -> Answer {
    Answer {
        text: ABSTENTION.to_string(),
        confidence: 0.0,
        entropy: EntropyReport {
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
        degradations: Vec::new(),
        trace: None,
    }
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
                AggFunc::Count => "count",
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(traced: bool, meter: &mut ResourceMeter) -> Run<'_> {
        Run {
            question: "q",
            traced,
            meter,
            degradations: Vec::new(),
            actuals: ExecActuals::default(),
            structured: false,
        }
    }

    #[test]
    fn untraced_run_records_nothing_and_skips_closures() {
        let mut meter = ResourceMeter::default();
        let mut untraced = run(false, &mut meter);
        untraced.actual(|_| panic!("an actual must not be formatted untraced"));
        untraced.candidate_actual("t", || panic!("must not run"));
        assert_eq!(untraced.actuals, ExecActuals::default());

        let mut traced = run(true, &mut meter);
        traced.candidate_actual("t", || "rows=1 (signal)".to_string());
        assert_eq!(traced.actuals.structured.get("t").map(String::as_str), Some("rows=1 (signal)"));
    }
}
