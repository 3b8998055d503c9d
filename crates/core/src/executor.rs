//! The answer path: one question in, one plan built and run, one
//! [`Answer`] out (DESIGN.md §11).

use std::fmt;

use faultkit::{InjectedFault, Site};
use tracekit::wall::Stopwatch;
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
use crate::evidence::{extract_stored_evidence, to_supported_answers, EvidenceSentence};
use crate::planner::physical::explain;
use crate::planner::{has_signal, prune_reason, CandidatePlan, CostModel, LogicalNode};

impl UnifiedEngine {
    /// Answers a natural-language question across all ingested modalities.
    ///
    /// Resolution walks a graceful-degradation ladder (DESIGN.md §8):
    /// structured → hybrid → pure retrieval → abstain. Every downgrade —
    /// a failed component, an injected fault, a tripped resource governor
    /// — is recorded in [`Answer::degradations`], so a degraded answer is
    /// always diagnosable and never silent.
    ///
    /// With `config.trace` on, [`Answer::trace`] carries the query's
    /// explain trace. Zero-cost-when-disabled contract: with it off no
    /// actual is recorded — every recording call is one branch, no
    /// allocation — and no plan is rendered.
    pub fn answer(&self, question: &str) -> Answer {
        let start = Stopwatch::start();
        let traced = self.config.trace;

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

        answer.trace = traced.then(|| QueryTrace {
            question: question.to_string(),
            route: answer.route.label().to_string(),
            plan,
            meter: Some(meter),
        });
        answer
    }

    /// Resolves one question (DESIGN.md §11): admit it, tag it, assemble
    /// its logical plan over every substrate, and evaluate that plan with
    /// [`Self::eval`] — each operator with the parameters its node carries.
    /// When `traced`, it also returns the plan it ran, rendered with
    /// per-node estimated vs actual costs, for the explain trace.
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
            actuals: Vec::new(),
            next: 0,
            failure: None,
            structured: false,
            planned: Stopwatch::start(),
        };
        // The admission gate and the tagging node run before any plan is
        // built, at positions 0 and 1: the plan is built from the intent.
        // Without a working generator or enough entropy samples nothing
        // downstream can be certified, so the only plan is the gate itself.
        let plan;
        let mut answer = if self.exec_entropy_gate(&mut run) {
            let intent = self.exec_sem_tag(&mut run);
            run.planned = Stopwatch::start();
            plan = self.assemble_logical(&intent);
            self.metrics.incr(Metric::PlannerPlansBuilt);
            match self.eval(&plan, &intent, &mut run) {
                Some(Value::Answer(answer)) => answer,
                _ => abstained(),
            }
        } else {
            plan = self.entropy_gate(LogicalNode::Abstain);
            abstained()
        };
        // `Abstain` closes every plan: the root's last branch, or the
        // degenerate gate's only child. It shows the route taken.
        run.actual(plan.size() - 1, || answer.route.label().to_string());
        let rendered = run.traced.then(|| {
            let model = CostModel::new(&self.db, &self.docs, self.graph());
            explain(&plan, &model, &self.db, &run.actuals)
        });
        answer.degradations = run.degradations;
        (answer, rendered)
    }

    /// Evaluates `node`'s subtree, numbering the nodes it visits in
    /// pre-order from `run.next`; a subtree that does not run keeps its
    /// positions. Returns what the operator hands its parent, or `None`
    /// when it has nothing to hand up (a candidate without signal, a
    /// branch that steps down).
    fn eval<'p>(
        &self,
        node: &'p LogicalNode,
        intent: &QueryIntent,
        run: &mut Run<'p>,
    ) -> Option<Value<'p>> {
        let at = run.next;
        run.next += 1;
        let value = match node {
            // Both ran before the plan existed (`execute_query`).
            LogicalNode::EntropyGate { child, .. } | LogicalNode::SemTag { child, .. } => {
                self.eval(child, intent, run)
            }
            LogicalNode::Alternatives { children } => {
                children.iter().find_map(|child| self.eval(child, intent, run))
            }
            LogicalNode::Relational { table, plan } => {
                self.exec_relational(at, table, plan, run).map(|rows| Value::Rows(table, rows))
            }
            LogicalNode::GraphTraverse { top_k, max_frontier, fallback } => self
                .exec_graph_traverse(at, *top_k, *max_frontier, run)
                .map(Value::Hits)
                .or_else(|| self.eval(fallback, intent, run)),
            LogicalNode::LexicalScan { top_k } => {
                Some(Value::Hits(self.exec_lexical_scan(at, *top_k, run)))
            }
            LogicalNode::SemExtract { max_sentences, child } => {
                let clock = Stopwatch::start();
                let hits = match self.eval(child, intent, run) {
                    Some(Value::Hits(hits)) => hits,
                    _ => Vec::new(),
                };
                self.metrics.record_stage(Stage::AnswerRetrieval, clock.elapsed_ns());
                Some(Value::Evidence(self.exec_sem_extract(at, *max_sentences, &hits, intent, run)))
            }
            LogicalNode::SemEntail { samples, child } => match self.eval(child, intent, run) {
                Some(Value::Evidence(evidence)) => {
                    let answers = to_supported_answers(&evidence);
                    let (report, confidence) = self.exec_sem_entail(at, *samples, &answers, run);
                    Some(Value::Entailed { evidence, report, confidence })
                }
                rows => self.structured_answer(at, *samples, rows, intent, run).map(Value::Answer),
            },
            LogicalNode::ConfidenceGate { threshold, child } => match self.eval(child, intent, run)
            {
                Some(Value::Entailed { evidence, report, confidence }) => Some(Value::Answer(
                    self.exec_confidence_gate(at, *threshold, evidence, report, confidence, run),
                )),
                _ => None,
            },
            LogicalNode::Abstain => Some(Value::Answer(abstained())),
        };
        run.next = at + node.size();
        value
    }

    /// `EntropyGate`, the plan's root, with the samples and floor
    /// [`Self::entropy_gate`] gives it: a generator fault or a sample count
    /// below the governor floor means no confidence can be certified — and
    /// an uncertifiable answer is worse than an abstention (§III.D).
    /// Returns whether the query is admitted.
    fn exec_entropy_gate(&self, run: &mut Run) -> bool {
        let samples = self.config.entropy_samples;
        let floor = self.config.governors.entropy_sample_floor;
        if let Err(f) = self.config.faults.check(Site::SlmGenerate, run.question) {
            self.metrics.incr(Metric::FaultsFired);
            run.actual(0, || format!("failed: {f}"));
            run.degradations.push(Degradation::new(
                component::SLM_GENERATE,
                format!("answer sampling unavailable: {f}"),
            ));
            return false;
        }
        if samples < floor {
            run.actual(0, || format!("failed: {samples} samples below floor {floor}"));
            run.degradations.push(Degradation::new(
                component::ENTROPY_SAMPLES,
                format!("{samples} entropy samples below floor {floor}; confidence uncertifiable"),
            ));
            return false;
        }
        run.actual(0, || "passed".to_string());
        true
    }

    /// `SemTag`, the gate's child: intent analysis, one SLM call.
    fn exec_sem_tag(&self, run: &mut Run) -> QueryIntent {
        let intent = self.parser.analyze(run.question);
        run.meter.slm_calls += 1;
        run.actual(1, || {
            format!(
                "entities={} plain_lookup={} comparative={}",
                intent.entities.len(),
                intent.is_plain_lookup(),
                intent.comparative
            )
        });
        intent
    }

    /// `SemEntail`, at `at`, over the structured branch's candidates
    /// (§III.C task 2), which have run: the first signal-bearing result,
    /// `rows`, is rendered and its stability confirmed by entropy sampling.
    /// Without one that renders, the branch steps down, and the last
    /// candidate failure, formatted only now, is the reason.
    fn structured_answer(
        &self,
        at: usize,
        samples: usize,
        rows: Option<Value>,
        intent: &QueryIntent,
        run: &mut Run,
    ) -> Option<Answer> {
        self.metrics.record_stage(Stage::AnswerStructured, run.planned.elapsed_ns());
        if let Some(Value::Rows(table, result)) = rows {
            let text = render_structured(intent, &self.db, table, &result);
            if !text.is_empty() {
                // Deterministic plan output = maximally grounded evidence.
                let evidence = [SupportedAnswer::new(text.clone(), STRUCTURED_SUPPORT)];
                let (report, confidence) = self.exec_sem_entail(at, samples, &evidence, run);
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
        run.structured = true;
        run.degradations.push(match run.failure.take() {
            Some((table, failure)) => Degradation::new(
                component::REL_EXEC,
                format!("structured route failed on '{table}': {failure}"),
            ),
            None => Degradation::new(
                component::ENGINE_STRUCTURED,
                "no table produced a signal-bearing result",
            ),
        });
        None
    }

    /// `Relational`, at `at`: one candidate table. An injected fault, a
    /// synthesis error, an execution error or a tripped join-row governor
    /// is the run's latest candidate failure; a result without signal is
    /// passed over silently, and so is a pruned candidate, which provably
    /// has none. Returns the signal-bearing result.
    fn exec_relational<'p>(
        &self,
        at: usize,
        table: &'p str,
        plan: &'p CandidatePlan,
        run: &mut Run<'p>,
    ) -> Option<Table> {
        match plan {
            CandidatePlan::Faulted => {
                if let Err(f) = self.config.faults.check(Site::RelExec, table) {
                    self.metrics.incr(Metric::FaultsFired);
                    run.actual(at, || format!("fault: {f}"));
                    run.failure = Some((table, Failure::Fault(f)));
                }
            }
            CandidatePlan::Unplannable(e) => {
                self.metrics.incr(Metric::RelSynthesisErrors);
                run.actual(at, || format!("synthesis failed: {e}"));
                run.failure = Some((table, Failure::Synthesis(e)));
            }
            CandidatePlan::Pruned { .. } => {
                self.metrics.incr(Metric::PlannerCandidatesPruned);
                run.actual(at, || "not executed".to_string());
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
                        run.actual(at, || {
                            let verdict = if signal { "signal" } else { "no signal" };
                            format!("rows={} ({verdict})", result.num_rows())
                        });
                        if signal {
                            self.metrics.observe(Hist::RelResultRows, result.num_rows() as u64);
                            return Some(result);
                        }
                    }
                    Err(e) => {
                        self.metrics.incr(if matches!(e, RelError::ResourceExhausted { .. }) {
                            Metric::RelBudgetHits
                        } else {
                            Metric::RelExecErrors
                        });
                        run.actual(at, || format!("execution error: {e}"));
                        run.failure = Some((table, Failure::Execution(e)));
                    }
                }
            }
        }
        None
    }

    /// `GraphTraverse`, at `at`: topology retrieval. An injected traversal
    /// fault is a recorded degradation and returns no hits, so the node's
    /// fallback runs in its place (the traversal's actual then names the
    /// fault, the fallback's its scan); a frontier capped by the governor
    /// is a recorded degradation, and the traversal's actual ends in
    /// `frontier_capped`.
    fn exec_graph_traverse(
        &self,
        at: usize,
        top_k: usize,
        max_frontier: usize,
        run: &mut Run,
    ) -> Option<Vec<RetrievalResult>> {
        if let Err(f) = self.config.faults.check(Site::GraphTraverse, run.question) {
            self.metrics.incr(Metric::FaultsFired);
            self.metrics.incr(Metric::TraverseFaultFallbacks);
            run.degradations.push(Degradation::new(
                component::GRAPH_TRAVERSE,
                format!("topology traversal unavailable: {f}; using lexical retrieval"),
            ));
            run.actual(at, || format!("fault: {f}"));
            return None;
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
        run.actual(at, || {
            format!(
                "anchors={} nodes_touched={} chunks_scored={} hits={}{}",
                stats.anchors,
                stats.nodes_touched,
                stats.chunks_scored,
                hits.len(),
                if stats.frontier_capped { " frontier_capped" } else { "" }
            )
        });
        Some(hits)
    }

    /// `LexicalScan`, at `at`: BM25 alone — what a traversal without
    /// anchors returns — metered by the postings it walks; no SLM call.
    fn exec_lexical_scan(&self, at: usize, top_k: usize, run: &mut Run) -> Vec<RetrievalResult> {
        let (hits, scanned) = self.lexical_scan(run.question, top_k);
        run.meter.postings_scanned += scanned as u64;
        run.actual(at, || format!("postings_scanned={scanned} hits={}", hits.len()));
        hits
    }

    /// `SemExtract`, at `at`: grounded evidence sentences from the chunks
    /// its child retrieved, `hits`. When the question names entities, only
    /// sentences mentioning them are admissible — ungrounded context is
    /// exactly the hallucination source §I warns about, and filtering
    /// before IDF weighting also sharpens discriminative terms.
    fn exec_sem_extract(
        &self,
        at: usize,
        max_sentences: usize,
        hits: &[RetrievalResult],
        intent: &QueryIntent,
        run: &mut Run,
    ) -> Vec<EvidenceSentence> {
        let evidence = extract_stored_evidence(
            run.question,
            &self.docs,
            hits.iter().map(|h| (h.chunk_id, h.score)),
            max_sentences,
            &intent.entities,
        );
        run.actual(at, || format!("evidence={} sentences", evidence.len()));
        evidence
    }

    /// `SemEntail`, at `at`: semantic entropy over `samples` sampled
    /// answers — one SLM call — and the confidence it certifies.
    fn exec_sem_entail(
        &self,
        at: usize,
        samples: usize,
        evidence: &[SupportedAnswer],
        run: &mut Run,
    ) -> (EntropyReport, f64) {
        let clock = Stopwatch::start();
        let report = self.estimator.estimate_with_samples(run.question, evidence, samples);
        self.metrics.record_stage(Stage::AnswerEntropy, clock.elapsed_ns());
        self.metrics.incr(Metric::EntropyEstimates);
        self.metrics.add(Metric::EntropySamples, report.n_samples as u64);
        self.metrics.add(Metric::EntropyClusters, report.n_clusters as u64);
        run.meter.slm_calls += 1;
        run.meter.slm_samples += report.n_samples as u64;
        let confidence = report.confidence();
        run.actual(at, || {
            format!(
                "samples={} clusters={} confidence={confidence:.2}",
                report.n_samples, report.n_clusters
            )
        });
        (report, confidence)
    }

    /// `ConfidenceGate`, at `at`, over the retrieval branch's entailed
    /// `evidence` (§III.B): the last rung, which always answers. Grounded
    /// evidence at `confidence` passes; otherwise the gate declines to
    /// answer and says why.
    fn exec_confidence_gate(
        &self,
        at: usize,
        threshold: f64,
        evidence: Vec<EvidenceSentence>,
        report: EntropyReport,
        confidence: f64,
        run: &mut Run,
    ) -> Answer {
        let grounded = !evidence.is_empty();
        let passed = grounded && confidence >= threshold;
        if passed {
            run.actual(at, || format!("passed: confidence {confidence:.2}"));
        } else {
            let (component, reason) = if grounded {
                (
                    component::ENTROPY_CONFIDENCE,
                    format!("confidence {confidence:.2} below abstain threshold {threshold:.2}"),
                )
            } else {
                (component::RETRIEVAL_EVIDENCE, "no grounded supporting evidence".to_string())
            };
            run.actual(at, || {
                if grounded {
                    format!("abstained: confidence {confidence:.2} below threshold {threshold:.2}")
                } else {
                    format!("abstained: {reason}")
                }
            });
            run.degradations.push(Degradation::new(component, reason));
        }
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
        Answer {
            text,
            confidence,
            entropy: report,
            route,
            provenance,
            result_table: None,
            degradations: Vec::new(),
            trace: None,
        }
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
        // `table_names` is in name order; the stable sort keeps it, moving
        // `extracted` last.
        let mut names = self.db.table_names();
        names.sort_by_key(|&n| n == "extracted");
        names
            .into_iter()
            .map(|table| {
                let plan = if faults.check(Site::RelExec, table).is_err() {
                    CandidatePlan::Faulted
                } else {
                    match self.synthesizer.synthesize(intent, &self.db, table) {
                        Ok(plan) => match prune_reason(&plan, &self.db) {
                            Some(reason) => CandidatePlan::Pruned { plan, reason },
                            None => CandidatePlan::Planned(plan),
                        },
                        Err(e) => CandidatePlan::Unplannable(e.to_string()),
                    }
                };
                LogicalNode::Relational { table: table.to_string(), plan }
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
    /// the output, traces included, is byte-identical for any thread
    /// count, including 1.
    pub fn answer_batch<S: AsRef<str> + Sync>(&self, questions: &[S]) -> Vec<Answer> {
        self.metrics.incr(Metric::BatchCalls);
        self.metrics.add(Metric::BatchItems, questions.len() as u64);
        self.metrics.add(Metric::BatchChunks, parkit::auto_chunk_count(questions.len()) as u64);
        self.config.parallel.pool().par_map(questions, |q| self.answer(q.as_ref()))
    }
}

/// What one query accumulates while its plan runs.
struct Run<'a> {
    question: &'a str,
    /// Whether the query records its explain trace.
    traced: bool,
    meter: &'a mut ResourceMeter,
    degradations: Vec<Degradation>,
    /// Each operator's outcome for the explain trace, keyed by its node's
    /// pre-order position in the plan; empty unless traced.
    actuals: Vec<(usize, String)>,
    /// Pre-order position of the next node [`UnifiedEngine::eval`] visits.
    next: usize,
    /// The latest relational candidate failure and its table: the reason
    /// the structured branch steps down, if it does.
    failure: Option<(&'a str, Failure<'a>)>,
    /// Whether the structured branch stepped down (hybrid vs unstructured
    /// route).
    structured: bool,
    /// Started when the plan was assembled: the structured stage's clock.
    planned: Stopwatch,
}

impl Run<'_> {
    /// Records the actual of the operator at pre-order position `at`.
    /// `text` — and whatever it formats — runs only when the query is
    /// traced.
    fn actual(&mut self, at: usize, text: impl FnOnce() -> String) {
        if self.traced {
            self.actuals.push((at, text()));
        }
    }
}

/// What an operator hands its parent.
#[expect(clippy::large_enum_variant, reason = "boxing the answer would allocate per query")]
enum Value<'p> {
    /// A relational candidate's signal-bearing result, with its table.
    Rows(&'p str, Table),
    /// Retrieved chunks.
    Hits(Vec<RetrievalResult>),
    /// Grounded evidence sentences.
    Evidence(Vec<EvidenceSentence>),
    /// Evidence verified by semantic entropy, with the confidence it
    /// certifies.
    Entailed { evidence: Vec<EvidenceSentence>, report: EntropyReport, confidence: f64 },
    /// A finished answer.
    Answer(Answer),
}

/// Why a relational candidate failed; formatted only when the structured
/// branch steps down on it.
enum Failure<'p> {
    Fault(InjectedFault),
    Synthesis(&'p str),
    Execution(RelError),
}

impl fmt::Display for Failure<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Fault(fault) => write!(f, "{fault}"),
            Failure::Synthesis(e) => write!(f, "synthesis: {e}"),
            Failure::Execution(e) => write!(f, "execution: {e}"),
        }
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
pub(crate) fn render_structured(
    intent: &QueryIntent,
    db: &Database,
    table: &str,
    result: &Table,
) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(traced: bool, meter: &mut ResourceMeter) -> Run<'_> {
        Run {
            question: "q",
            traced,
            meter,
            degradations: Vec::new(),
            actuals: Vec::new(),
            next: 0,
            failure: None,
            structured: false,
            planned: Stopwatch::start(),
        }
    }

    #[test]
    fn untraced_run_records_nothing_and_skips_closures() {
        let mut meter = ResourceMeter::default();
        let mut untraced = run(false, &mut meter);
        untraced.actual(4, || panic!("an actual must not be formatted untraced"));
        assert!(untraced.actuals.is_empty());
        assert_eq!(untraced.actuals.capacity(), 0, "nothing allocated untraced");

        let mut traced = run(true, &mut meter);
        traced.actual(4, || "rows=1 (signal)".to_string());
        assert_eq!(traced.actuals, [(4, "rows=1 (signal)".to_string())]);
    }
}
