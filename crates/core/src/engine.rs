//! The unified query engine: ingestion, indexing, routing, answering.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use faultkit::{FaultPlan, InjectedFault, Site};
use parkit::Pool;
use tracekit::{Hist, Metric, MetricsRegistry, MetricsReport, Stage, TimingReport};
use unisem_docstore::{DocStore, DocumentId};
use unisem_entropy::EntropyEstimator;
use unisem_extract::TableGenerator;
use unisem_hetgraph::{GraphBuilder, HetGraph};
use unisem_relstore::{Database, RelError, Table};
use unisem_retrieval::{
    ChunkRetriever, RetrievalResult, TopologyConfig, TopologyRetriever, TraversalStats,
};
use unisem_semistore::{FlattenError, JsonError, JsonValue, SemiStore};
use unisem_semops::{IntentParser, OperatorSynthesizer, QueryIntent};
use unisem_slm::{CostMeter, Lexicon, Slm, SlmConfig, TagTable};
use unisem_text::sentence::sentence_spans;
use unisem_text::ChunkConfig;

use crate::delta::{self, Delta};
use crate::ingest::{IngestReport, QuarantineReason, Quarantined};

/// Engine construction / ingestion errors.
#[derive(Debug)]
pub enum EngineError {
    /// Relational layer failure.
    Rel(RelError),
    /// JSON flattening failure.
    Flatten(FlattenError),
    /// JSON parse failure at ingestion.
    Json(JsonError),
    /// A deterministic fault-injection hook fired (see `faultkit`).
    Fault(InjectedFault),
    /// Persistent-storage failure while saving or opening a snapshot
    /// (see `storekit`).
    Store(storekit::StoreError),
    /// An incremental delta could not be applied (unknown table, schema
    /// mismatch, unresolvable graph endpoint). Nothing is logged or
    /// applied when this is returned.
    Delta(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rel(e) => write!(f, "relational error: {e}"),
            EngineError::Flatten(e) => write!(f, "flatten error: {e}"),
            EngineError::Json(e) => write!(f, "json error: {e}"),
            EngineError::Fault(e) => write!(f, "{e}"),
            EngineError::Store(e) => write!(f, "storage error: {e}"),
            EngineError::Delta(e) => write!(f, "delta error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RelError> for EngineError {
    fn from(e: RelError) -> Self {
        EngineError::Rel(e)
    }
}

impl From<FlattenError> for EngineError {
    fn from(e: FlattenError) -> Self {
        EngineError::Flatten(e)
    }
}

impl From<JsonError> for EngineError {
    fn from(e: JsonError) -> Self {
        EngineError::Json(e)
    }
}

impl From<InjectedFault> for EngineError {
    fn from(e: InjectedFault) -> Self {
        EngineError::Fault(e)
    }
}

impl From<storekit::StoreError> for EngineError {
    fn from(e: storekit::StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// Parallel execution settings (DESIGN.md §6: determinism under
/// parallelism). Thread count never affects results — only wall-clock.
///
/// This governs the one place the engine hands its pool to:
/// `answer_batch`'s outer map over the questions. Graph entity tagging and
/// the PageRank prior — computed at build, and again by the first traversal
/// after an ingest drops it — run on `parkit::global()` — `UNISEM_THREADS`,
/// else the machine's available parallelism — whatever is set here.
/// Nothing on the per-query path forks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Worker threads for batch answering. `0` (the default) resolves at
    /// use time to `parkit::global()`.
    pub threads: usize,
}

impl ParallelConfig {
    /// An explicit thread count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The parkit pool this configuration resolves to.
    pub fn pool(&self) -> Pool {
        if self.threads == 0 {
            parkit::global()
        } else {
            Pool::new(self.threads)
        }
    }
}

/// Deterministic resource governors (DESIGN.md §8). Each bound is a pure
/// function of the data — never of timing — so a governed run replays
/// identically; breaching one triggers a ladder downgrade instead of
/// unbounded work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Maximum nodes a single topology traversal may discover before the
    /// frontier is truncated (recorded as a degradation).
    pub max_traversal_frontier: usize,
    /// Maximum rows a single join may materialize on the structured route;
    /// beyond it the table is skipped with a recorded failure.
    pub max_join_rows: usize,
    /// Minimum entropy samples required to certify a confidence score;
    /// below it the engine abstains rather than trust the estimate.
    pub entropy_sample_floor: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self { max_traversal_frontier: 4096, max_join_rows: 1_000_000, entropy_sample_floor: 2 }
    }
}

/// Engine configuration, including the ablation switches exercised by
/// experiment E7.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Master seed for the SLM's stochastic paths.
    pub seed: u64,
    /// Document chunking parameters.
    pub chunk: ChunkConfig,
    /// Topology retrieval parameters.
    pub topology: TopologyConfig,
    /// Chunks retrieved per lookup question.
    pub retrieval_top_k: usize,
    /// Samples drawn for semantic entropy.
    pub entropy_samples: usize,
    /// Sampling temperature for entropy estimation.
    pub entropy_temperature: f64,
    /// Abstain when confidence falls below this.
    pub abstain_confidence: f64,
    /// Ablation: run Relational Table Generation over ingested documents.
    pub enable_extraction: bool,
    /// Ablation: synthesize operators for analytical questions.
    pub enable_synthesis: bool,
    /// Ablation: use topology-enhanced retrieval (false = BM25 only: every
    /// retrieval is the lexical scan a faulted traversal falls back to).
    pub enable_topology: bool,
    /// Ablation: index entity nodes in the graph (false = chunks/records
    /// stay unlinked and retrieval loses its anchors).
    pub enable_entity_nodes: bool,
    /// Parallel execution settings (never affects results, only speed).
    pub parallel: ParallelConfig,
    /// Deterministic fault-injection plan. The default (`unset`) defers to
    /// the `UNISEM_FAULTS` environment variable, resolved once when the
    /// builder is created; `FaultPlan::disabled()` opts out entirely.
    pub faults: FaultPlan,
    /// Deterministic resource governors (frontier cap, join row budget,
    /// entropy sample floor).
    pub governors: GovernorConfig,
    /// Attach a deterministic per-query explain trace to every
    /// [`Answer::trace`](crate::Answer::trace) (DESIGN.md §9). Off by
    /// default: the hot path then performs zero trace allocations. The one
    /// trace switch: a caller who wants JSON lines renders the attached
    /// trace with `QueryTrace::to_jsonl`.
    pub trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            seed: 0x0515,
            chunk: ChunkConfig::default(),
            topology: TopologyConfig::default(),
            retrieval_top_k: 5,
            entropy_samples: 10,
            entropy_temperature: 0.8,
            abstain_confidence: 0.4,
            enable_extraction: true,
            enable_synthesis: true,
            enable_topology: true,
            enable_entity_nodes: true,
            parallel: ParallelConfig::default(),
            faults: FaultPlan::unset(),
            governors: GovernorConfig::default(),
            trace: false,
        }
    }
}

/// Accumulates heterogeneous sources, then builds a [`UnifiedEngine`].
#[derive(Debug)]
pub struct EngineBuilder {
    config: EngineConfig,
    lexicon: Lexicon,
    docs: DocStore,
    db: Database,
    semi: SemiStore,
    /// Sources quarantined during ingestion (bad JSON); joined at
    /// build time by flatten/extraction quarantines.
    quarantined: Vec<Quarantined>,
    /// Monotonic counter over semi-structured ingestion attempts — the
    /// fault-injection call key, so a given document's parse fault replays
    /// identically for the same ingestion sequence.
    ingest_attempts: usize,
}

impl EngineBuilder {
    /// Starts a builder with a domain lexicon (the SLM's world knowledge).
    pub fn new(lexicon: Lexicon) -> Self {
        Self::with_config(lexicon, EngineConfig::default())
    }

    /// Starts a builder with explicit configuration. An `unset` fault plan
    /// resolves against `UNISEM_FAULTS` here, once, so builder, build, and
    /// every answer see the same plan.
    pub fn with_config(lexicon: Lexicon, mut config: EngineConfig) -> Self {
        config.faults = config.faults.resolve();
        Self {
            config,
            lexicon,
            docs: DocStore::new(config.chunk),
            db: Database::new(),
            semi: SemiStore::new(),
            quarantined: Vec::new(),
            ingest_attempts: 0,
        }
    }

    /// Reopens an engine from a snapshot written by
    /// [`UnifiedEngine::save_snapshot`], skipping ingestion, flattening,
    /// chunking, extraction, and graph construction entirely.
    ///
    /// The snapshot's seed and chunking configuration override the
    /// corresponding `config` fields: the persisted chunks and graph were
    /// built with them, and reusing anything else would silently
    /// desynchronize the reopened engine from its data. Everything else in `config` (governors, ablations, fault
    /// plan, thread pool, tracing) applies as given. Answers from the
    /// reopened engine are byte-identical to the saving engine's under
    /// the same configuration (`tests/tests/storage.rs`).
    pub fn open_snapshot(
        path: &Path,
        mut config: EngineConfig,
    ) -> Result<(UnifiedEngine, IngestReport), EngineError> {
        config.faults = config.faults.resolve();
        let metrics = Arc::new(MetricsRegistry::new());
        let build_start = tracekit::wall::Stopwatch::start();
        let loaded = crate::snapshot::read_snapshot(path)?;
        config.seed = loaded.seed;
        config.chunk = loaded.chunk;
        let slm = Slm::new(SlmConfig {
            lexicon: loaded.lexicon,
            seed: config.seed,
            ..SlmConfig::default()
        });
        let substrates = Substrates { docs: loaded.docs, db: loaded.db, graph: loaded.graph };
        let report = loaded.ingest;
        let engine = UnifiedEngine::assemble(
            config,
            slm,
            substrates,
            &report,
            loaded.applied_seq,
            metrics,
            build_start,
        );
        Ok((engine, report))
    }

    /// [`Self::open_snapshot`] plus the crash-recovery phase (DESIGN.md
    /// §13): opens the write-ahead log at `wal_base`, truncates any torn
    /// tail, replays every durable delta past the snapshot's fold point,
    /// and leaves the log attached so further [`UnifiedEngine::ingest_delta`]
    /// calls continue its sequence. Returns the number of deltas replayed.
    ///
    /// A missing log is not an error — a fresh one is created (the
    /// snapshot is simply up to date).
    pub fn open_snapshot_with_wal(
        path: &Path,
        wal_base: &Path,
        config: EngineConfig,
    ) -> Result<(UnifiedEngine, IngestReport, usize), EngineError> {
        let (mut engine, report) = Self::open_snapshot(path, config)?;
        let replayed = engine.enable_wal(wal_base)?;
        Ok((engine, report, replayed))
    }

    /// Ingests an unstructured document.
    pub fn add_document(
        &mut self,
        title: impl Into<String>,
        text: impl Into<String>,
        source: impl Into<String>,
    ) -> DocumentId {
        self.docs.add_document(title, text, source)
    }

    /// Ingests a relational table.
    pub fn add_table(&mut self, name: &str, table: Table) -> Result<(), EngineError> {
        self.db.create_table(name, table)?;
        Ok(())
    }

    /// Ingests one JSON document into a named collection.
    pub fn add_json(&mut self, collection: &str, doc: JsonValue) {
        self.semi.insert(collection, doc);
    }

    /// Parses and ingests one JSON text document into a named collection.
    ///
    /// A malformed document is **quarantined** — recorded in the build's
    /// [`IngestReport`] and excluded — rather than aborting ingestion; the
    /// parse error is still returned for immediate caller feedback.
    pub fn add_json_text(&mut self, collection: &str, text: &str) -> Result<(), EngineError> {
        let key = format!("{collection}:{}", self.ingest_attempts);
        self.ingest_attempts += 1;
        if let Err(f) = self.config.faults.check(Site::SemiParse, &key) {
            self.quarantined.push(Quarantined {
                source: format!("json document '{key}'"),
                reason: QuarantineReason::InjectedFault(f.to_string()),
            });
            return Err(EngineError::Fault(f));
        }
        match unisem_semistore::parse_json(text) {
            Ok(doc) => {
                self.semi.insert(collection, doc);
                Ok(())
            }
            Err(e) => {
                self.quarantined.push(Quarantined {
                    source: format!("json document '{key}'"),
                    reason: QuarantineReason::Json(e.to_string()),
                });
                Err(EngineError::Json(e))
            }
        }
    }

    /// Builds the engine: flattens JSON, runs extraction, builds the graph,
    /// and wires the retrievers.
    ///
    /// Build never aborts on a bad source. Per-source failures — flatten
    /// conflicts, extraction errors, injected faults — are quarantined
    /// with typed reasons in the returned [`IngestReport`]; the engine is
    /// built from everything that survived.
    pub fn build(self) -> (UnifiedEngine, IngestReport) {
        let EngineBuilder { config, lexicon, docs, mut db, semi, mut quarantined, .. } = self;
        let faults = config.faults;
        let metrics = Arc::new(MetricsRegistry::new());
        let build_start = tracekit::wall::Stopwatch::start();
        let slm = Slm::new(SlmConfig { lexicon, seed: config.seed, ..SlmConfig::default() });
        let mut report =
            IngestReport { documents: docs.num_documents(), ..IngestReport::default() };

        // Semi-structured → tables; a collection that fails to flatten is
        // quarantined whole (its documents share one schema).
        let flatten_start = tracekit::wall::Stopwatch::start();
        for coll in semi.collections() {
            if let Err(f) = faults.check(Site::SemiFlatten, coll) {
                quarantined.push(Quarantined {
                    source: format!("collection '{coll}'"),
                    reason: QuarantineReason::InjectedFault(f.to_string()),
                });
                continue;
            }
            match semi.to_table(coll) {
                Ok(table) => {
                    if db.has_table(coll) {
                        db.create_or_replace_table(&format!("json_{coll}"), table);
                    } else {
                        db.create_or_replace_table(coll, table);
                    }
                    report.collections_flattened += 1;
                }
                Err(e) => quarantined.push(Quarantined {
                    source: format!("collection '{coll}'"),
                    reason: QuarantineReason::Flatten(e.to_string()),
                }),
            }
        }
        metrics.record_stage(Stage::BuildFlatten, flatten_start.elapsed_ns());

        // Unstructured → extracted table (§III.C task 1); failures cost the
        // extracted table, not the build. The one tagging pass, which the
        // table generator and the graph builder share, is timed with it.
        let extract_start = tracekit::wall::Stopwatch::start();
        let extract = config.enable_extraction
            && !docs.is_empty()
            && match faults.check(Site::ExtractTablegen, "extracted") {
                Err(f) => {
                    quarantined.push(Quarantined {
                        source: "document extraction".into(),
                        reason: QuarantineReason::InjectedFault(f.to_string()),
                    });
                    false
                }
                Ok(()) => true,
            };
        let tags = tag_sentences(&slm, &docs, extract, config.enable_entity_nodes);
        if extract {
            let texts: Vec<&str> = docs.documents().iter().map(|d| d.text.as_str()).collect();
            match TableGenerator::new(slm.clone()).generate_table_tagged(&texts, &tags) {
                Ok((extracted, _)) => {
                    if !extracted.is_empty() {
                        report.extracted_rows = extracted.num_rows();
                        db.create_or_replace_table("extracted", extracted);
                    }
                }
                Err(e) => quarantined.push(Quarantined {
                    source: "document extraction".into(),
                    reason: QuarantineReason::Extraction(e.to_string()),
                }),
            }
        }

        metrics.record_stage(Stage::BuildExtract, extract_start.elapsed_ns());

        // Graph index over every modality (§III.A).
        let graph_start = tracekit::wall::Stopwatch::start();
        let mut gb = GraphBuilder::new(slm.clone());
        gb.set_index_entities(config.enable_entity_nodes);
        gb.add_docstore_from(&docs, 0, &tags);
        for name in db.table_names() {
            // Extracted-table records duplicate chunk facts; indexing them
            // is still useful (they join text to values) but keep the
            // "extracted" table out to avoid double-counting mentions.
            if name != "extracted" {
                if let Ok(table) = db.table(name) {
                    gb.add_table(name, table);
                }
            }
        }
        let (graph, _) = gb.finish();
        metrics.record_stage(Stage::BuildGraph, graph_start.elapsed_ns());

        report.tables = db.len();
        report.quarantined = quarantined;
        let substrates = Substrates { docs, db, graph };
        let engine =
            UnifiedEngine::assemble(config, slm, substrates, &report, 0, metrics, build_start);
        (engine, report)
    }
}

/// A build's one tagging pass (DESIGN.md §5c): each distinct sentence the
/// table generator reads (the documents', when `documents`) or the graph
/// builder reads (the chunks', when `chunks`), tagged once on the global
/// pool.
fn tag_sentences<'a>(slm: &Slm, docs: &'a DocStore, documents: bool, chunks: bool) -> TagTable<'a> {
    let mut sentences = Vec::new();
    if documents {
        for d in docs.documents() {
            sentences.extend(sentence_spans(&d.text).into_iter().map(|s| &d.text[s]));
        }
    }
    if chunks {
        for (i, c) in docs.chunks().iter().enumerate() {
            sentences.extend(docs.sentence_terms().sentences(i).map(|(s, _)| &c.text[s]));
        }
    }
    TagTable::new(sentences, |distinct| {
        parkit::global().par_map(distinct, |&s| slm.tag_sentence(s))
    })
}

/// The topology retriever over freshly built or loaded substrates, with
/// its static PageRank prior computed up front so the index-build cost
/// stays in set-up, not in the first query. The traversal frontier
/// governor clamps whatever the topology config asks for.
fn build_topology(
    slm: &Slm,
    graph: &Arc<HetGraph>,
    docs: &Arc<DocStore>,
    config: &EngineConfig,
    metrics: &MetricsRegistry,
) -> TopologyRetriever {
    let mut topo_config = config.topology;
    topo_config.max_frontier =
        topo_config.max_frontier.min(config.governors.max_traversal_frontier);
    let topo = TopologyRetriever::new(slm.clone(), graph.clone(), docs.clone(), topo_config);
    count_prior(&topo, metrics);
    topo
}

/// Makes sure `topo` holds the prior of its graph version, counting the
/// PageRank run if this call caused one.
fn count_prior(topo: &TopologyRetriever, metrics: &MetricsRegistry) {
    if topo.ensure_prior() {
        metrics.incr(Metric::TraversePriorComputations);
    }
}

/// Gauges and counters taken from the build's ingest report (fixed for
/// the life of the engine).
fn record_ingest_report(metrics: &MetricsRegistry, report: &IngestReport) {
    metrics.set(Metric::IngestCollections, report.collections_flattened as u64);
    metrics.set(Metric::IngestExtractedRows, report.extracted_rows as u64);
    metrics.add(Metric::IngestQuarantined, report.num_quarantined() as u64);
}

/// Gauges that are pure functions of the live substrates; every one reads
/// a maintained total, so ingest re-sets them after each delta.
fn set_substrate_gauges(
    metrics: &MetricsRegistry,
    db: &Database,
    docs: &DocStore,
    graph: &HetGraph,
) {
    metrics.set(Metric::IngestTables, db.len() as u64);
    metrics.set(Metric::IngestDocuments, docs.num_documents() as u64);
    metrics.set(Metric::GraphNodes, graph.num_nodes() as u64);
    metrics.set(Metric::GraphEdges, graph.num_edges() as u64);
    metrics.set(Metric::GraphEntities, graph.num_entities() as u64);
    metrics.set(Metric::GraphChunks, graph.num_chunks() as u64);
    metrics.set(Metric::GraphRecords, graph.num_records() as u64);
}

/// The three substrates an engine answers over: built, loaded from a
/// snapshot, or a copy a batch of deltas is staged on.
struct Substrates {
    docs: DocStore,
    db: Database,
    graph: HetGraph,
}

/// The unified semantic query engine.
#[derive(Debug, Clone)]
pub struct UnifiedEngine {
    slm: Slm,
    pub(crate) docs: Arc<DocStore>,
    graph: Arc<HetGraph>,
    pub(crate) db: Database,
    pub(crate) topo: TopologyRetriever,
    pub(crate) parser: IntentParser,
    pub(crate) synthesizer: OperatorSynthesizer,
    /// Temperature and clustering only: the sample count of each estimate
    /// is the `SemEntail` node's.
    pub(crate) estimator: EntropyEstimator,
    pub(crate) config: EngineConfig,
    ingest: Arc<IngestReport>,
    /// Closed-registry metrics for this engine instance (shared by clones).
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Write-ahead log for incremental ingest (attached by
    /// [`Self::enable_wal`]; clones share the log, so only one clone
    /// should ingest).
    wal: Option<Arc<std::sync::Mutex<storekit::Wal>>>,
    /// Highest WAL sequence number applied to the in-memory substrates
    /// (0 before any delta).
    applied_seq: u64,
}

impl UnifiedEngine {
    /// The one constructor of [`EngineBuilder::build`] and
    /// [`EngineBuilder::open_snapshot`]: wires the retrievers, the parser
    /// and the estimator over finished substrates and sets the build
    /// gauges — pure functions of the data, never of timing, so they are
    /// byte-identical at any thread count (DESIGN.md §9) and a reopened
    /// engine reports what the engine that saved it reported.
    fn assemble(
        config: EngineConfig,
        slm: Slm,
        substrates: Substrates,
        report: &IngestReport,
        applied_seq: u64,
        metrics: Arc<MetricsRegistry>,
        build_start: tracekit::wall::Stopwatch,
    ) -> UnifiedEngine {
        let Substrates { docs, db, graph } = substrates;
        let docs = Arc::new(docs);
        let graph = Arc::new(graph);
        let topo = build_topology(&slm, &graph, &docs, &config, &metrics);
        let mut estimator = EntropyEstimator::new(slm.clone());
        estimator.temperature = config.entropy_temperature;
        record_ingest_report(&metrics, report);
        set_substrate_gauges(&metrics, &db, &docs, &graph);
        metrics.record_stage(Stage::BuildTotal, build_start.elapsed_ns());
        UnifiedEngine {
            parser: IntentParser::new(slm.clone()),
            synthesizer: OperatorSynthesizer::new(),
            estimator,
            slm,
            docs,
            graph,
            db,
            topo,
            config,
            ingest: Arc::new(report.clone()),
            metrics,
            wal: None,
            applied_seq,
        }
    }

    /// The configuration in effect (fault plan already resolved).
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The relational catalog (native + flattened + extracted tables).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The document store.
    pub fn docs(&self) -> &DocStore {
        &self.docs
    }

    /// The heterogeneous graph index.
    pub fn graph(&self) -> &HetGraph {
        &self.graph
    }

    /// The SLM (shared cost meter included).
    pub fn slm(&self) -> &Slm {
        &self.slm
    }

    /// The SLM usage meter for cost experiments.
    pub fn meter(&self) -> &CostMeter {
        self.slm.meter()
    }

    /// The engine's closed-registry metrics (live; snapshot with
    /// [`Self::metrics_report`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Deterministic metrics snapshot: every registered counter, gauge,
    /// and histogram. Byte-identical at any thread count for the same
    /// workload (DESIGN.md §9).
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.snapshot()
    }

    /// Wall-clock stage timings (non-deterministic; kept separate from
    /// [`Self::metrics_report`] so determinism checks never see them).
    pub fn timing_report(&self) -> TimingReport {
        self.metrics.timings()
    }

    /// Resident index footprint in bytes: the graph and the lexical
    /// postings with topology on, the lexical postings alone with it off.
    pub fn index_bytes(&self) -> usize {
        if self.config.enable_topology {
            self.topo.index_bytes()
        } else {
            self.docs.index_bytes()
        }
    }

    /// Retrieves chunks for a query using the configured retriever.
    pub fn retrieve(&self, query: &str, k: usize) -> Vec<RetrievalResult> {
        if self.config.enable_topology {
            self.traverse(query, k).0
        } else {
            self.lexical_scan(query, k).0
        }
    }

    /// Parses a question into its intent (exposed for diagnostics).
    pub fn analyze(&self, question: &str) -> QueryIntent {
        self.parser.analyze(question)
    }

    /// Persists the built engine to a `storekit` snapshot at `path`
    /// (atomically: written to `<path>.tmp`, verified frame by frame, then
    /// renamed into place, so a fault mid-save never corrupts an existing
    /// snapshot). Two engines built from the same inputs with the same
    /// seed write byte-identical files; [`EngineBuilder::open_snapshot`]
    /// reopens one without re-running ingestion.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), EngineError> {
        crate::snapshot::write_snapshot(
            path,
            self.config.faults,
            &crate::snapshot::SnapshotSource {
                seed: self.config.seed,
                chunk: self.docs.chunk_config(),
                lexicon: self.slm.ner().lexicon(),
                docs: &self.docs,
                db: &self.db,
                graph: &self.graph,
                ingest: &self.ingest,
                applied_seq: self.applied_seq,
            },
        )
    }

    /// Attaches a write-ahead log at `wal_base` (DESIGN.md §13). When
    /// a log already exists it is opened, any torn tail truncated,
    /// and every durable delta with a sequence number past
    /// [`Self::applied_seq`] replayed onto the in-memory substrates;
    /// otherwise a fresh log is created whose numbering continues the
    /// engine's sequence. Returns the number of deltas replayed.
    pub fn enable_wal(&mut self, wal_base: &Path) -> Result<usize, EngineError> {
        let faults = self.config.faults;
        let metrics = Some(self.metrics.clone());
        let (wal, records, _recovery) = if storekit::Wal::exists(wal_base) {
            storekit::Wal::open(wal_base, faults, metrics)?
        } else {
            let wal = storekit::Wal::create(wal_base, self.applied_seq + 1, faults, metrics)?;
            (wal, Vec::new(), storekit::WalRecovery::default())
        };
        // Records at or below `applied_seq` are already folded into the
        // snapshot this engine came from (a crash between snapshot fold
        // and log truncation leaves them behind); skip them by sequence.
        let mut seqs: Vec<u64> = Vec::with_capacity(records.len());
        let mut tail: Vec<Delta> = Vec::with_capacity(records.len());
        for r in &records {
            if r.seq > self.applied_seq {
                seqs.push(r.seq);
                tail.push(Delta::decode(&r.payload)?);
            }
        }
        if let Some(&last) = seqs.last() {
            // A logged record was prepared on this very state before it was
            // acknowledged, so redo cannot fail on intact state; if it
            // does, the log disagrees with the snapshot.
            let staged = self.stage(&tail).map_err(|(i, e)| {
                EngineError::Delta(format!("wal record {} failed to re-apply: {e}", seqs[i]))
            })?;
            self.install(staged, last);
            // Recovery is set-up: the next query finds the prior in place.
            count_prior(&self.topo, &self.metrics);
        }
        self.wal = Some(Arc::new(std::sync::Mutex::new(wal)));
        Ok(tail.len())
    }

    /// Highest WAL sequence number applied to the in-memory substrates.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Ingests one incremental delta in O(delta) plus one fsync: validated
    /// read-only against the live substrates, appended to the write-ahead
    /// log, made durable, and only then applied — in place — and
    /// acknowledged. Returns the delta's WAL sequence number (or the
    /// engine's local sequence when no log is attached).
    ///
    /// Failure atomicity: a delta that fails validation is not logged, and
    /// one whose append or flush fails (torn record, lost buffer) is not
    /// applied — the in-memory engine never gets ahead of the durable log,
    /// so an acknowledged delta is always recoverable.
    pub fn ingest_delta(&mut self, delta: Delta) -> Result<u64, EngineError> {
        self.ingest_one(&delta)
    }

    fn ingest_one(&mut self, delta: &Delta) -> Result<u64, EngineError> {
        let index_entities = self.config.enable_entity_nodes;
        let clock = tracekit::wall::Stopwatch::start();
        let prepared = delta::prepare(delta, &self.db, &self.graph, index_entities)?;
        let prepare_ns = clock.elapsed_ns();
        let seq = self.log(std::slice::from_ref(delta))?;

        let clock = tracekit::wall::Stopwatch::start();
        // The retriever holds the only other handles on an unshared
        // engine; with those released `make_mut` mutates in place. An
        // engine cloned from another copies each substrate here, once.
        self.topo.rebind(Arc::default(), Arc::default());
        delta::commit(
            prepared,
            Arc::make_mut(&mut self.docs),
            &mut self.db,
            Arc::make_mut(&mut self.graph),
            &self.slm,
            index_entities,
        );
        self.applied_seq = seq;
        self.refresh_derived();
        self.metrics.record_stage(Stage::IngestApply, prepare_ns + clock.elapsed_ns());
        Ok(seq)
    }

    /// Batch form of [`Self::ingest_delta`]: all-or-nothing. A later delta
    /// may depend on an earlier one (an entity, then an edge to it), so
    /// the batch is validated and applied delta by delta on one staged
    /// copy of the substrates, then logged under a single flush, then
    /// swapped in; if any delta is rejected or the log fails, the copy is
    /// dropped and nothing changed. Returns the last delta's sequence
    /// number.
    pub fn ingest_deltas(&mut self, deltas: &[Delta]) -> Result<u64, EngineError> {
        match deltas {
            [] => return Ok(self.applied_seq),
            [one] => return self.ingest_one(one),
            _ => {}
        }
        let clock = tracekit::wall::Stopwatch::start();
        let staged = self.stage(deltas).map_err(|(_, e)| e)?;
        let stage_ns = clock.elapsed_ns();
        let seq = self.log(deltas)?;
        let clock = tracekit::wall::Stopwatch::start();
        self.install(staged, seq);
        self.metrics.record_stage(Stage::IngestApply, stage_ns + clock.elapsed_ns());
        Ok(seq)
    }

    /// Appends `deltas` to the write-ahead log and makes them durable under
    /// one fsync (the fsync-then-ack discipline), returning the
    /// last record's sequence number; without a log, the local sequence
    /// the batch ends at.
    fn log(&self, deltas: &[Delta]) -> Result<u64, EngineError> {
        let Some(wal) = &self.wal else {
            return Ok(self.applied_seq + deltas.len() as u64);
        };
        let clock = tracekit::wall::Stopwatch::start();
        let mut wal = wal.lock().map_err(|_| {
            EngineError::Store(storekit::StoreError::Io("wal lock poisoned".into()))
        })?;
        let mut last = 0;
        let mut wal_bytes = 0u64;
        for delta in deltas {
            let encoded = delta.encode();
            wal_bytes += encoded.len() as u64;
            last = wal.append(&encoded)?;
        }
        wal.flush()?;
        self.metrics.observe(Hist::MeterWalBytes, wal_bytes);
        self.metrics.record_stage(Stage::IngestLog, clock.elapsed_ns());
        Ok(last)
    }

    /// Applies `deltas` in order to one copy of the substrates, each
    /// prepared against the state its predecessors left. On rejection
    /// returns the offending delta's index; the engine is untouched either
    /// way.
    fn stage(&self, deltas: &[Delta]) -> Result<Substrates, (usize, EngineError)> {
        let index_entities = self.config.enable_entity_nodes;
        let mut staged = Substrates {
            docs: (*self.docs).clone(),
            db: self.db.clone(),
            graph: (*self.graph).clone(),
        };
        for (i, delta) in deltas.iter().enumerate() {
            let prepared = delta::prepare(delta, &staged.db, &staged.graph, index_entities)
                .map_err(|e| (i, e))?;
            delta::commit(
                prepared,
                &mut staged.docs,
                &mut staged.db,
                &mut staged.graph,
                &self.slm,
                index_entities,
            );
        }
        Ok(staged)
    }

    /// Makes a staged batch the live state, as of sequence number `seq`.
    fn install(&mut self, staged: Substrates, seq: u64) {
        self.applied_seq = seq;
        self.docs = Arc::new(staged.docs);
        self.db = staged.db;
        self.graph = Arc::new(staged.graph);
        self.refresh_derived();
    }

    /// Checkpoint (DESIGN.md §13): folds the log into a fresh snapshot at
    /// `path` — written, verified, and renamed into place first — then
    /// truncates the write-ahead log. A crash between the two steps
    /// leaves a stale-but-intact log whose records recovery skips by
    /// sequence number, so the protocol is safe at every boundary.
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), EngineError> {
        self.config.faults.check(Site::WalCheckpoint, "begin")?;
        self.save_snapshot(path)?;
        if let Some(wal) = &self.wal {
            let mut wal = wal.lock().map_err(|_| {
                EngineError::Store(storekit::StoreError::Io("wal lock poisoned".into()))
            })?;
            wal.truncate_all()?;
        }
        self.metrics.incr(Metric::WalCheckpoints);
        Ok(())
    }

    /// Brings the derived structures up to the substrates after ingest
    /// changed them, in O(1): the gauges re-read the totals the substrates
    /// maintain, and the topology retriever is pointed at the new
    /// versions, which drops its PageRank prior until a traversal asks for
    /// it.
    fn refresh_derived(&mut self) {
        set_substrate_gauges(&self.metrics, &self.db, &self.docs, &self.graph);
        self.topo.rebind(self.graph.clone(), self.docs.clone());
    }

    /// Topology retrieval. The first traversal after the graph changed
    /// computes (and counts) the PageRank prior of the new version; every
    /// later one finds it in place.
    pub(crate) fn traverse(&self, query: &str, k: usize) -> (Vec<RetrievalResult>, TraversalStats) {
        count_prior(&self.topo, &self.metrics);
        self.topo.retrieve_with_stats(query, k)
    }

    /// BM25 over the chunks — what the traversal returns for a question
    /// without anchors — and the postings it scanned.
    pub(crate) fn lexical_scan(&self, query: &str, k: usize) -> (Vec<RetrievalResult>, usize) {
        let (hits, scanned) = self.docs.search_counted(query, k);
        let hits = hits
            .into_iter()
            .map(|h| RetrievalResult { chunk_id: h.chunk_id, score: h.score })
            .collect();
        (hits, scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Route;
    use crate::planner::has_signal;
    use unisem_relstore::{DataType, Schema, Value};
    use unisem_slm::EntityKind;

    fn sample_lexicon() -> Lexicon {
        Lexicon::new().with_entries([
            ("Aero Widget", EntityKind::Product),
            ("Nova Speaker", EntityKind::Product),
            ("Acme Corp", EntityKind::Organization),
        ])
    }

    fn sample_engine() -> UnifiedEngine {
        sample_engine_with(EngineConfig::default())
    }

    fn sample_engine_with(config: EngineConfig) -> UnifiedEngine {
        let mut b = EngineBuilder::with_config(sample_lexicon(), config);
        let sales = Table::from_rows(
            Schema::of(&[
                ("product", DataType::Str),
                ("quarter", DataType::Str),
                ("amount", DataType::Float),
            ]),
            vec![
                vec![Value::str("Aero Widget"), Value::str("Q1 2024"), Value::Float(100.0)],
                vec![Value::str("Aero Widget"), Value::str("Q2 2024"), Value::Float(150.0)],
                vec![Value::str("Nova Speaker"), Value::str("Q1 2024"), Value::Float(90.0)],
                vec![Value::str("Nova Speaker"), Value::str("Q2 2024"), Value::Float(50.0)],
            ],
        )
        .unwrap();
        b.add_table("sales", sales).unwrap();
        b.add_document(
            "news",
            "Acme Corp launched the Aero Widget. The Aero Widget is manufactured by Acme Corp.",
            "news",
        );
        b.add_document(
            "report",
            "In Q2 2024, Aero Widget sales increased 50% to $150. Customers were pleased.",
            "report",
        );
        b.add_json(
            "orders",
            unisem_semistore::parse_json(
                r#"{"product": "Aero Widget", "quarter": "Q1 2024", "units": 10}"#,
            )
            .unwrap(),
        );
        b.build().0
    }

    #[test]
    fn builder_registers_all_modalities() {
        let e = sample_engine();
        assert!(e.db().has_table("sales"));
        assert!(e.db().has_table("orders"), "flattened JSON collection");
        assert!(e.db().has_table("extracted"), "extraction output");
        assert!(e.docs().num_documents() == 2);
        assert!(e.graph().num_nodes() > 0);
    }

    #[test]
    fn structured_aggregate_answer() {
        let e = sample_engine();
        let a = e.answer("What was the total sales amount of Aero Widget across all quarters?");
        assert_eq!(a.route.label(), "structured");
        assert!(a.text.contains("250"), "{}", a.text);
        assert!(a.confidence > 0.7);
        assert!(a.result_table.is_some());
    }

    #[test]
    fn comparative_names_only_winner() {
        let e = sample_engine();
        let a = e.answer(
            "Compare the total sales of Aero Widget and Nova Speaker: which product sold more?",
        );
        assert!(a.text.contains("Aero Widget"), "{}", a.text);
        assert!(!a.text.contains("Nova Speaker"), "must not name the loser: {}", a.text);
    }

    #[test]
    fn lookup_goes_through_retrieval() {
        let e = sample_engine();
        let a = e.answer("Which manufacturer makes the Aero Widget?");
        assert!(a.text.to_lowercase().contains("acme"), "{}", a.text);
        assert!(matches!(a.route, Route::Unstructured { .. }));
        assert!(!a.provenance.is_empty());
    }

    #[test]
    fn unanswerable_abstains() {
        let e = sample_engine();
        let a = e.answer("What was the total sales of the Phantom Gizmo in Q2 2024?");
        assert!(
            a.is_abstention() || a.text.to_lowercase().contains("cannot"),
            "expected abstention, got: {a}"
        );
    }

    #[test]
    fn answers_are_deterministic() {
        let a = sample_engine().answer("Which manufacturer makes the Aero Widget?");
        let b = sample_engine().answer("Which manufacturer makes the Aero Widget?");
        assert_eq!(a, b);
    }

    #[test]
    fn ablation_flags_respected() {
        let config = EngineConfig {
            enable_extraction: false,
            enable_topology: false,
            ..EngineConfig::default()
        };
        let mut b = EngineBuilder::with_config(sample_lexicon(), config);
        b.add_document("d", "Aero Widget sales increased 10% in Q1 2024.", "x");
        let e = b.build().0;
        assert!(!e.db().has_table("extracted"));
        // BM25 still answers.
        let hits = e.retrieve("Aero Widget sales", 2);
        assert!(!hits.is_empty());
    }

    #[test]
    fn index_bytes_is_unchanged_by_faulted_answers() {
        let mut sizes = Vec::new();
        for faults in [FaultPlan::disabled(), FaultPlan::single(Site::GraphTraverse)] {
            let e = sample_engine_with(EngineConfig { faults, ..EngineConfig::default() });
            let built = e.index_bytes();
            e.answer("Which manufacturer makes the Aero Widget?");
            e.answer("What was the total sales amount of Aero Widget across all quarters?");
            assert_eq!(e.index_bytes(), built, "{faults:?}: answering builds nothing");
            sizes.push(built);
        }
        assert_eq!(sizes[0], sizes[1]);

        let bm25_only =
            sample_engine_with(EngineConfig { enable_topology: false, ..EngineConfig::default() });
        assert_eq!(bm25_only.index_bytes(), bm25_only.docs().index_bytes());
    }

    #[test]
    fn meter_accumulates_usage() {
        let e = sample_engine();
        let before = e.meter().snapshot().total_tokens();
        e.answer("Which manufacturer makes the Aero Widget?");
        assert!(e.meter().snapshot().total_tokens() > before);
    }

    #[test]
    fn has_signal_rules() {
        let t = Table::from_rows(Schema::of(&[("x", DataType::Float)]), vec![vec![Value::Null]])
            .unwrap();
        assert!(!has_signal(&t));
        let t2 =
            Table::from_rows(Schema::of(&[("x", DataType::Float)]), vec![vec![Value::Float(1.0)]])
                .unwrap();
        assert!(has_signal(&t2));
        assert!(!has_signal(&Table::empty(Schema::of(&[("x", DataType::Int)]))));
    }

    #[test]
    fn json_name_clash_prefixed() {
        let mut b = EngineBuilder::new(Lexicon::new());
        let t = Table::from_rows(Schema::of(&[("x", DataType::Int)]), vec![vec![Value::Int(1)]])
            .unwrap();
        b.add_table("orders", t).unwrap();
        b.add_json("orders", unisem_semistore::parse_json(r#"{"y": 2}"#).unwrap());
        let e = b.build().0;
        assert!(e.db().has_table("orders"));
        assert!(e.db().has_table("json_orders"));
    }

    #[test]
    fn json_text_quarantines_bad_documents() {
        let mut b = EngineBuilder::new(Lexicon::new());
        b.add_json_text("orders", r#"{"id": 1, "amount": 10}"#).unwrap();
        let err = b.add_json_text("orders", r#"{"id": 2, "amount":"#).unwrap_err();
        assert!(matches!(err, EngineError::Json(_)), "{err}");
        let (e, report) = b.build();
        assert_eq!(report.num_quarantined(), 1);
        assert_eq!(report.quarantined[0].reason.kind(), "json");
        assert_eq!(e.db().table("orders").unwrap().num_rows(), 1);
    }

    #[test]
    fn injected_slm_fault_abstains_with_degradation() {
        let config = EngineConfig {
            faults: FaultPlan::single(Site::SlmGenerate),
            ..EngineConfig::default()
        };
        let mut b = EngineBuilder::with_config(sample_lexicon(), config);
        b.add_document("d", "Acme Corp makes the Aero Widget.", "x");
        let e = b.build().0;
        let a = e.answer("Which manufacturer makes the Aero Widget?");
        assert!(a.is_abstention());
        assert_eq!(a.degradations[0].component, tracekit::component::SLM_GENERATE);
    }

    #[test]
    fn injected_relexec_fault_degrades_to_retrieval() {
        let config =
            EngineConfig { faults: FaultPlan::single(Site::RelExec), ..EngineConfig::default() };
        let mut b = EngineBuilder::with_config(sample_lexicon(), config);
        let sales = Table::from_rows(
            Schema::of(&[("product", DataType::Str), ("amount", DataType::Float)]),
            vec![vec![Value::str("Aero Widget"), Value::Float(100.0)]],
        )
        .unwrap();
        b.add_table("sales", sales).unwrap();
        b.add_document("r", "Aero Widget sales totaled $100 this quarter.", "report");
        let e = b.build().0;
        let a = e.answer("What was the total sales amount of Aero Widget across all quarters?");
        // The structured rung is fully faulted: the answer must step down
        // and say why.
        assert!(!matches!(a.route, Route::Structured { .. }));
        assert!(
            a.degradations.iter().any(|d| d.component == tracekit::component::REL_EXEC),
            "{:?}",
            a.degradations
        );
    }

    #[test]
    fn entropy_sample_floor_abstains() {
        let config = EngineConfig { entropy_samples: 1, ..EngineConfig::default() };
        let mut b = EngineBuilder::with_config(sample_lexicon(), config);
        b.add_document("d", "Acme Corp makes the Aero Widget.", "x");
        let e = b.build().0;
        let a = e.answer("Which manufacturer makes the Aero Widget?");
        assert!(a.is_abstention());
        assert_eq!(a.degradations[0].component, tracekit::component::ENTROPY_SAMPLES);
    }

    #[test]
    fn flatten_conflict_quarantines_collection() {
        let mut b = EngineBuilder::new(Lexicon::new());
        // Array documents cannot flatten into a record schema.
        b.add_json("bad", unisem_semistore::parse_json("[1, 2, 3]").unwrap());
        b.add_json("good", unisem_semistore::parse_json(r#"{"x": 1}"#).unwrap());
        let (e, report) = b.build();
        assert_eq!(report.num_quarantined(), 1);
        assert_eq!(report.quarantined[0].reason.kind(), "flatten");
        assert!(!e.db().has_table("bad"));
        assert!(e.db().has_table("good"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut b = EngineBuilder::new(Lexicon::new());
        let t = Table::empty(Schema::of(&[("x", DataType::Int)]));
        b.add_table("t", t.clone()).unwrap();
        assert!(b.add_table("t", t).is_err());
    }
}
