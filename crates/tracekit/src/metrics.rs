//! Closed-registry metrics.
//!
//! Metric names are compile-time enum variants — there is no string-keyed
//! recording API, so a dynamically-constructed metric name does not
//! compile, and `from_name` only looks up a variant that exists. The
//! `registry_enum!` macro generates each enum, its `ALL` table, and the
//! name mappings from one variant list, so a variant missing from `ALL` or
//! `from_name` is a build error rather than a test failure. Counters and
//! gauges are plain atomics; histograms bucket on the shared log-linear
//! layout from [`crate::hist`]. Every value recorded into a
//! [`MetricsRegistry`] must be a pure function of the data (row counts,
//! frontier sizes, meter totals), **never** of timing, so a
//! [`MetricsReport`] snapshot is byte-identical at any thread count.
//!
//! Wall-clock stage timings are deliberately quarantined in a separate
//! [`TimingReport`] (fed by [`MetricsRegistry::record_stage`]): they share
//! the registry's closed-name discipline but are excluded from every
//! determinism comparison and from [`MetricsReport`] itself.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist;
use crate::json_escape;

/// Declares a closed registry enum. The single variant list generates the
/// enum itself plus `COUNT`, `ALL`, `index()`, `name()`, and
/// `from_name()`, so the registry cannot drift out of sync with the enum:
/// a variant that exists is in `ALL` by construction.
macro_rules! registry_enum {
    (
        $(#[$outer:meta])*
        $vis:vis enum $Enum:ident {
            $( $(#[$vmeta:meta])* $Variant:ident => $name:literal, )+
        }
    ) => {
        $(#[$outer])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis enum $Enum {
            $( $(#[$vmeta])* $Variant, )+
        }

        impl $Enum {
            /// Number of registered variants.
            $vis const COUNT: usize = [$($Enum::$Variant),+].len();

            /// Every registered variant, in registry (declaration) order.
            $vis const ALL: [$Enum; Self::COUNT] = [$($Enum::$Variant),+];

            /// Stable registry index.
            $vis fn index(self) -> usize {
                self as usize
            }

            /// Stable dotted name (`subsystem.measure`).
            $vis fn name(self) -> &'static str {
                match self { $( $Enum::$Variant => $name, )+ }
            }

            /// Looks a variant up by its dotted name.
            $vis fn from_name(name: &str) -> Option<$Enum> {
                match name { $( $name => Some($Enum::$Variant), )+ _ => None }
            }
        }
    };
}

/// Number of registered metrics (counters + gauges).
pub const NUM_METRICS: usize = Metric::COUNT;
/// Number of registered histograms.
pub const NUM_HISTS: usize = Hist::COUNT;
/// Number of registered wall-clock stages.
pub const NUM_STAGES: usize = Stage::COUNT;
/// Largest value the registry histograms track in a regular bucket;
/// anything above lands in the single overflow bucket.
pub const MAX_TRACKED: u64 = 65_535;
/// Buckets per registry histogram: the log-linear buckets covering
/// `0..=MAX_TRACKED` plus one overflow bucket.
pub const NUM_BUCKETS: usize = hist::bucket_index(MAX_TRACKED) + 2;

/// How a metric is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic; written with [`MetricsRegistry::add`].
    Counter,
    /// Point-in-time value; written with [`MetricsRegistry::set`] from
    /// single-threaded code (build) only, so snapshots stay deterministic.
    Gauge,
}

registry_enum! {
    /// The closed metric registry: every counter and gauge the engine
    /// records.
    pub enum Metric {
        /// Relational tables registered at build (native + flattened +
        /// extracted).
        IngestTables => "ingest.tables",
        /// Semi-structured collections successfully flattened.
        IngestCollections => "ingest.collections",
        /// Unstructured documents indexed.
        IngestDocuments => "ingest.documents",
        /// Rows in the `extracted` table.
        IngestExtractedRows => "ingest.extracted_rows",
        /// Sources quarantined during ingestion/build.
        IngestQuarantined => "ingest.quarantined",
        /// Nodes in the heterogeneous graph.
        GraphNodes => "graph.nodes",
        /// Edges in the heterogeneous graph.
        GraphEdges => "graph.edges",
        /// Distinct entity nodes created at build.
        GraphEntities => "graph.entities",
        /// Chunks indexed into the graph.
        GraphChunks => "graph.chunks",
        /// Table records indexed into the graph.
        GraphRecords => "graph.records",
        /// Queries answered (including abstentions).
        QueryAnswered => "query.answered",
        /// Queries that ended in abstention.
        QueryAbstained => "query.abstained",
        /// Degradation-ladder downgrades recorded across all queries.
        QueryDegradations => "query.degradations",
        /// Queries resolved on the structured route.
        QueryStructuredHits => "query.structured_hits",
        /// Topology traversals run.
        TraverseQueries => "traverse.queries",
        /// Anchor nodes linked across all traversals.
        TraverseAnchors => "traverse.anchors",
        /// Distinct nodes discovered across all traversals.
        TraverseNodesTouched => "traverse.nodes_touched",
        /// Heap expansions performed across all traversals.
        TraverseNodesPopped => "traverse.nodes_popped",
        /// Chunk candidates scored across all traversals.
        TraverseChunksScored => "traverse.chunks_scored",
        /// Traversals truncated by the frontier governor.
        TraverseFrontierCapped => "traverse.frontier_capped",
        /// Traversals that fell back to pure lexical retrieval.
        TraverseLexicalFallback => "traverse.lexical_fallback",
        /// Static PageRank priors computed: one per graph version, at
        /// build/open or on the first traversal after an ingest.
        TraversePriorComputations => "traverse.prior_computations",
        /// Traversals that faulted and ran the lexical scan instead.
        TraverseFaultFallbacks => "traverse.fault_fallbacks",
        /// Logical plans executed on the structured route.
        RelPlansExecuted => "relstore.plans_executed",
        /// Base-table rows scanned by plan execution.
        RelRowsScanned => "relstore.rows_scanned",
        /// Join output rows materialized by plan execution.
        RelRowsJoined => "relstore.rows_joined",
        /// Executions aborted by the join row budget.
        RelBudgetHits => "relstore.budget_hits",
        /// Plan executions that failed (other than budget hits).
        RelExecErrors => "relstore.exec_errors",
        /// Operator syntheses that failed.
        RelSynthesisErrors => "relstore.synthesis_errors",
        /// Entropy estimates computed.
        EntropyEstimates => "entropy.estimates",
        /// Answer samples drawn for entropy estimation.
        EntropySamples => "entropy.samples",
        /// Semantic clusters formed across all estimates.
        EntropyClusters => "entropy.clusters",
        /// Deterministic fault injections that fired.
        FaultsFired => "faultkit.fired",
        /// `answer_batch` invocations.
        BatchCalls => "parkit.batch_calls",
        /// Questions submitted through `answer_batch`.
        BatchItems => "parkit.batch_items",
        /// parkit chunks dispatched for batch answering (width-invariant).
        BatchChunks => "parkit.batch_chunks",
        /// Tables covered by the planner's build-time statistics catalog.
        PlannerStatsTables => "planner.stats_tables",
        /// Column statistics (cardinality + NULL counts) collected at
        /// build.
        PlannerStatsColumns => "planner.stats_columns",
        /// Inverted-index postings counted into the statistics catalog.
        PlannerStatsPostings => "planner.stats_postings",
        /// Maximum graph node degree recorded in the statistics catalog.
        PlannerStatsMaxDegree => "planner.stats_max_degree",
        /// Per-table statistics refreshed by incremental ingest (one per
        /// table-touching delta; the rest of the catalog is maintained,
        /// not re-derived).
        PlannerStatsTableRefreshes => "planner.stats_table_refreshes",
        /// Logical plans assembled and lowered by the cost-based planner.
        PlannerPlansBuilt => "planner.plans_built",
        /// Relational candidates execution passed over unrun because their
        /// table's value index proved they yield no signal.
        PlannerCandidatesPruned => "planner.candidates_pruned",
        /// Delta records appended to the write-ahead log.
        WalAppends => "wal.appends",
        /// Payload bytes appended to the write-ahead log.
        WalAppendedBytes => "wal.appended_bytes",
        /// Durable WAL flushes (fsync) completed.
        WalFlushes => "wal.flushes",
        /// WAL records replayed during snapshot-open recovery.
        WalReplayedRecords => "wal.replayed_records",
        /// Torn WAL tails truncated during recovery.
        WalTornTruncations => "wal.torn_truncations",
        /// Checkpoints folded into a fresh snapshot.
        WalCheckpoints => "wal.checkpoints",
    }
}

impl Metric {
    /// Counter or gauge.
    pub fn kind(self) -> MetricKind {
        match self {
            Metric::IngestTables
            | Metric::IngestCollections
            | Metric::IngestDocuments
            | Metric::IngestExtractedRows
            | Metric::GraphNodes
            | Metric::GraphEdges
            | Metric::GraphEntities
            | Metric::GraphChunks
            | Metric::GraphRecords
            | Metric::PlannerStatsTables
            | Metric::PlannerStatsColumns
            | Metric::PlannerStatsPostings
            | Metric::PlannerStatsMaxDegree => MetricKind::Gauge,
            _ => MetricKind::Counter,
        }
    }
}

registry_enum! {
    /// The closed histogram registry (distributions over deterministic
    /// values — sizes, depths, and per-query resource-meter totals; never
    /// durations).
    pub enum Hist {
        /// Frontier size (nodes touched) per traversal.
        TraverseFrontier => "traverse.frontier_size",
        /// Result rows per successfully executed plan.
        RelResultRows => "relstore.result_rows",
        /// Degradation-ladder downgrades per query.
        QueryDegradationDepth => "query.degradation_depth",
        /// Provenance items attached per answer.
        QueryProvenance => "query.provenance_items",
        /// Inverted-index postings scanned per query (resource meter).
        MeterPostingsScanned => "meter.postings_scanned",
        /// Graph heap expansions per query (resource meter).
        MeterNodesPopped => "meter.nodes_popped",
        /// SLM invocations per query (resource meter).
        MeterSlmCalls => "meter.slm_calls",
        /// SLM answer samples drawn per query (resource meter).
        MeterSlmSamples => "meter.slm_samples",
        /// WAL bytes appended per ingest batch.
        MeterWalBytes => "meter.wal_bytes",
    }
}

registry_enum! {
    /// The closed wall-clock stage registry (feeds [`TimingReport`] only).
    pub enum Stage {
        /// Whole engine build.
        BuildTotal => "build.total",
        /// Semi-structured collection flattening.
        BuildFlatten => "build.flatten",
        /// Relational table generation over documents.
        BuildExtract => "build.extract",
        /// Heterogeneous graph construction.
        BuildGraph => "build.graph",
        /// Planner statistics-catalog collection.
        BuildStats => "build.stats",
        /// Whole `answer` call.
        AnswerTotal => "answer.total",
        /// Structured route (synthesis + plan execution).
        AnswerStructured => "answer.structured",
        /// Retrieval rung (traversal or lexical scan).
        AnswerRetrieval => "answer.retrieval",
        /// Entropy estimation.
        AnswerEntropy => "answer.entropy",
        /// Durable half of an ingest: WAL append + fsync.
        IngestLog => "ingest.log",
        /// In-memory half of an ingest: validate, apply to the substrates,
        /// refresh the derived structures.
        IngestApply => "ingest.apply",
    }
}

/// Thread-safe metric storage for one engine instance.
///
/// Writes are relaxed atomics: integer sums and bucket increments are
/// order-independent, so concurrent recording from a parkit pool yields
/// the same snapshot as a sequential run.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; NUM_METRICS],
    hists: [[AtomicU64; NUM_BUCKETS]; NUM_HISTS],
    stage_ns: [AtomicU64; NUM_STAGES],
    stage_count: [AtomicU64; NUM_STAGES],
    /// Per-stage wall-clock samples (capped), so [`TimingReport`] can
    /// report real order statistics instead of copying the mean into
    /// every quantile field.
    stage_samples: [Mutex<Vec<u64>>; NUM_STAGES],
}

/// Samples retained per stage; recording beyond this keeps the sums
/// exact but stops growing the per-iteration sample vector.
const MAX_STAGE_SAMPLES: usize = 65_536;

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_count: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_samples: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Adds to a counter. Usable on gauges only from single-threaded code.
    pub fn add(&self, metric: Metric, n: u64) {
        self.counters[metric.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn incr(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Sets a gauge (single-threaded build code only — last write wins).
    pub fn set(&self, metric: Metric, value: u64) {
        debug_assert_eq!(metric.kind(), MetricKind::Gauge, "set() is for gauges: {metric:?}");
        self.counters[metric.index()].store(value, Ordering::Relaxed);
    }

    /// Current value of a metric.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric.index()].load(Ordering::Relaxed)
    }

    /// Records one observation into a histogram. Values above
    /// [`MAX_TRACKED`] land in the overflow bucket.
    pub fn observe(&self, hist: Hist, value: u64) {
        let bucket = hist::bucket_index(value).min(NUM_BUCKETS - 1);
        self.hists[hist.index()][bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records wall-clock time spent in a stage ([`TimingReport`] only;
    /// never part of the deterministic [`MetricsReport`]).
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stage_ns[stage.index()].fetch_add(ns, Ordering::Relaxed);
        self.stage_count[stage.index()].fetch_add(1, Ordering::Relaxed);
        if let Ok(mut samples) = self.stage_samples[stage.index()].lock() {
            if samples.len() < MAX_STAGE_SAMPLES {
                samples.push(ns);
            }
        }
    }

    /// Deterministic snapshot: every counter, gauge, and histogram, in
    /// registry order (zeros included, so the byte layout never depends on
    /// which code paths ran).
    pub fn snapshot(&self) -> MetricsReport {
        let metrics = Metric::ALL.iter().map(|&m| (m.name(), self.get(m))).collect::<Vec<_>>();
        let histograms = Hist::ALL
            .iter()
            .map(|&h| {
                let buckets = (0..NUM_BUCKETS)
                    .map(|b| {
                        let le = (b < NUM_BUCKETS - 1).then(|| hist::bucket_upper(b));
                        (le, self.hists[h.index()][b].load(Ordering::Relaxed))
                    })
                    .collect();
                (h.name(), buckets)
            })
            .collect();
        MetricsReport { metrics, histograms }
    }

    /// Wall-clock stage timings (non-deterministic by nature; kept apart
    /// from [`MetricsReport`] so determinism comparisons never see them).
    pub fn timings(&self) -> TimingReport {
        TimingReport {
            stages: Stage::ALL
                .iter()
                .map(|&s| {
                    (
                        s.name(),
                        self.stage_count[s.index()].load(Ordering::Relaxed),
                        self.stage_ns[s.index()].load(Ordering::Relaxed),
                    )
                })
                .collect(),
            samples: Stage::ALL
                .iter()
                .map(|&s| {
                    let samples =
                        self.stage_samples[s.index()].lock().map(|g| g.clone()).unwrap_or_default();
                    (s.name(), samples)
                })
                .collect(),
        }
    }
}

/// A deterministic point-in-time snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// `(name, value)` for every registered counter/gauge, registry order.
    pub metrics: Vec<(&'static str, u64)>,
    /// `(name, buckets)` for every histogram; each bucket is
    /// `(upper bound, count)` with `None` as the overflow bucket.
    pub histograms: Vec<(&'static str, Vec<(Option<u64>, u64)>)>,
}

impl MetricsReport {
    /// Looks a counter/gauge value up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Histogram buckets by name.
    pub fn hist(&self, name: &str) -> Option<&[(Option<u64>, u64)]> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, b)| b.as_slice())
    }

    /// Total observations recorded into a histogram.
    pub fn hist_total(&self, name: &str) -> Option<u64> {
        self.hist(name).map(|buckets| buckets.iter().map(|(_, c)| c).sum())
    }

    /// Quantile `q` of a histogram, reported as the bucket's inclusive
    /// upper bound (`u64::MAX` when the rank falls in the overflow
    /// bucket; 0 when empty). The registry tracks bucket counts only, so
    /// there is no clamp to an exact observed min/max.
    pub fn hist_quantile(&self, name: &str, q: f64) -> Option<u64> {
        let buckets = self.hist(name)?;
        let total: u64 = buckets.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return Some(0);
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (le, count) in buckets {
            seen += count;
            if seen >= rank {
                return Some(le.unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Stable single-line JSON (key order = registry order), suitable for
    /// byte-for-byte determinism comparison and `BENCH_*.json` appending.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, buckets)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{{", json_escape(name)));
            for (j, (le, count)) in buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match le {
                    Some(le) => out.push_str(&format!("\"le_{le}\":{count}")),
                    None => out.push_str(&format!("\"inf\":{count}")),
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics:")?;
        for (name, v) in &self.metrics {
            writeln!(f, "  {name:<26} {v}")?;
        }
        for (name, buckets) in &self.histograms {
            let total: u64 = buckets.iter().map(|(_, c)| c).sum();
            writeln!(f, "  {name:<26} {total} observations")?;
        }
        Ok(())
    }
}

/// Wall-clock stage timings: `(stage, count, total_ns)` per stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingReport {
    /// One entry per registered [`Stage`], registry order.
    pub stages: Vec<(&'static str, u64, u64)>,
    /// Per-stage wall-clock samples (one entry per recorded call, capped
    /// at `MAX_STAGE_SAMPLES`), registry order. Feeds real order
    /// statistics (median/p95/min/max) in the bench harness.
    pub samples: Vec<(&'static str, Vec<u64>)>,
}

impl TimingReport {
    /// Total nanoseconds recorded for a stage.
    pub fn total_ns(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|(n, _, _)| *n == name).map(|(_, _, ns)| *ns)
    }

    /// Times a stage has been recorded.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|(n, _, _)| *n == name).map(|(_, c, _)| *c)
    }

    /// Per-iteration samples recorded for a stage (empty when unknown).
    pub fn samples_of(&self, name: &str) -> &[u64] {
        self.samples.iter().find(|(n, _)| *n == name).map(|(_, s)| s.as_slice()).unwrap_or(&[])
    }

    /// Stable single-line JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"timings\":{");
        for (i, (name, count, ns)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{count},\"total_ns\":{ns}}}",
                json_escape(name)
            ));
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stage timings:")?;
        for (name, count, ns) in &self.stages {
            let avg = if *count > 0 { ns / count } else { 0 };
            writeln!(f, "  {name:<20} {count:>6} × avg {avg} ns")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_consistent() {
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?}");
            assert_eq!(Metric::from_name(m.name()), Some(m));
            assert!(m.name().contains('.'), "{m:?}");
        }
        for (i, h) in Hist::ALL.into_iter().enumerate() {
            assert_eq!(h.index(), i);
            assert_eq!(Hist::from_name(h.name()), Some(h));
        }
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Metric::from_name("nope"), None);
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_METRICS, "duplicate metric name");
    }

    #[test]
    fn names_use_registered_prefixes() {
        // The closed namespace: every metric and histogram name must live
        // under one of these subsystem prefixes. Adding a variant with a
        // novel prefix forces this list (and the one in DESIGN.md §9) to
        // grow in the same review.
        const PREFIXES: [&str; 11] = [
            "ingest", "graph", "query", "traverse", "relstore", "entropy", "faultkit", "parkit",
            "planner", "wal", "meter",
        ];
        let check = |name: &str| {
            let prefix = name.split('.').next().unwrap_or("");
            assert!(PREFIXES.contains(&prefix), "unregistered metric prefix: {name}");
        };
        for m in Metric::ALL {
            check(m.name());
        }
        for h in Hist::ALL {
            check(h.name());
        }
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = MetricsRegistry::new();
        r.incr(Metric::QueryAnswered);
        r.add(Metric::QueryAnswered, 2);
        r.set(Metric::GraphNodes, 41);
        assert_eq!(r.get(Metric::QueryAnswered), 3);
        assert_eq!(r.get(Metric::GraphNodes), 41);
        assert_eq!(r.get(Metric::QueryAbstained), 0);
    }

    #[test]
    fn histogram_buckets_are_log_linear() {
        let r = MetricsRegistry::new();
        r.observe(Hist::TraverseFrontier, 0);
        r.observe(Hist::TraverseFrontier, 1);
        r.observe(Hist::TraverseFrontier, 5);
        r.observe(Hist::TraverseFrontier, 9);
        r.observe(Hist::TraverseFrontier, 1_000_000);
        let report = r.snapshot();
        let (_, buckets) = &report.histograms[Hist::TraverseFrontier.index()];
        assert_eq!(buckets[0], (Some(0), 1), "0 lands in le_0");
        assert_eq!(buckets[1], (Some(1), 1), "1 lands in le_1");
        assert_eq!(buckets[5], (Some(5), 1), "small values get exact buckets");
        assert_eq!(buckets[8], (Some(9), 1), "9 lands in le_9");
        assert_eq!(buckets[NUM_BUCKETS - 1], (None, 1), "beyond MAX_TRACKED is overflow");
        assert_eq!(buckets[NUM_BUCKETS - 2].0, Some(MAX_TRACKED), "last regular bucket");
        assert_eq!(report.hist_total("traverse.frontier_size"), Some(5));
    }

    #[test]
    fn report_quantiles_walk_bucket_bounds() {
        let r = MetricsRegistry::new();
        for v in [1u64, 2, 3, 4] {
            r.observe(Hist::RelResultRows, v);
        }
        let report = r.snapshot();
        assert_eq!(report.hist_quantile("relstore.result_rows", 0.5), Some(2));
        assert_eq!(report.hist_quantile("relstore.result_rows", 1.0), Some(4));
        assert_eq!(report.hist_quantile("query.degradation_depth", 0.5), Some(0), "empty hist");
        assert_eq!(report.hist_quantile("bogus", 0.5), None);
        r.observe(Hist::RelResultRows, MAX_TRACKED + 1);
        assert_eq!(r.snapshot().hist_quantile("relstore.result_rows", 1.0), Some(u64::MAX));
    }

    #[test]
    fn snapshot_is_complete_and_json_stable() {
        let r = MetricsRegistry::new();
        let report = r.snapshot();
        assert_eq!(report.metrics.len(), NUM_METRICS);
        assert_eq!(report.histograms.len(), NUM_HISTS);
        assert_eq!(report.get("query.answered"), Some(0));
        assert_eq!(report.get("bogus"), None);
        r.incr(Metric::QueryAnswered);
        let a = r.snapshot().to_json();
        let b = r.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"metrics\":{\"ingest.tables\":0"), "{a}");
        assert!(a.contains("\"query.answered\":1"));
        assert!(a.contains("\"traverse.frontier_size\":{\"le_0\":0"));
        assert!(a.contains("\"meter.slm_calls\":{\"le_0\":0"));
        assert!(r.snapshot().to_string().contains("query.answered"));
    }

    #[test]
    fn sums_are_order_independent_across_threads() {
        let r = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        r.incr(Metric::EntropySamples);
                        r.observe(Hist::RelResultRows, 3);
                    }
                });
            }
        });
        assert_eq!(r.get(Metric::EntropySamples), 4000);
        let report = r.snapshot();
        let (_, buckets) = &report.histograms[Hist::RelResultRows.index()];
        assert_eq!(buckets[3], (Some(3), 4000));
    }

    #[test]
    fn timings_are_separate_from_metrics() {
        let r = MetricsRegistry::new();
        r.record_stage(Stage::AnswerTotal, 500);
        r.record_stage(Stage::AnswerTotal, 700);
        let t = r.timings();
        assert_eq!(t.count("answer.total"), Some(2));
        assert_eq!(t.total_ns("answer.total"), Some(1200));
        assert_eq!(t.samples_of("answer.total"), &[500, 700], "per-call samples retained");
        assert!(t.samples_of("build.graph").is_empty());
        assert!(t.samples_of("bogus").is_empty());
        assert_eq!(t.total_ns("build.graph"), Some(0));
        assert!(t.to_json().contains("\"answer.total\":{\"count\":2,\"total_ns\":1200}"));
        assert!(t.to_string().contains("answer.total"));
        // The deterministic snapshot must not mention timings at all.
        assert!(!r.snapshot().to_json().contains("total_ns"));
    }
}
