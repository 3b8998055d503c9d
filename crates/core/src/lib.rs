//! # unisem-core
//!
//! The paper's primary contribution: an **SLM-driven system for unified
//! semantic queries across heterogeneous databases**.
//!
//! [`engine::UnifiedEngine`] ties the substrates together:
//!
//! 1. **Ingestion** ([`engine::EngineBuilder`]) — relational tables, JSON
//!    collections (flattened via `unisem-semistore`), and free-text
//!    documents (chunked via `unisem-docstore`). Unstructured documents
//!    additionally pass through Relational Table Generation
//!    (`unisem-extract`), producing the `extracted` table (§III.C task 1).
//! 2. **Indexing** — one heterogeneous graph over chunks, entities,
//!    records, and relational cues (`unisem-hetgraph`, §III.A).
//! 3. **Query resolution** ([`UnifiedEngine::answer`]) — questions are
//!    parsed into intents (`unisem-semops`, §III.C task 2) and routed:
//!    analytical intents compile to plans over native/flattened/extracted
//!    tables (TableQA); lookup intents go through topology-enhanced
//!    retrieval (§III.B); failures fall back across routes (the hybrid
//!    pipeline of §III.C).
//! 4. **Uncertainty** — every answer carries a semantic-entropy report
//!    (`unisem-entropy`, §III.D); high-entropy answers abstain.
//! 5. **Observability** — a deterministic trace/metrics layer (`tracekit`,
//!    DESIGN.md §9): closed-registry metrics
//!    ([`UnifiedEngine::metrics_report`]), and per-query explain traces
//!    ([`Answer::trace`] via [`EngineConfig::trace`]) — the costed
//!    plan tree with the actual of every operator that ran, plus the
//!    resource meter — rendered as one JSON line by
//!    [`QueryTrace::to_jsonl`].
//!
//! [`baselines`] implements the comparison systems of the evaluation
//! (naive dense RAG, Text-to-SQL-only, direct SLM) and the ablations.

// Panic-free on untrusted input (DESIGN.md §8, §10).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod answer;
pub mod baselines;
pub mod delta;
pub mod engine;
pub mod evidence;
mod executor;
pub mod ingest;
pub mod planner;
pub mod snapshot;

pub use answer::{Answer, Degradation, Provenance, Route};
pub use baselines::{DirectSlmPipeline, NaiveRagPipeline, QaPipeline, TextToSqlPipeline};
pub use delta::Delta;
pub use engine::{
    EngineBuilder, EngineConfig, EngineError, GovernorConfig, ParallelConfig, UnifiedEngine,
};
pub use ingest::{IngestReport, QuarantineReason, Quarantined};
pub use planner::{Cost, CostModel, LogicalNode};

// Re-export the pieces examples and benches need most.
pub use faultkit::{FaultPlan, InjectedFault, Site as FaultSite};
pub use storekit::StoreError;
pub use tracekit::{component, MetricsReport, QueryTrace, ResourceMeter, TimingReport};
pub use unisem_entropy::EntropyReport;
pub use unisem_relstore::{Database, Table, Value};
pub use unisem_slm::{EntityKind, Lexicon, ModelClass, Slm, SlmConfig};
