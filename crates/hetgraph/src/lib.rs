//! # unisem-hetgraph
//!
//! Semantic-aware heterogeneous graph indexing (§III.A of the paper).
//!
//! The graph unifies the three data modalities in one topological structure:
//!
//! - **Chunk nodes** — text segments from the document store,
//! - **Entity nodes** — named entities extracted by the SLM tagger,
//!   deduplicated by canonical name,
//! - **Record / table nodes** — rows of relational tables and flattened
//!   JSON collections,
//! - **labeled edges** — mentions, inferred relational cues ("Customer X
//!   *purchased* Product Y"), temporal links, and record-attribute links.
//!
//! [`algo`] supplies the topology machinery §III.B's retrieval builds on:
//! PageRank / personalized-PageRank centrality, plus the connected
//! components and shortest paths the test suites use as oracles.
//!
//! [`build`] constructs the graph from the substrate stores using the SLM
//! for tagging and relation cue inference.

// Panic-free on untrusted input (DESIGN.md §8, §10).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod algo;
pub mod build;
pub mod entities;
pub mod graph;

pub use build::{GraphBuildCounts, GraphBuilder};
pub use entities::EntityTable;
pub use graph::{Edge, EdgeId, EdgeKind, HetGraph, NodeId, NodeKind};
