//! # unisem-retrieval
//!
//! Retrieval over the heterogeneous index — the paper's §III.B
//! ("Topology-Enhanced Retrieval") plus the baselines its efficiency claims
//! are measured against:
//!
//! - [`topology`]: anchor-entity extraction → personalized-PageRank
//!   traversal bounded to `max_hops` → hybrid topological/lexical chunk
//!   scoring. This is the sparse, "reduced computational overhead" path the
//!   paper contrasts with dense retrieval.
//! - [`dense`]: the conventional-RAG baseline — embed every chunk, embed
//!   the query, scan cosine similarities (what EVAPORATE-style pipelines
//!   do, §I gap 1).
//! - [`lexical`]: BM25 over chunks.
//!
//! All retrievers implement [`ChunkRetriever`], so experiment harnesses can
//! sweep them uniformly.

pub mod dense;
pub mod lexical;
pub mod topology;

pub use dense::DenseRetriever;
pub use lexical::LexicalRetriever;
pub use topology::{TopologyConfig, TopologyRetriever, TraversalStats};

/// One retrieved chunk with its score (higher = more relevant).
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalResult {
    /// Chunk id in the document store.
    pub chunk_id: usize,
    /// Retriever-specific relevance score.
    pub score: f64,
}

/// Common retriever interface.
pub trait ChunkRetriever {
    /// Short name for reports ("topology", "dense", "bm25").
    fn name(&self) -> &'static str;

    /// Retrieves the top `k` chunks for a query, best first.
    fn retrieve(&self, query: &str, k: usize) -> Vec<RetrievalResult>;

    /// Approximate resident bytes of this retriever's index structures
    /// (experiment E2).
    fn index_bytes(&self) -> usize;
}
