//! Dense-vector retrieval baseline: the "conventional RAG" path of §I.
//!
//! Every chunk is embedded when the index is built; every query does a
//! full cosine scan over all chunk vectors. This is deliberately the
//! straightforward dense pipeline — its index size and query cost are the
//! comparison points for experiments E2/E3.

use std::sync::Arc;

use parkit::Pool;
use unisem_docstore::DocStore;
use unisem_slm::Slm;
use unisem_text::similarity::cosine_dense;

use crate::{ChunkRetriever, RetrievalResult};

/// Fixed chunk size for the parallel cosine scan — a constant, never
/// derived from the thread count, per the parkit determinism contract.
const SCAN_CHUNK: usize = 256;

/// Flat (exact) dense retriever.
#[derive(Debug, Clone)]
pub struct DenseRetriever {
    slm: Slm,
    /// chunk_id-aligned embedding matrix.
    vectors: Vec<Vec<f32>>,
    /// Pool used for build-time embedding and query-time scans.
    pool: Pool,
}

impl DenseRetriever {
    /// Builds the index by embedding every chunk of `docs` across the
    /// global parkit pool.
    pub fn build(slm: Slm, docs: &Arc<DocStore>) -> Self {
        Self::build_with_pool(slm, docs, parkit::global())
    }

    /// [`DenseRetriever::build`] on an explicit [`Pool`], which the
    /// retriever also keeps for its query-time scans. Embeddings are a pure
    /// per-chunk function merged in chunk order, so the index is identical
    /// for any pool width.
    pub fn build_with_pool(slm: Slm, docs: &Arc<DocStore>, pool: Pool) -> Self {
        let vectors: Vec<Vec<f32>> =
            pool.par_map(docs.chunks(), |c| slm.embedder().embed_text(&c.text));
        Self { slm, vectors, pool }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

impl ChunkRetriever for DenseRetriever {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn retrieve(&self, query: &str, k: usize) -> Vec<RetrievalResult> {
        let q = self.slm.embed(query);
        // Parallel scan in fixed-size spans; per-span hit lists concatenate
        // in span order, so the candidate list is scan-order identical to a
        // sequential pass.
        let mut scored: Vec<RetrievalResult> = self
            .pool
            .par_chunks(&self.vectors, SCAN_CHUNK, |start, span| {
                span.iter()
                    .enumerate()
                    .map(|(i, v)| RetrievalResult {
                        chunk_id: start + i,
                        score: cosine_dense(&q, v),
                    })
                    .filter(|r| r.score > 0.0)
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.chunk_id.cmp(&b.chunk_id))
        });
        scored.truncate(k);
        scored
    }

    fn index_bytes(&self) -> usize {
        self.vectors.iter().map(|v| v.len() * std::mem::size_of::<f32>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Arc<DocStore> {
        let mut d = DocStore::default();
        d.add_document("a", "battery life and charging performance are excellent.", "x");
        d.add_document("b", "the delivery was delayed by the courier.", "x");
        d.add_document("c", "battery drains too fast under load.", "x");
        Arc::new(d)
    }

    #[test]
    fn retrieves_semantically_overlapping() {
        let d = docs();
        let r = DenseRetriever::build(Slm::default(), &d);
        let hits = r.retrieve("battery problems", 2);
        assert_eq!(hits.len(), 2);
        let ids: Vec<usize> = hits.iter().map(|h| h.chunk_id).collect();
        assert!(ids.contains(&0) || ids.contains(&2));
        assert!(!ids.contains(&1));
    }

    #[test]
    fn index_size_scales_with_chunks() {
        let d = docs();
        let r = DenseRetriever::build(Slm::default(), &d);
        assert_eq!(r.len(), d.num_chunks());
        assert_eq!(r.index_bytes(), d.num_chunks() * 256 * 4);
    }

    #[test]
    fn deterministic_scores() {
        let d = docs();
        let r1 = DenseRetriever::build(Slm::default(), &d);
        let r2 = DenseRetriever::build(Slm::default(), &d);
        assert_eq!(r1.retrieve("battery", 3), r2.retrieve("battery", 3));
    }

    #[test]
    fn empty_store() {
        let d = Arc::new(DocStore::default());
        let r = DenseRetriever::build(Slm::default(), &d);
        assert!(r.is_empty());
        assert!(r.retrieve("anything", 3).is_empty());
    }
}
