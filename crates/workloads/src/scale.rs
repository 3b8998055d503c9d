//! Size-parameterized workload: a corpus of any number of products plus a
//! seeded query mix — unibench's and the storage/ingest suites' corpora.
//!
//! The corpus is the e-commerce generator ([`EcommerceWorkload`]) scaled
//! along its product axis — the dimension that grows every substrate at
//! once (relational rows, JSON orders, report/news/review documents,
//! graph nodes, dense vectors). The query mix is drawn from the
//! workload's own QA benchmark with replacement under a seeded RNG, so a
//! `(size, seed, queries)` triple names one exact batch: the same
//! questions, in the same order, at every thread count.

use detkit::Rng;

use crate::ecommerce::{EcommerceConfig, EcommerceWorkload};

/// Parameters of one scale tier.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Number of products (the scaling axis). Every substrate grows
    /// linearly in it: `products × quarters` sales rows and report
    /// documents, `products` news documents, `products × 2` reviews.
    pub products: usize,
    /// Quarters of sales history per product.
    pub quarters: usize,
    /// Queries in the benchmark batch (sampled from the QA set with
    /// replacement).
    pub queries: usize,
    /// Master seed: drives both corpus generation and query sampling.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self { products: 16, quarters: 4, queries: 64, seed: 0x5CA1E }
    }
}

/// A generated scale tier: the corpus plus its benchmark query batch.
#[derive(Debug, Clone)]
pub struct ScaleWorkload {
    /// Parameters used.
    pub config: ScaleConfig,
    /// The underlying corpus (all three modalities + lexicon + QA).
    pub data: EcommerceWorkload,
    /// The benchmark batch, in answer order.
    pub queries: Vec<String>,
}

impl ScaleWorkload {
    /// Generates the tier deterministically from the config.
    pub fn generate(config: ScaleConfig) -> Self {
        assert!(config.products >= 4, "need at least 4 products (ecommerce floor)");
        assert!(config.queries >= 1, "need at least 1 query");
        // QA pool grows with the corpus so larger tiers also diversify
        // the query mix instead of replaying a tiny set more often.
        let qa_per_category = (config.products / 4).max(2);
        let data = EcommerceWorkload::generate(EcommerceConfig {
            products: config.products,
            quarters: config.quarters,
            reviews_per_product: 2,
            qa_per_category,
            seed: config.seed,
            name_offset: 0,
        });
        // Sampling seed is decoupled from the corpus seed so two tiers
        // sharing a seed still draw independent query streams.
        let mut rng = Rng::new(config.seed ^ 0x9E37_79B9_7F4A_7C15);
        let queries = (0..config.queries)
            .map(|_| data.qa[rng.gen_range(0..data.qa.len())].question.clone())
            .collect();
        Self { config, data, queries }
    }

    /// Total documents in the corpus (all sources).
    pub fn num_documents(&self) -> usize {
        self.data.documents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = ScaleWorkload::generate(ScaleConfig::default());
        let b = ScaleWorkload::generate(ScaleConfig::default());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.data.documents, b.data.documents);
    }

    #[test]
    fn corpus_grows_with_products() {
        let small = ScaleWorkload::generate(ScaleConfig { products: 8, ..Default::default() });
        let large = ScaleWorkload::generate(ScaleConfig { products: 32, ..Default::default() });
        assert!(large.num_documents() > small.num_documents());
        assert!(large.data.qa.len() > small.data.qa.len());
        let rows = |w: &ScaleWorkload| w.data.db.table("sales").unwrap().num_rows();
        assert_eq!(rows(&large), 32 * large.config.quarters);
        assert!(rows(&large) > rows(&small));
    }

    #[test]
    fn query_batch_has_requested_size_and_draws_from_qa() {
        let w = ScaleWorkload::generate(ScaleConfig { queries: 40, ..Default::default() });
        assert_eq!(w.queries.len(), 40);
        for q in &w.queries {
            assert!(w.data.qa.iter().any(|item| &item.question == q), "unknown query {q}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScaleWorkload::generate(ScaleConfig { seed: 1, ..Default::default() });
        let b = ScaleWorkload::generate(ScaleConfig { seed: 2, ..Default::default() });
        assert_ne!(a.queries, b.queries);
    }
}
