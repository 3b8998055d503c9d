//! # unisem-entropy
//!
//! Semantic entropy for uncertainty quantification (§III.D of the paper,
//! after Kuhn et al., "Semantic Uncertainty", ICLR 2023).
//!
//! Given multiple sampled answers to the same question:
//!
//! 1. [`cluster`] groups the answers into **semantic equivalence classes** —
//!    paraphrases land together ("Fever, cough, fatigue" ≡ "Symptoms include
//!    fever and cough"), contradictions land apart ("yes, if copyrighted" vs
//!    "no, unless consent is violated").
//! 2. [`measure`] computes the **semantic entropy** over the cluster
//!    distribution: low entropy = the model keeps saying the same thing =
//!    reliable; high entropy = divergent meanings = flag for review.
//! 3. [`calibrate`] evaluates how well an uncertainty score predicts
//!    answer correctness (AUROC, rejection curves) against the
//!    predictive-entropy and lexical-variance baselines — experiment E5.

pub mod calibrate;
pub mod cluster;
pub mod measure;

pub use calibrate::{auroc, rejection_accuracy_curve};
pub use cluster::{ClusterConfig, SemanticCluster};
pub use measure::{
    discrete_semantic_entropy, predictive_entropy, semantic_entropy_rao, EntropyReport,
};

use cluster::{cluster_samples, SampleSet, TemplateWords};
use measure::lexical_variance_of;
use unisem_slm::{GenConfig, Generation, Slm, SupportedAnswer};

/// End-to-end estimator: samples answers from the SLM and produces an
/// [`EntropyReport`].
#[derive(Debug, Clone)]
pub struct EntropyEstimator {
    slm: Slm,
    /// Number of samples drawn per question.
    pub n_samples: usize,
    /// Sampling temperature.
    pub temperature: f64,
    /// Clustering configuration.
    pub cluster_config: ClusterConfig,
    /// The paraphrase templates' words, analysed once.
    templates: TemplateWords,
}

impl EntropyEstimator {
    /// Creates an estimator with the paper-typical setting (10 samples at
    /// temperature 1.0).
    pub fn new(slm: Slm) -> Self {
        Self {
            slm,
            n_samples: 10,
            temperature: 1.0,
            cluster_config: ClusterConfig::default(),
            templates: TemplateWords::new(),
        }
    }

    /// Samples `self.n_samples` answers for `query` given evidence and
    /// measures uncertainty.
    pub fn estimate(&self, query: &str, evidence: &[SupportedAnswer]) -> EntropyReport {
        self.estimate_with_samples(query, evidence, self.n_samples)
    }

    /// [`Self::estimate`] with `n_samples` samples instead of the field's.
    pub fn estimate_with_samples(
        &self,
        query: &str,
        evidence: &[SupportedAnswer],
        n_samples: usize,
    ) -> EntropyReport {
        let gens = self.slm.sample_answers(
            query,
            evidence,
            &GenConfig {
                n_samples,
                temperature: self.temperature,
                paraphrase: true,
                ..GenConfig::default()
            },
        );
        self.measure_generations(&gens)
    }

    /// Measures uncertainty over already-sampled generations.
    ///
    /// A generation whose text is a paraphrase template around its core is
    /// analysed as that core; any other is analysed whole. The report is the
    /// one whole-text analysis would give (DESIGN.md §5b).
    pub fn measure_generations(&self, gens: &[Generation]) -> EntropyReport {
        let samples = SampleSet::new(
            &self.templates,
            gens.iter().map(|g| (g.text.as_str(), g.core.as_str())),
        );
        let clusters = cluster_samples(&samples, &self.cluster_config);
        let log_probs: Vec<f64> = gens.iter().map(|g| g.log_prob).collect();
        EntropyReport {
            n_samples: gens.len(),
            n_clusters: clusters.len(),
            semantic_entropy: semantic_entropy_rao(&clusters, &log_probs),
            discrete_semantic_entropy: discrete_semantic_entropy(&clusters, gens.len()),
            predictive_entropy: predictive_entropy(&log_probs),
            lexical_variance: lexical_variance_of(&samples),
            top_answer: clusters
                .first()
                .and_then(|c| c.member_indices.first())
                .map(|&i| gens[i].core.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_evidence_low_entropy() {
        let slm = Slm::default();
        let est = EntropyEstimator::new(slm);
        let strong = vec![SupportedAnswer::new("sales rose 20%", 8.0)];
        let report = est.estimate("How did sales change?", &strong);
        assert_eq!(report.n_samples, 10);
        assert!(report.discrete_semantic_entropy < 0.7, "got {report:?}");
        assert!(report.top_answer.is_some());
    }

    #[test]
    fn no_evidence_high_entropy() {
        let slm = Slm::default();
        let est = EntropyEstimator::new(slm);
        let weak: Vec<SupportedAnswer> = vec![];
        let report = est.estimate("Can I be sued for sharing a photo?", &weak);
        assert!(report.n_clusters >= 2, "hallucinations diverge: {report:?}");
        assert!(report.discrete_semantic_entropy > 0.4);
    }

    #[test]
    fn entropy_separates_strong_from_weak() {
        let slm = Slm::default();
        let est = EntropyEstimator::new(slm);
        let strong = est.estimate("q-strong", &[SupportedAnswer::new("the answer is 42", 9.0)]);
        let weak = est.estimate("q-weak", &[]);
        assert!(strong.discrete_semantic_entropy < weak.discrete_semantic_entropy);
    }

    #[test]
    fn deterministic_reports() {
        let slm1 = Slm::default();
        let slm2 = Slm::default();
        let e1 = EntropyEstimator::new(slm1)
            .estimate("same question", &[SupportedAnswer::new("alpha", 1.0)]);
        let e2 = EntropyEstimator::new(slm2)
            .estimate("same question", &[SupportedAnswer::new("alpha", 1.0)]);
        assert_eq!(e1, e2);
    }
}
