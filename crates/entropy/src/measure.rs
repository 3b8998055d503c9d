//! Entropy measures over clustered answers.

use crate::cluster::{jaccard, SampleSet, SemanticCluster};

/// The full uncertainty report for one question.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyReport {
    /// Number of sampled answers.
    pub n_samples: usize,
    /// Number of semantic clusters.
    pub n_clusters: usize,
    /// Rao-style semantic entropy (probability-weighted clusters).
    pub semantic_entropy: f64,
    /// Discrete semantic entropy (count-weighted clusters).
    pub discrete_semantic_entropy: f64,
    /// Predictive entropy baseline (mean negative log-probability).
    pub predictive_entropy: f64,
    /// Lexical-variance baseline (1 − mean pairwise token Jaccard).
    pub lexical_variance: f64,
    /// Core answer of the largest cluster (the system's reply).
    pub top_answer: Option<String>,
}

impl EntropyReport {
    /// Calibrated confidence: 1 − normalized discrete semantic entropy,
    /// clamped to `[0, 1]`. The normalizer is `ln(max(n_samples, 2))` — the
    /// entropy of total disagreement — so unanimous samples score 1 and
    /// all-distinct samples score 0. This is *the* confidence formula every
    /// pipeline (unified engine and baselines alike) uses, so abstention
    /// thresholds are comparable across them.
    pub fn confidence(&self) -> f64 {
        let n = self.n_samples.max(2) as f64;
        (1.0 - self.discrete_semantic_entropy / n.ln()).clamp(0.0, 1.0)
    }
}

/// Discrete semantic entropy: `−Σ (|c|/n) ln(|c|/n)` over clusters.
///
/// 0 when all samples agree; `ln(n)` when all disagree.
pub fn discrete_semantic_entropy(clusters: &[SemanticCluster], n_samples: usize) -> f64 {
    if n_samples == 0 {
        return 0.0;
    }
    let n = n_samples as f64;
    -clusters
        .iter()
        .map(|c| {
            let p = c.len() as f64 / n;
            if p > 0.0 {
                p * p.ln()
            } else {
                0.0
            }
        })
        .sum::<f64>()
}

/// Rao semantic entropy: cluster probability is the normalized sum of
/// member sequence probabilities (`exp(log_prob)`), following Kuhn et al.'s
/// length-normalized estimator.
pub fn semantic_entropy_rao(clusters: &[SemanticCluster], log_probs: &[f64]) -> f64 {
    if clusters.is_empty() {
        return 0.0;
    }
    let cluster_mass: Vec<f64> = clusters
        .iter()
        .map(|c| c.member_indices.iter().map(|&i| log_probs[i].exp()).sum::<f64>())
        .collect();
    let z: f64 = cluster_mass.iter().sum();
    if z <= 0.0 {
        return discrete_semantic_entropy(
            clusters,
            clusters.iter().map(SemanticCluster::len).sum(),
        );
    }
    -cluster_mass
        .iter()
        .map(|&m| {
            let p = m / z;
            if p > 0.0 {
                p * p.ln()
            } else {
                0.0
            }
        })
        .sum::<f64>()
}

/// Predictive entropy baseline: mean negative log-probability of the
/// samples. Ignores meaning entirely — which is exactly why semantic
/// entropy beats it when paraphrases inflate surface diversity.
pub fn predictive_entropy(log_probs: &[f64]) -> f64 {
    if log_probs.is_empty() {
        return 0.0;
    }
    -log_probs.iter().sum::<f64>() / log_probs.len() as f64
}

/// Lexical-variance baseline: `1 − mean pairwise Jaccard` over the
/// samples' token sets. High when answers share few words — even when they
/// mean the same thing.
pub(crate) fn lexical_variance_of(samples: &SampleSet) -> f64 {
    let (ids, words) = (&samples.ids, &samples.words);
    if ids.len() < 2 {
        return 0.0;
    }
    // One Jaccard per pair of distinct texts — a text against itself is 1 —
    // then the sum over sample pairs in the order it always ran in.
    let m = words.len();
    let mut table = vec![1.0; m * m];
    for a in 0..m {
        for b in a + 1..m {
            let similarity = jaccard(&words[a], &words[b]);
            table[a * m + b] = similarity;
            table[b * m + a] = similarity;
        }
    }
    let mut total = 0.0;
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            total += table[a * m + b];
        }
    }
    let pairs = ids.len() * (ids.len() - 1) / 2;
    1.0 - total / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{cluster_samples, ClusterConfig};

    fn clusters_of(answers: &[&str]) -> Vec<SemanticCluster> {
        cluster_samples(&SampleSet::new(answers.iter().copied()), &ClusterConfig::default())
    }

    fn lexical_variance(answers: &[&str]) -> f64 {
        lexical_variance_of(&SampleSet::new(answers.iter().copied()))
    }

    #[test]
    fn unanimous_is_zero() {
        let c = clusters_of(&["same", "same", "same"]);
        assert_eq!(discrete_semantic_entropy(&c, 3), 0.0);
    }

    #[test]
    fn confidence_maps_entropy_to_unit_interval() {
        let report = |n: usize, e: f64| EntropyReport {
            n_samples: n,
            n_clusters: 1,
            semantic_entropy: e,
            discrete_semantic_entropy: e,
            predictive_entropy: 0.0,
            lexical_variance: 0.0,
            top_answer: None,
        };
        assert_eq!(report(5, 0.0).confidence(), 1.0, "unanimous");
        assert_eq!(report(5, (5f64).ln()).confidence(), 0.0, "total disagreement");
        let mid = report(4, (4f64).ln() / 2.0).confidence();
        assert!((mid - 0.5).abs() < 1e-12, "{mid}");
        // Degenerate sample counts clamp instead of dividing by ln(1)=0.
        assert!(report(1, 0.3).confidence().is_finite());
        assert!((0.0..=1.0).contains(&report(0, 9.0).confidence()));
    }

    #[test]
    fn maximal_disagreement_is_ln_n() {
        let c = clusters_of(&["alpha", "beta", "gamma"]);
        let e = discrete_semantic_entropy(&c, 3);
        assert!((e - 3f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn entropy_monotone_in_disagreement() {
        let low = discrete_semantic_entropy(&clusters_of(&["x", "x", "x", "y"]), 4);
        let high = discrete_semantic_entropy(&clusters_of(&["x", "x", "y", "y"]), 4);
        assert!(low < high);
    }

    #[test]
    fn rao_weights_by_probability() {
        let c = clusters_of(&["alpha", "beta"]);
        // Equal probabilities → ln 2.
        let e = semantic_entropy_rao(&c, &[(0.5f64).ln(), (0.5f64).ln()]);
        assert!((e - 2f64.ln()).abs() < 1e-9);
        // Skewed probabilities → lower entropy.
        let skew = semantic_entropy_rao(&c, &[(0.99f64).ln(), (0.01f64).ln()]);
        assert!(skew < e);
    }

    #[test]
    fn rao_merges_same_cluster_mass() {
        // Two samples in one cluster + one alone, all equal prob: p = (2/3, 1/3).
        let c = clusters_of(&["x", "x", "y"]);
        let lp = (1.0f64 / 3.0).ln();
        let e = semantic_entropy_rao(&c, &[lp, lp, lp]);
        let expected = -(2.0 / 3.0f64 * (2.0 / 3.0f64).ln() + 1.0 / 3.0 * (1.0f64 / 3.0).ln());
        assert!((e - expected).abs() < 1e-9);
    }

    #[test]
    fn predictive_entropy_basics() {
        assert_eq!(predictive_entropy(&[]), 0.0);
        let e = predictive_entropy(&[(0.5f64).ln(), (0.25f64).ln()]);
        assert!(e > 0.0);
        // More confident samples → lower predictive entropy.
        let conf = predictive_entropy(&[(0.9f64).ln(), (0.9f64).ln()]);
        assert!(conf < e);
    }

    #[test]
    fn lexical_variance_bounds() {
        assert_eq!(lexical_variance(&["only one"]), 0.0);
        let same = lexical_variance(&["a b c", "a b c"]);
        assert!(same.abs() < 1e-9);
        let diff = lexical_variance(&["a b c", "x y z"]);
        assert!((diff - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lexical_variance_fooled_by_paraphrase_semantic_not() {
        // The distinction the paper draws: paraphrases inflate lexical
        // variance but not semantic entropy.
        let paraphrases = vec![
            "sales rose 20%",
            "Based on the data, sales rose 20%.",
            "It appears that sales rose 20%.",
        ];
        let lv = lexical_variance(&paraphrases);
        let se = discrete_semantic_entropy(&clusters_of(&paraphrases), 3);
        assert!(lv > 0.3, "lexical variance inflated: {lv}");
        assert_eq!(se, 0.0, "semantic entropy sees one meaning");
    }

    #[test]
    fn empty_everything() {
        assert_eq!(discrete_semantic_entropy(&[], 0), 0.0);
        assert_eq!(semantic_entropy_rao(&[], &[]), 0.0);
    }
}
