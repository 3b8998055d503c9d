//! Evidence-constrained answer generation with temperature sampling.
//!
//! This is the code path semantic entropy (§III.D) measures. The generator
//! models the *decision behaviour* of an SLM answering from retrieved
//! evidence:
//!
//! - Each candidate answer carries a **support** weight (how strongly the
//!   retrieved context backs it). Sampling draws from a softmax over
//!   supports at the configured temperature.
//! - When total support is weak, the generator mixes in **hallucination
//!   candidates** — plausible-but-ungrounded answers derived
//!   deterministically from the query — reproducing the failure mode the
//!   paper cites ("LLM-based QA systems often hallucinate plausible but
//!   ungrounded comparisons", §I).
//! - Sampled answers are surfaced through **paraphrase templates**, so
//!   semantically identical samples are *lexically* diverse. A correct
//!   entropy implementation must cluster these together; a naive
//!   exact-match one will not — which is precisely the distinction the
//!   paper's §III.D draws.
//!
//! All randomness is seeded: `(generator seed, query, config seed)` fully
//! determine the output.

use detkit::Rng;

use crate::embedding::fnv1a;
use crate::tokenizer::count_tokens;

/// A candidate answer with its evidence support weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SupportedAnswer {
    /// The answer text (the semantic "core" — templates wrap around it).
    pub text: String,
    /// Non-negative evidence weight; higher = better grounded.
    pub support: f64,
}

impl SupportedAnswer {
    /// Convenience constructor.
    pub fn new(text: impl Into<String>, support: f64) -> Self {
        Self { text: text.into(), support }
    }
}

/// Sampling configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of samples to draw.
    pub n_samples: usize,
    /// Softmax temperature; 0 is greedy (argmax).
    pub temperature: f64,
    /// Extra seed mixed into the RNG so callers can draw fresh sample sets.
    pub seed: u64,
    /// Whether to wrap samples in paraphrase templates.
    pub paraphrase: bool,
    /// Support mass below which hallucination candidates are mixed in.
    pub hallucination_threshold: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            n_samples: 1,
            temperature: 0.7,
            seed: 0,
            paraphrase: true,
            hallucination_threshold: 0.25,
        }
    }
}

/// One sampled generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// Surface text (template-wrapped core answer).
    pub text: String,
    /// The unwrapped core answer.
    pub core: String,
    /// Natural log-probability of the chosen candidate under the sampling
    /// distribution (the predictive-entropy baseline consumes this).
    pub log_prob: f64,
    /// Index of the evidence candidate, or `None` for a hallucination.
    pub source_index: Option<usize>,
}

/// Paraphrase templates, each the text before and the text after the core
/// answer.
///
/// Every prefix is empty or ends in a space, and every suffix is empty or
/// starts with `.` or a space, so the tokens of a wrapped text are the
/// prefix's, then the core's, then the suffix's (DESIGN.md §5b).
pub const TEMPLATES: &[(&str, &str)] = &[
    ("", ""),
    ("The answer is ", "."),
    ("Based on the data, ", "."),
    ("", " according to the records."),
    ("It appears that ", "."),
    ("From the available evidence: ", "."),
];

/// The index of the template that wraps `core` into `text`: `Some(t)` only
/// when `text == prefix + core + suffix` byte for byte.
///
/// ```
/// use unisem_slm::generate::template_of;
/// assert_eq!(template_of("The answer is 42.", "42"), Some(1));
/// assert_eq!(template_of("The answer is 42.", "The answer is 42."), Some(0));
/// assert_eq!(template_of("The answer is 42!", "42"), None);
/// ```
pub fn template_of(text: &str, core: &str) -> Option<usize> {
    TEMPLATES.iter().position(|(prefix, suffix)| {
        text.strip_prefix(prefix).and_then(|rest| rest.strip_suffix(suffix)) == Some(core)
    })
}

/// Hallucination answer fragments, instantiated per query.
const HALLUCINATION_FORMS: &[&str] = &[
    "it cannot be determined",
    "the opposite holds",
    "results are inconclusive",
    "no change was observed",
];

/// The answer generator.
#[derive(Debug, Clone)]
pub struct Generator {
    base_seed: u64,
    /// Per template, the subword tokens its prefix and suffix add.
    template_tokens: Vec<usize>,
}

impl Generator {
    /// Creates a generator with a base seed.
    pub fn new(base_seed: u64) -> Self {
        let template_tokens =
            TEMPLATES.iter().map(|(prefix, suffix)| count_tokens(prefix) + count_tokens(suffix));
        Self { base_seed, template_tokens: template_tokens.collect() }
    }

    /// The subword tokens template `t` adds around its core: with the
    /// core's own count, the count of the whole text.
    pub fn template_tokens(&self, t: usize) -> usize {
        self.template_tokens[t]
    }

    /// Draws `config.n_samples` answers for `query` from the evidence
    /// distribution.
    ///
    /// Deterministic in `(base_seed, query, config.seed)`.
    pub fn sample(
        &self,
        query: &str,
        evidence: &[SupportedAnswer],
        config: &GenConfig,
    ) -> Vec<Generation> {
        let mut candidates: Vec<(String, f64, Option<usize>)> = evidence
            .iter()
            .enumerate()
            .map(|(i, e)| (e.text.clone(), e.support.max(0.0), Some(i)))
            .collect();

        let total_support: f64 = candidates.iter().map(|c| c.1).sum();
        // Weak grounding → mix in query-derived hallucinations. Their mass
        // grows as real support shrinks, so entropy tracks evidence quality.
        if total_support < config.hallucination_threshold {
            let halluc_mass = (config.hallucination_threshold - total_support).max(0.05);
            let qh = fnv1a(query.as_bytes());
            for (k, form) in HALLUCINATION_FORMS.iter().enumerate() {
                let jitter = ((qh.rotate_left(k as u32 * 7) % 100) as f64) / 400.0;
                candidates.push((
                    (*form).to_string(),
                    halluc_mass / HALLUCINATION_FORMS.len() as f64 + jitter * 0.01,
                    None,
                ));
            }
        }
        if candidates.is_empty() {
            return Vec::new();
        }

        let probs =
            softmax(&candidates.iter().map(|c| c.1).collect::<Vec<_>>(), config.temperature);
        let seed = self.base_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ fnv1a(query.as_bytes())
            ^ config.seed.wrapping_mul(0xff51_afd7_ed55_8ccd);
        // One decorrelated RNG substream per sample, forked in index order:
        // sample `s` draws the same values whatever `n_samples` is, so a
        // caller that asks for fewer samples gets a prefix of the same
        // sequence. A plain loop: a sample is a few microseconds of string
        // templating, less than a fork-join costs (DESIGN.md §6).
        let mut rng = Rng::new(seed);
        (0..config.n_samples)
            .map(|s| {
                let idx = if config.temperature <= 0.0 {
                    argmax(&probs)
                } else {
                    sample_categorical(&mut rng.fork(), &probs)
                };
                let (core, _, source) = &candidates[idx];
                let text = if config.paraphrase {
                    let ti =
                        (seed.rotate_left(s as u32) as usize).wrapping_add(s) % TEMPLATES.len();
                    let (prefix, suffix) = TEMPLATES[ti];
                    [prefix, core, suffix].concat()
                } else {
                    core.clone()
                };
                Generation {
                    text,
                    core: core.clone(),
                    log_prob: probs[idx].max(1e-12).ln(),
                    source_index: *source,
                }
            })
            .collect()
    }
}

/// Temperature softmax; temperature 0 returns a one-hot argmax distribution.
fn softmax(weights: &[f64], temperature: f64) -> Vec<f64> {
    if weights.is_empty() {
        return Vec::new();
    }
    if temperature <= 0.0 {
        let mut p = vec![0.0; weights.len()];
        p[argmax_slice(weights)] = 1.0;
        return p;
    }
    let max = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = weights.iter().map(|w| ((w - max) / temperature).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

fn argmax(probs: &[f64]) -> usize {
    argmax_slice(probs)
}

fn argmax_slice(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

fn sample_categorical(rng: &mut Rng, probs: &[f64]) -> usize {
    let r = rng.next_f64();
    let mut acc = 0.0;
    for (i, p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strong_evidence() -> Vec<SupportedAnswer> {
        vec![
            SupportedAnswer::new("sales rose 20%", 5.0),
            SupportedAnswer::new("sales fell 3%", 0.2),
        ]
    }

    #[test]
    fn deterministic_sampling() {
        let g = Generator::new(42);
        let cfg = GenConfig { n_samples: 5, ..GenConfig::default() };
        let a = g.sample("q", &strong_evidence(), &cfg);
        let b = g.sample("q", &strong_evidence(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_samples_are_a_prefix_of_more() {
        let g = Generator::new(42);
        let sample = |n_samples| {
            let cfg = GenConfig { n_samples, temperature: 2.0, ..GenConfig::default() };
            g.sample("q", &strong_evidence(), &cfg)
        };
        let ten = sample(10);
        for k in [1, 3] {
            assert_eq!(sample(k), ten[..k], "sample s must not depend on n_samples (k={k})");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig { n_samples: 8, temperature: 2.0, ..GenConfig::default() };
        let a = Generator::new(1).sample("q", &strong_evidence(), &cfg);
        let b = Generator::new(2).sample("q", &strong_evidence(), &cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_temperature_is_greedy() {
        let g = Generator::new(7);
        let cfg = GenConfig {
            n_samples: 10,
            temperature: 0.0,
            paraphrase: false,
            ..GenConfig::default()
        };
        let gens = g.sample("q", &strong_evidence(), &cfg);
        assert!(gens.iter().all(|x| x.core == "sales rose 20%"));
    }

    #[test]
    fn strong_evidence_concentrates_samples() {
        let g = Generator::new(3);
        let cfg = GenConfig {
            n_samples: 20,
            temperature: 0.5,
            paraphrase: false,
            ..GenConfig::default()
        };
        let gens = g.sample("q", &strong_evidence(), &cfg);
        let majority = gens.iter().filter(|x| x.core == "sales rose 20%").count();
        assert!(majority >= 16, "got {majority}/20");
    }

    #[test]
    fn no_evidence_hallucinates_diversely() {
        let g = Generator::new(3);
        let cfg = GenConfig {
            n_samples: 20,
            temperature: 1.0,
            paraphrase: false,
            ..GenConfig::default()
        };
        let gens = g.sample("unanswerable question", &[], &cfg);
        assert_eq!(gens.len(), 20);
        assert!(gens.iter().all(|x| x.source_index.is_none()));
        let distinct: std::collections::HashSet<&str> =
            gens.iter().map(|x| x.core.as_str()).collect();
        assert!(distinct.len() >= 2, "hallucinations should diverge");
    }

    #[test]
    fn weak_evidence_mixes_hallucinations() {
        let g = Generator::new(11);
        let weak = vec![SupportedAnswer::new("maybe 5 units", 0.05)];
        let cfg = GenConfig {
            n_samples: 30,
            temperature: 1.5,
            paraphrase: false,
            ..GenConfig::default()
        };
        let gens = g.sample("q", &weak, &cfg);
        assert!(gens.iter().any(|x| x.source_index.is_none()));
        assert!(gens.iter().any(|x| x.source_index.is_some()));
    }

    #[test]
    fn paraphrase_preserves_core() {
        let g = Generator::new(5);
        let cfg =
            GenConfig { n_samples: 12, temperature: 0.0, paraphrase: true, ..GenConfig::default() };
        let gens = g.sample("q", &strong_evidence(), &cfg);
        for x in &gens {
            assert!(x.text.contains(&x.core), "{} ⊄ {}", x.core, x.text);
        }
        // Templates vary the surface form across samples.
        let surfaces: std::collections::HashSet<&str> =
            gens.iter().map(|x| x.text.as_str()).collect();
        assert!(surfaces.len() > 1);
    }

    #[test]
    fn log_probs_are_valid() {
        let g = Generator::new(5);
        let cfg = GenConfig { n_samples: 6, ..GenConfig::default() };
        for x in g.sample("q", &strong_evidence(), &cfg) {
            assert!(x.log_prob <= 0.0);
            assert!(x.log_prob.is_finite());
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0], 0.7);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_temperature_flattens() {
        let hot = softmax(&[1.0, 3.0], 5.0);
        let cold = softmax(&[1.0, 3.0], 0.1);
        assert!(hot[0] > cold[0]);
    }

    #[test]
    fn template_of_checks_bytes() {
        for (t, (prefix, suffix)) in TEMPLATES.iter().enumerate() {
            let text = format!("{prefix}42 units{suffix}");
            assert_eq!(template_of(&text, "42 units"), Some(t));
            assert_eq!(template_of(&text, "42 unit"), None);
            assert_eq!(template_of(&text, &text), Some(0));
        }
        assert_eq!(template_of("the answer is 42.", "42"), None);
        assert_eq!(template_of("The answer is 42", "42"), None);
        assert_eq!(template_of("", ""), Some(0));
    }

    #[test]
    fn template_tokens_complete_the_core_count() {
        let g = Generator::new(0);
        for (t, (prefix, suffix)) in TEMPLATES.iter().enumerate() {
            for core in ["", "42", "sales rose 20%", "-15", "3."] {
                let text = format!("{prefix}{core}{suffix}");
                assert_eq!(count_tokens(core) + g.template_tokens(t), count_tokens(&text));
            }
        }
    }

    #[test]
    fn empty_everything() {
        let g = Generator::new(0);
        let cfg = GenConfig { hallucination_threshold: 0.0, ..GenConfig::default() };
        assert!(g.sample("q", &[], &cfg).is_empty());
    }
}
