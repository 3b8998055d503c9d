//! # unisem-slm
//!
//! A **simulated Small Language Model** — the substitution documented in
//! DESIGN.md §2. No open-weight model can be downloaded in this offline
//! environment, so this crate provides a deterministic stand-in exposing the
//! same capability surface the paper requires from its SLM:
//!
//! - [`tokenizer`]: allocation-free subword token counting (the
//!   unit of the cost model),
//! - [`embedding`]: feature-hashed character-n-gram embeddings (the stand-in
//!   for learned dense vectors),
//! - [`ner`]: lexicon- and rule-based named entity recognition (§III.A's
//!   "lightweight SLM-based tagging"),
//! - [`pos`]: part-of-speech-lite tagging used by relational table
//!   generation (§III.C),
//! - [`tags`]: the unit both are run on, one sentence, and a table of
//!   sentences each tagged once,
//! - [`generate`]: evidence-constrained answer generation with
//!   temperature-controlled sampling — the code path semantic entropy
//!   (§III.D) measures,
//! - [`cost`]: a calibrated token/latency/memory cost model distinguishing
//!   SLM-class from LLM-class inference, so the paper's efficiency claims
//!   (§I) can be *measured* rather than asserted.
//!
//! Determinism: every stochastic path takes an explicit seed; two runs with
//! the same seed produce identical outputs.

pub mod cost;
pub mod embedding;
pub mod generate;
pub mod ner;
pub mod pos;
pub mod tags;
pub mod tokenizer;

pub use cost::{CostMeter, CostModel, ModelClass, UsageSnapshot};
pub use embedding::{Embedder, EmbedderConfig};
pub use generate::{template_of, GenConfig, Generation, Generator, SupportedAnswer, TEMPLATES};
pub use ner::{EntityKind, EntityMention, Lexicon, NerTagger};
pub use pos::{pos_tag, PosTag};
pub use tags::{SentenceTags, TagTable};
pub use tokenizer::{count_tokens, word_pieces};

use std::sync::Arc;

use unisem_text::distinct_ids;
use unisem_text::tokenize::{tokenize, Token};

/// Configuration for constructing an [`Slm`].
#[derive(Debug, Clone)]
pub struct SlmConfig {
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Domain lexicon for entity tagging (the SLM's "world knowledge").
    pub lexicon: Lexicon,
    /// Base seed for all stochastic generation paths.
    pub seed: u64,
}

impl Default for SlmConfig {
    fn default() -> Self {
        Self { embed_dim: 256, lexicon: Lexicon::default(), seed: 0x5eed }
    }
}

/// The simulated Small Language Model: a bundle of capabilities plus a
/// shared cost meter.
///
/// Cloning an `Slm` is cheap; clones share the same cost meter, so usage
/// accumulated by pipeline components all lands in one ledger.
#[derive(Debug, Clone)]
pub struct Slm {
    embedder: Arc<Embedder>,
    ner: Arc<NerTagger>,
    generator: Arc<Generator>,
    meter: CostMeter,
}

impl Default for Slm {
    fn default() -> Self {
        Self::new(SlmConfig::default())
    }
}

impl Slm {
    /// Builds an SLM from configuration.
    pub fn new(config: SlmConfig) -> Self {
        Self {
            embedder: Arc::new(Embedder::new(EmbedderConfig {
                dim: config.embed_dim,
                ..EmbedderConfig::default()
            })),
            ner: Arc::new(NerTagger::new(config.lexicon)),
            generator: Arc::new(Generator::new(config.seed)),
            meter: CostMeter::default(),
        }
    }

    /// Embeds text into a dense vector, charging the cost meter one
    /// embedding pass over the text's tokens.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        self.meter.record_embed(count_tokens(text));
        self.embedder.embed_text(text)
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.embedder.dim()
    }

    /// Direct access to the embedder (no cost accounting) for bulk offline
    /// indexing paths that account for cost at a coarser granularity.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// Tags named entities in `text`, charging one tagging pass.
    pub fn tag_entities(&self, text: &str) -> Vec<EntityMention> {
        self.meter.record_tag(count_tokens(text));
        self.ner.tag(text)
    }

    /// Tags one sentence: its entity mentions and its tokens' parts of
    /// speech, read off one tokenization and charged as one tagging pass,
    /// as [`Self::tag_entities`] is.
    pub fn tag_sentence<'a>(&self, sentence: &'a str) -> SentenceTags<'a> {
        self.meter.record_tag(count_tokens(sentence));
        let tokens: Vec<Token> = tokenize(sentence).collect();
        SentenceTags { mentions: self.ner.tag_tokens(sentence, &tokens), pos: pos_tag(&tokens) }
    }

    /// Access to the NER tagger (no cost accounting).
    pub fn ner(&self) -> &NerTagger {
        &self.ner
    }

    /// Generates sampled answers for a query given weighted evidence,
    /// charging one prefill over the prompt and decode per answer.
    pub fn sample_answers(
        &self,
        query: &str,
        evidence: &[SupportedAnswer],
        config: &GenConfig,
    ) -> Vec<Generation> {
        let prompt_tokens =
            count_tokens(query) + evidence.iter().map(|e| count_tokens(&e.text)).sum::<usize>();
        let gens = self.generator.sample(query, evidence, config);
        // Every sample is charged its text's tokens, but a core is counted
        // once however many samples and templates share it: a text that is
        // a template around its core counts the core's tokens plus the
        // template's (DESIGN.md §5b). Any other text is counted whole.
        let (ids, cores) = distinct_ids(gens.iter().map(|g| g.core.as_str()));
        let counts: Vec<usize> = cores.iter().map(|core| count_tokens(core)).collect();
        let decode_tokens: usize = gens
            .iter()
            .zip(ids)
            .map(|(g, id)| match template_of(&g.text, &g.core) {
                Some(t) => counts[id] + self.generator.template_tokens(t),
                None => count_tokens(&g.text),
            })
            .sum();
        self.meter.record_generate(prompt_tokens, decode_tokens);
        gens
    }

    /// The shared cost meter.
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn default_constructs() {
        let slm = Slm::default();
        assert_eq!(slm.embed_dim(), 256);
    }

    #[test]
    fn embed_charges_meter() {
        let slm = Slm::default();
        let before = slm.meter().snapshot().embed_tokens;
        slm.embed("some text to embed");
        assert!(slm.meter().snapshot().embed_tokens > before);
    }

    #[test]
    fn clones_share_meter() {
        let slm = Slm::default();
        let clone = slm.clone();
        clone.embed("shared ledger");
        assert!(slm.meter().snapshot().embed_tokens > 0);
    }

    #[test]
    fn deterministic_embeddings() {
        let a = Slm::default();
        let b = Slm::default();
        assert_eq!(a.embed("Q2 sales increased"), b.embed("Q2 sales increased"));
    }

    #[test]
    fn sample_answers_charges_generation() {
        let slm = Slm::default();
        let evidence = vec![SupportedAnswer::new("42 units", 1.0)];
        let gens = slm.sample_answers("How many units?", &evidence, &GenConfig::default());
        assert!(!gens.is_empty());
        let snap = slm.meter().snapshot();
        assert!(snap.prompt_tokens > 0);
        assert!(snap.decode_tokens > 0);
    }

    #[test]
    fn sample_answers_charges_every_sample_its_own_tokens() {
        let one_answer = [SupportedAnswer::new("42 units were internationalized", 5.0)];
        let four_answers: Vec<SupportedAnswer> =
            ["sales rose 20%", "sales fell 3%", "no change was recorded", "1,234 units"]
                .iter()
                .map(|core| SupportedAnswer::new(*core, 1.0))
                .collect();
        // Strong evidence repeats its one core under six templates; greedy
        // decoding without templates repeats one text ten times; no evidence
        // at all samples hallucinations.
        let mut seen_repeats = false;
        let mut seen_all_distinct = false;
        for evidence in [&one_answer[..], &four_answers[..], &[]] {
            for temperature in [0.0, 1.0] {
                for paraphrase in [false, true] {
                    for n_samples in [3, 10] {
                        let config = GenConfig {
                            n_samples,
                            temperature,
                            paraphrase,
                            ..GenConfig::default()
                        };
                        let slm = Slm::default();
                        let gens = slm.sample_answers("How many units?", evidence, &config);
                        assert_eq!(gens.len(), n_samples);
                        let texts: HashSet<&str> = gens.iter().map(|g| g.text.as_str()).collect();
                        seen_repeats |= texts.len() < gens.len();
                        seen_all_distinct |= texts.len() == gens.len();

                        let snap = slm.meter().snapshot();
                        let decode: usize = gens.iter().map(|g| count_tokens(&g.text)).sum();
                        let prompt = count_tokens("How many units?")
                            + evidence.iter().map(|e| count_tokens(&e.text)).sum::<usize>();
                        assert_eq!(snap.decode_tokens, decode, "{config:?}");
                        assert_eq!(snap.prompt_tokens, prompt, "{config:?}");
                        assert_eq!(snap.generate_calls, 1);
                    }
                }
            }
        }
        assert!(seen_repeats && seen_all_distinct);
    }
}
