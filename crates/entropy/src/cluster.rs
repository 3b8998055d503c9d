//! Semantic clustering of sampled answers.
//!
//! The equivalence oracle approximates bidirectional entailment (the check
//! Kuhn et al. run with an NLI model) with three deterministic signals:
//!
//! 1. **Content-word agreement** — stopwords and answer-template filler are
//!    stripped, remaining words stemmed; high Jaccard overlap or mutual
//!    containment ⇒ same meaning.
//! 2. **Number agreement** — answers asserting different numbers are never
//!    equivalent ("rose 20%" ≠ "rose 5%"), matching the entailment
//!    behaviour that matters for factual QA.
//! 3. **Polarity agreement** — a negated and a non-negated answer are never
//!    equivalent ("improves outcomes" ≠ "does not improve outcomes").

use std::cmp::Ordering;

use unisem_slm::{template_of, TEMPLATES};
use unisem_text::distinct_ids;
use unisem_text::normalize::{is_stopword, stem_into};
use unisem_text::tokenize::{tokenize, TokenKind};

/// Words added by answer templates; never semantic content.
const TEMPLATE_FILLER: &[&str] = &[
    "answer",
    "based",
    "data",
    "according",
    "records",
    "appears",
    "available",
    "evidence",
    "from",
    "seems",
    "likely",
];

/// Negation markers for the polarity check.
const NEGATIONS: &[&str] = &["not", "no", "never", "cannot", "n't", "without", "none"];

/// Clustering thresholds.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Minimum content-word Jaccard for equivalence.
    pub min_jaccard: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self { min_jaccard: 0.5 }
    }
}

/// The extracted semantic signature of one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Stemmed content words, sorted and deduplicated ([`equivalent`]
    /// merges two of these lists and relies on the order).
    pub content: Vec<String>,
    /// Numbers asserted by the answer (normalized text).
    pub numbers: Vec<String>,
    /// Whether the answer contains a negation marker.
    pub negated: bool,
}

/// Extracts the semantic signature of an answer.
pub fn signature(text: &str) -> Signature {
    analyse(text, |_| {})
}

/// One pass over the tokens of `text`: returns its [`Signature`], and hands
/// `word` each lower-cased word and number token — what the
/// lexical-variance baseline compares.
///
/// Tokens borrow `text` and are folded and stemmed in two reused buffers;
/// a stem is copied only the first time it enters the content set.
fn analyse(text: &str, mut word: impl FnMut(&str)) -> Signature {
    let mut content = Vec::new();
    let mut numbers = Vec::new();
    let mut negated = false;
    let (mut lower, mut stemmed) = (String::new(), String::new());
    for t in tokenize(text) {
        match t.kind {
            TokenKind::Number => {
                numbers.push(t.text.replace(',', ""));
                t.lower_into(&mut lower);
            }
            TokenKind::Word => {
                t.lower_into(&mut lower);
                if NEGATIONS.contains(&lower.as_str()) {
                    negated = true;
                } else if !is_stopword(&lower) && !TEMPLATE_FILLER.contains(&lower.as_str()) {
                    stem_into(&lower, &mut stemmed);
                    insert_sorted(&mut content, &stemmed);
                }
            }
            TokenKind::Punct => continue,
        }
        word(&lower);
    }
    numbers.sort();
    Signature { content, numbers, negated }
}

/// Inserts `s` into the sorted, deduplicated `set` unless it is there.
fn insert_sorted(set: &mut Vec<String>, s: &str) {
    if let Err(at) = set.binary_search_by(|x| x.as_str().cmp(s)) {
        set.insert(at, s.to_owned());
    }
}

/// How many items two sorted, deduplicated lists share: one merge.
fn overlap<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// Jaccard similarity of two sorted, deduplicated lists; two empty sets are
/// identical.
pub(crate) fn jaccard<T: Ord>(a: &[T], b: &[T]) -> f64 {
    jaccard_of(overlap(a, b), a.len(), b.len())
}

/// Intersection over union, from the sizes of two sets and of their
/// intersection.
fn jaccard_of(shared: usize, a: usize, b: usize) -> f64 {
    if a + b == 0 {
        return 1.0;
    }
    shared as f64 / (a + b - shared) as f64
}

/// Whether two signatures are semantically equivalent.
pub fn equivalent(a: &Signature, b: &Signature, config: &ClusterConfig) -> bool {
    // Polarity mismatch is decisive.
    if a.negated != b.negated {
        return false;
    }
    // Asserted numbers must agree when both sides assert any.
    if !a.numbers.is_empty() && !b.numbers.is_empty() && a.numbers != b.numbers {
        return false;
    }
    let (na, nb) = (a.content.len(), b.content.len());
    if na == 0 && nb == 0 {
        // Pure-number answers: equality decided above.
        return a.numbers == b.numbers;
    }
    // Containment: one answer elaborates the other — the shorter list is
    // wholly shared.
    let shared = overlap(&a.content, &b.content);
    if na != 0 && nb != 0 && shared == na.min(nb) {
        return true;
    }
    jaccard_of(shared, na, nb) >= config.min_jaccard
}

/// One semantic cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticCluster {
    /// Indices (into the input answer slice) of the members.
    pub member_indices: Vec<usize>,
    /// Representative signature (the first member's).
    pub signature: Signature,
}

impl SemanticCluster {
    /// Cluster size.
    pub fn len(&self) -> usize {
        self.member_indices.len()
    }

    /// True when the cluster has no members (never produced by the
    /// clustering).
    pub fn is_empty(&self) -> bool {
        self.member_indices.is_empty()
    }
}

/// What a paraphrase template adds to the texts it wraps, computed once per
/// [`crate::EntropyEstimator`].
///
/// A template's prefix and suffix tokenize apart from the core they wrap
/// (`unisem_slm::TEMPLATES`), so a wrapped text's word set is the union of
/// its core's and the template's. A *neutral* template — no content word,
/// number or negation — also leaves the signature as the core's
/// (DESIGN.md §5b).
#[derive(Debug, Clone)]
pub(crate) struct TemplateWords {
    /// Every template word: word `i` has id `i` in each [`SampleSet`].
    vocab: Vec<String>,
    /// Per template, the sorted ids of its words, or `None` when the
    /// template is not neutral and a text it wraps is analysed whole.
    words: Vec<Option<Vec<u32>>>,
}

impl TemplateWords {
    pub(crate) fn new() -> Self {
        let mut interner = Interner { vocab: &[], seen: Vec::new() };
        let words = TEMPLATES
            .iter()
            .map(|&(prefix, suffix)| {
                let mut ids = Vec::new();
                let prefix = analyse(prefix, |w| ids.push(interner.id(w)));
                let suffix = analyse(suffix, |w| ids.push(interner.id(w)));
                (is_neutral(&prefix) && is_neutral(&suffix)).then(|| sorted_set(ids))
            })
            .collect();
        Self { vocab: interner.seen, words }
    }

    /// Whether template `t` leaves a signature as its core's.
    #[cfg(test)]
    pub(crate) fn neutral(&self, t: usize) -> bool {
        self.words[t].is_some()
    }
}

/// No content word, number or negation.
fn is_neutral(sig: &Signature) -> bool {
    sig.content.is_empty() && sig.numbers.is_empty() && !sig.negated
}

/// Numbers words as first seen, after the words of `vocab`. (A sample set
/// holds fewer words than its texts have bytes, so an id fits a `u32`.)
struct Interner<'t> {
    vocab: &'t [String],
    seen: Vec<String>,
}

impl Interner<'_> {
    fn id(&mut self, word: &str) -> u32 {
        let known = self.vocab.iter().chain(&self.seen).position(|w| w == word);
        let id = known.unwrap_or_else(|| {
            self.seen.push(word.to_owned());
            self.vocab.len() + self.seen.len() - 1
        });
        id as u32
    }
}

/// `ids` sorted and deduplicated.
fn sorted_set(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The sampled answers of one question, analysed once per distinct core.
///
/// The sampler wraps one core in up to six templates, and at low entropy it
/// samples the same core again and again. A text that is a neutral template
/// around its core is analysed as that core — its *unit* — plus the
/// template's words; any other text is its own unit. Each distinct unit is
/// tokenized once, and each distinct text keeps the index of its unit's
/// signature and its own word set (DESIGN.md §5b).
pub(crate) struct SampleSet {
    /// Per sample, the index of its text among the distinct texts, which
    /// are numbered in first-occurrence order.
    pub(crate) ids: Vec<usize>,
    /// Per distinct text, the index of its unit, numbered in
    /// first-occurrence order over the distinct texts.
    unit_of: Vec<usize>,
    /// Per unit, its signature.
    signatures: Vec<Signature>,
    /// Per distinct text, the ids of its lower-cased word and number
    /// tokens, sorted and deduplicated.
    pub(crate) words: Vec<Vec<u32>>,
}

impl SampleSet {
    /// Analyses samples given as `(text, core)` pairs.
    pub(crate) fn new<'a>(
        templates: &TemplateWords,
        samples: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Self {
        let samples: Vec<(&str, &str)> = samples.into_iter().collect();
        let (ids, _) = distinct_ids(samples.iter().map(|&(text, _)| text));
        // Per distinct text, its unit and the ids its template adds, from
        // the first sample with that text.
        let mut wrapped: Vec<(&str, &[u32])> = Vec::with_capacity(samples.len());
        for (&(text, core), &id) in samples.iter().zip(&ids) {
            if id == wrapped.len() {
                wrapped.push(
                    match template_of(text, core).and_then(|t| templates.words[t].as_deref()) {
                        Some(words) => (core, words),
                        None => (text, &[]),
                    },
                );
            }
        }
        let (unit_of, units) = distinct_ids(wrapped.iter().map(|&(unit, _)| unit));
        let mut interner = Interner { vocab: &templates.vocab, seen: Vec::new() };
        let (signatures, unit_words): (Vec<Signature>, Vec<Vec<u32>>) = units
            .into_iter()
            .map(|unit| {
                let mut ids = Vec::new();
                let sig = analyse(unit, |w| ids.push(interner.id(w)));
                (sig, sorted_set(ids))
            })
            .unzip();
        let words = unit_of
            .iter()
            .zip(&wrapped)
            .map(|(&u, &(_, template))| sorted_set([&unit_words[u][..], template].concat()))
            .collect();
        Self { ids, unit_of, signatures, words }
    }

    /// How many units were analysed.
    #[cfg(test)]
    pub(crate) fn units(&self) -> usize {
        self.signatures.len()
    }
}

/// Greedy single-pass clustering: each sample joins the first cluster whose
/// representative it is equivalent to, else starts a new cluster. Clusters
/// are returned largest-first (ties by first-member order).
pub(crate) fn cluster_samples(samples: &SampleSet, config: &ClusterConfig) -> Vec<SemanticCluster> {
    // The greedy pass runs over the units. Their order is the order clusters
    // are founded in, representatives never change, and a signature is
    // equivalent to itself — so every text of a unit, and every repeat of a
    // text, lands where the unit's first occurrence did, without asking
    // again.
    let mut clusters: Vec<SemanticCluster> = Vec::new();
    let mut cluster_of = Vec::with_capacity(samples.signatures.len());
    for sig in &samples.signatures {
        let found = clusters.iter().position(|c| equivalent(&c.signature, sig, config));
        cluster_of.push(found.unwrap_or_else(|| {
            clusters.push(SemanticCluster { member_indices: Vec::new(), signature: sig.clone() });
            clusters.len() - 1
        }));
    }
    for (i, &id) in samples.ids.iter().enumerate() {
        clusters[cluster_of[samples.unit_of[id]]].member_indices.push(i);
    }
    clusters
        .sort_by(|a, b| b.len().cmp(&a.len()).then(a.member_indices[0].cmp(&b.member_indices[0])));
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_text::stem;

    fn cfg() -> ClusterConfig {
        ClusterConfig::default()
    }

    fn cluster_answers(answers: &[&str], config: &ClusterConfig) -> Vec<SemanticCluster> {
        cluster_samples(
            &SampleSet::new(&TemplateWords::new(), answers.iter().map(|&a| (a, a))),
            config,
        )
    }

    #[test]
    fn paraphrases_cluster_together() {
        let answers = vec![
            "sales rose 20%",
            "The answer is sales rose 20%.",
            "Based on the data, sales rose 20%.",
        ];
        let clusters = cluster_answers(&answers, &cfg());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn different_numbers_split() {
        let answers = vec!["sales rose 20%", "sales rose 5%"];
        let clusters = cluster_answers(&answers, &cfg());
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn negation_splits() {
        let answers = vec!["the drug improves outcomes", "the drug does not improve outcomes"];
        let clusters = cluster_answers(&answers, &cfg());
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn paper_medical_example() {
        // §III.D: "Fever, cough, fatigue" and "Symptoms include sore throat
        // and body aches" — related but listing different symptoms; with
        // shared frame words stripped they diverge. Equivalent paraphrase
        // case must merge though:
        let same = vec!["fever, cough, fatigue", "fatigue and cough and fever"];
        assert_eq!(cluster_answers(&same, &cfg()).len(), 1);
    }

    #[test]
    fn paper_legal_example_three_clusters() {
        // §III.D: divergent answers form multiple clusters.
        let answers = vec![
            "Yes, if copyrighted",
            "No, unless consent is violated",
            "It depends on jurisdiction",
        ];
        let clusters = cluster_answers(&answers, &cfg());
        assert!(clusters.len() >= 2, "got {}", clusters.len());
    }

    #[test]
    fn containment_elaboration_merges() {
        let answers = vec!["fever", "fever and severe fever symptoms"];
        // content: {fever} ⊆ {fever, sever, symptom}
        assert_eq!(cluster_answers(&answers, &cfg()).len(), 1);
    }

    #[test]
    fn largest_cluster_first() {
        let answers = vec!["alpha result", "beta outcome", "alpha result", "alpha result"];
        let clusters = cluster_answers(&answers, &cfg());
        assert_eq!(clusters[0].len(), 3);
        assert_eq!(clusters[0].member_indices, vec![0, 2, 3]);
    }

    #[test]
    fn pure_number_answers() {
        let answers = vec!["42", "42", "17"];
        let clusters = cluster_answers(&answers, &cfg());
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].len(), 2);
    }

    #[test]
    fn empty_input() {
        let clusters = cluster_answers(&[], &cfg());
        assert!(clusters.is_empty());
    }

    #[test]
    fn signature_extraction() {
        let s = signature("The answer is: sales did not rise 20%.");
        assert!(s.negated);
        assert_eq!(s.numbers, vec!["20"]);
        assert!(s.content.contains(&stem("sales")));
        assert!(!s.content.contains(&"answer".to_string()));
    }

    #[test]
    fn jaccard_basics() {
        let set = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let (a, b) = (set(&["a", "b", "c"]), set(&["b", "c", "d"]));
        assert_eq!(overlap(&a, &b), 2);
        assert_eq!(jaccard(&a, &b), 0.5);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard::<u32>(&[], &[]), 1.0);
        assert_eq!(jaccard(&a, &[]), 0.0);
        assert_eq!(jaccard(&set(&["a"]), &set(&["z"])), 0.0);
    }

    #[test]
    fn repeats_join_their_first_occurrence() {
        // "alpha" is contained in both representatives and joins the first;
        // "alpha gamma" (Jaccard 1/3 with "alpha beta") founds the second.
        // Every repeat follows its first occurrence.
        let answers =
            vec!["alpha beta", "alpha gamma", "alpha", "alpha gamma", "alpha", "alpha beta"];
        let clusters = cluster_answers(&answers, &cfg());
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].member_indices, vec![0, 2, 4, 5]);
        assert_eq!(clusters[1].member_indices, vec![1, 3]);
    }

    #[test]
    fn template_filler_ignored() {
        let a = signature("From the available evidence: 42 units.");
        let b = signature("42 units");
        assert!(equivalent(&a, &b, &cfg()));
    }

    #[test]
    fn every_template_is_neutral() {
        let templates = TemplateWords::new();
        for (t, (prefix, suffix)) in TEMPLATES.iter().enumerate() {
            assert!(templates.neutral(t), "{prefix:?} … {suffix:?}");
            assert_eq!(signature(&format!("{prefix}{suffix}")), signature(""));
        }
    }

    /// `(text, core)` pairs: `core` under each template in `templates`.
    fn wrapped<'a>(core: &'a str, templates: &[usize]) -> Vec<(String, &'a str)> {
        let wrap = |&t: &usize| (format!("{}{core}{}", TEMPLATES[t].0, TEMPLATES[t].1), core);
        templates.iter().map(wrap).collect()
    }

    fn units_of(samples: &[(String, &str)]) -> usize {
        SampleSet::new(&TemplateWords::new(), samples.iter().map(|(t, c)| (t.as_str(), *c))).units()
    }

    #[test]
    fn one_unit_per_distinct_core() {
        let one = wrapped("sales rose 20%", &[0, 1, 2, 3, 4, 5, 1, 1, 3, 0]);
        assert_eq!(units_of(&one), 1);
        let mut two = wrapped("sales fell 3%", &[2, 4, 5]);
        two.extend(one);
        assert_eq!(units_of(&two), 2);
        // A text that is no template around its core is its own unit.
        let mislabelled = [("sales rose 20%.".to_string(), "sales rose 20%")];
        assert_eq!(units_of(&[two, mislabelled.to_vec()].concat()), 3);
    }
}
