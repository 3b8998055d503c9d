//! Sentence-level evidence extraction from retrieved chunks.
//!
//! The SLM's answer generator (see `unisem-slm::generate`) consumes
//! *candidate answers with support weights*. For lookup questions the
//! candidates are sentences from retrieved chunks, weighted by how well
//! they cover the query's content terms and entities — a deterministic
//! stand-in for extractive answer selection.

#[expect(clippy::disallowed_types, reason = "a sentence's term set, below")]
use std::collections::{BTreeSet, HashSet};

use unisem_slm::SupportedAnswer;
use unisem_text::normalize::{is_stopword, lower_into, normalize_into};
use unisem_text::sentence::split_sentences;
use unisem_text::tokenize::{tokenize, TokenKind};

/// A scored evidence sentence with its chunk of origin.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceSentence {
    /// The sentence text.
    pub text: String,
    /// Chunk id it came from.
    pub chunk_id: usize,
    /// Combined support score.
    pub support: f64,
}

/// Normalized content terms of a query: its lower-cased words and numbers,
/// stopwords and single bytes dropped, each normalized. Folded and stemmed
/// in two reused buffers; a term is copied only when it is new.
pub fn query_terms(query: &str) -> BTreeSet<String> {
    let mut terms = BTreeSet::new();
    let (mut lower, mut term) = (String::new(), String::new());
    for t in tokenize(query).filter(|t| t.kind != TokenKind::Punct) {
        lower_into(t.text, &mut lower);
        if is_stopword(&lower) || lower.len() <= 1 {
            continue;
        }
        normalize_into(&lower, &mut term);
        if !terms.contains(&term) {
            terms.insert(term.clone());
        }
    }
    terms
}

/// Extracts scored evidence sentences from `(chunk_id, chunk_text, chunk_score)`
/// triples.
///
/// A sentence's support is `chunk_score × coverage`, where coverage is the
/// fraction of query content terms it contains, with a small length prior
/// penalizing fragments. Sentences covering nothing are dropped.
pub fn extract_evidence(
    query: &str,
    chunks: &[(usize, String, f64)],
    max_sentences: usize,
) -> Vec<EvidenceSentence> {
    extract_evidence_grounded(query, chunks, max_sentences, &[])
}

/// Like [`extract_evidence`], but restricts candidates to sentences that
/// mention at least one of `required_entities` (canonical lowercase forms).
///
/// Grounding *before* IDF weighting matters: once off-entity sentences are
/// gone, terms like a quarter label become rare within the pool and
/// correctly dominate the ranking.
pub fn extract_evidence_grounded(
    query: &str,
    chunks: &[(usize, String, f64)],
    max_sentences: usize,
    required_entities: &[String],
) -> Vec<EvidenceSentence> {
    let terms = query_terms(query);
    if terms.is_empty() {
        return Vec::new();
    }
    // Rank-normalize chunk scores into [0.5, 1]: retrieval decides the
    // candidate pool, but *sentence coverage* decides the winner — raw
    // retriever scores vary by orders of magnitude across retrievers and
    // would otherwise drown the coverage signal.
    let max_score = chunks.iter().map(|(_, _, s)| *s).fold(0.0f64, f64::max).max(1e-12);

    // Materialize candidate sentences with their term sets first, so query
    // terms can be IDF-weighted *within the candidate pool*: a term every
    // candidate contains ("sales") cannot discriminate, while a rare one
    // ("q3") pins the right sentence.
    #[expect(clippy::disallowed_types, reason = "lookup-only: terms are probed, never iterated")]
    struct Cand {
        text: String,
        chunk_id: usize,
        chunk_score: f64,
        terms: HashSet<String>,
    }
    let mut cands: Vec<Cand> = Vec::new();
    let (mut lower, mut term) = (String::new(), String::new());
    for (chunk_id, text, raw_score) in chunks {
        let chunk_score = 0.5 + 0.5 * raw_score / max_score;
        for sentence in split_sentences(text) {
            if !required_entities.is_empty() {
                lower_into(&sentence, &mut lower);
                if !required_entities.iter().any(|e| lower.contains(e.as_str())) {
                    continue;
                }
            }
            // Every lower-cased word and number, normalized; a term is
            // copied only when it is new to the set.
            #[expect(clippy::disallowed_types, reason = "the Cand::terms set above")]
            let mut terms = HashSet::new();
            for t in tokenize(&sentence).filter(|t| t.kind != TokenKind::Punct) {
                lower_into(t.text, &mut lower);
                normalize_into(&lower, &mut term);
                if !terms.contains(&term) {
                    terms.insert(term.clone());
                }
            }
            cands.push(Cand { text: sentence, chunk_id: *chunk_id, chunk_score, terms });
        }
    }
    let n_cands = cands.len().max(1) as f64;
    // Terms no candidate contains cannot discriminate between candidates;
    // keeping them in the denominator would only flatten all coverages
    // (framing words like "according to the report" rarely appear in
    // evidence verbatim).
    let idf: Vec<(&String, f64)> = terms
        .iter()
        .filter_map(|t| {
            let df = cands.iter().filter(|c| c.terms.contains(t)).count() as f64;
            (df > 0.0).then(|| (t, (1.0 + n_cands / (1.0 + df)).ln()))
        })
        .collect();
    let idf_total: f64 = idf.iter().map(|(_, w)| w).sum::<f64>().max(1e-12);

    let mut out: Vec<EvidenceSentence> = Vec::new();
    for c in cands {
        let covered_weight: f64 =
            idf.iter().filter(|(t, _)| c.terms.contains(t.as_str())).map(|(_, w)| w).sum();
        if covered_weight <= 0.0 {
            continue;
        }
        let coverage = covered_weight / idf_total;
        let length_prior = (c.terms.len().min(30) as f64 / 30.0).max(0.2);
        out.push(EvidenceSentence {
            text: c.text,
            chunk_id: c.chunk_id,
            support: c.chunk_score * coverage * (0.7 + 0.3 * length_prior),
        });
    }
    out.sort_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.chunk_id.cmp(&b.chunk_id))
    });
    out.dedup_by(|a, b| a.text == b.text);
    out.truncate(max_sentences);
    out
}

/// Gain applied to evidence supports before sampling.
///
/// Supports live in roughly `[0, 1]`; the generator's softmax at typical
/// temperatures would treat 0.5-vs-0.7 as near-uniform. The gain sharpens
/// real distinctions while leaving genuinely flat evidence flat — so weak
/// evidence still produces high entropy and triggers abstention.
const SUPPORT_GAIN: f64 = 8.0;

/// Converts evidence sentences into the generator's candidate-answer form.
pub fn to_supported_answers(evidence: &[EvidenceSentence]) -> Vec<SupportedAnswer> {
    evidence
        .iter()
        .map(|e| SupportedAnswer::new(e.text.clone(), e.support * SUPPORT_GAIN))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks() -> Vec<(usize, String, f64)> {
        vec![
            (
                0,
                "Acme Corp launched the Aero Widget. The Aero Widget is manufactured by \
                 Acme Corp and targets the electronics segment."
                    .to_string(),
                1.0,
            ),
            (1, "The cafeteria menu changed. Nothing relevant here.".to_string(), 0.8),
        ]
    }

    #[test]
    fn relevant_sentence_ranks_first() {
        let ev = extract_evidence("Which manufacturer makes the Aero Widget?", &chunks(), 5);
        assert!(!ev.is_empty());
        assert!(ev[0].text.contains("Acme Corp"));
        assert_eq!(ev[0].chunk_id, 0);
    }

    #[test]
    fn irrelevant_sentences_dropped() {
        let ev = extract_evidence("Aero Widget manufacturer", &chunks(), 10);
        assert!(ev.iter().all(|e| !e.text.contains("cafeteria")));
    }

    #[test]
    fn coverage_orders_support() {
        let ev = extract_evidence("manufacturer of the Aero Widget", &chunks(), 5);
        for w in ev.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn max_sentences_respected() {
        let ev = extract_evidence("Aero Widget", &chunks(), 1);
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn empty_query_or_chunks() {
        assert!(extract_evidence("", &chunks(), 5).is_empty());
        assert!(extract_evidence("the of and", &chunks(), 5).is_empty());
        assert!(extract_evidence("aero", &[], 5).is_empty());
    }

    #[test]
    fn stemming_bridges_variants() {
        let c = vec![(0, "Sales increased sharply last quarter.".to_string(), 1.0)];
        let ev = extract_evidence("how did the sales increase go", &c, 5);
        assert!(!ev.is_empty());
    }

    #[test]
    fn to_supported_preserves_order_and_support() {
        let ev = extract_evidence("Aero Widget manufacturer", &chunks(), 3);
        let sup = to_supported_answers(&ev);
        assert_eq!(sup.len(), ev.len());
        assert_eq!(sup[0].text, ev[0].text);
        assert_eq!(sup[0].support, ev[0].support * SUPPORT_GAIN);
    }
}
