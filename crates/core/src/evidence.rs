//! Sentence-level evidence extraction from retrieved chunks.
//!
//! The SLM's answer generator (see `unisem-slm::generate`) consumes
//! *candidate answers with support weights*. For lookup questions the
//! candidates are sentences from retrieved chunks, weighted by how well
//! they cover the query's content terms and entities — a deterministic
//! stand-in for extractive answer selection.
//!
//! A sentence's terms never change after ingest, so the engine reads them
//! from the store's analysis ([`DocStore::sentence_terms`], DESIGN.md §5c):
//! a question maps its own terms to ids once, through the store's one term
//! dictionary (its BM25 index), and each candidate sentence
//! is scored from its stored span and sorted term ids, with no chunk text
//! copied and no sentence re-tokenized. [`extract_evidence`] and
//! [`extract_evidence_grounded`] score texts they are handed by analysing
//! them into the same form first, so there is one scoring path.

use std::collections::BTreeSet;
use unisem_docstore::{ChunkId, DocStore, SentenceTerms};
use unisem_slm::SupportedAnswer;
use unisem_text::bm25::Bm25Index;
use unisem_text::normalize::{is_stopword, lower_into, normalize_into};
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
///
/// The texts are analysed here, as a store analyses its chunks at ingest
/// but into a scratch dictionary, and then scored like
/// [`extract_stored_evidence`] scores stored chunks.
pub fn extract_evidence_grounded(
    query: &str,
    chunks: &[(usize, String, f64)],
    max_sentences: usize,
    required_entities: &[String],
) -> Vec<EvidenceSentence> {
    let (mut analysis, mut dictionary) = (SentenceTerms::default(), Bm25Index::default());
    let mut stream = Vec::new();
    let mut retrieved = Vec::with_capacity(chunks.len());
    for (slot, (chunk_id, text, score)) in chunks.iter().enumerate() {
        analysis.add_chunk(text, &mut dictionary, &mut stream);
        retrieved.push(Retrieved { chunk_id: *chunk_id, slot, text, score: *score });
    }
    score_sentences(query, &analysis, &dictionary, &retrieved, max_sentences, required_entities)
}

/// [`extract_evidence_grounded`] over stored chunks: `hits` are
/// `(chunk_id, retrieval score)` pairs, and each chunk's sentences and
/// terms are read from `docs`' ingest-time analysis. A hit naming no
/// stored chunk is skipped.
pub fn extract_stored_evidence(
    query: &str,
    docs: &DocStore,
    hits: impl IntoIterator<Item = (ChunkId, f64)>,
    max_sentences: usize,
    required_entities: &[String],
) -> Vec<EvidenceSentence> {
    let hits = hits.into_iter();
    let mut retrieved = Vec::with_capacity(hits.size_hint().0);
    for (chunk_id, score) in hits {
        if let Ok(chunk) = docs.chunk(chunk_id) {
            retrieved.push(Retrieved { chunk_id, slot: chunk_id, text: &chunk.text, score });
        }
    }
    let analysis = docs.sentence_terms();
    score_sentences(query, analysis, docs.index(), &retrieved, max_sentences, required_entities)
}

/// A retrieved chunk as the scoring core reads it.
struct Retrieved<'a> {
    /// The chunk id evidence reports.
    chunk_id: usize,
    /// The chunk's position in the analysis.
    slot: usize,
    /// The analysed chunk text.
    text: &'a str,
    /// Retrieval score.
    score: f64,
}

/// The one scoring path: every sentence of every retrieved chunk (those
/// mentioning a required entity, when any are given) is a candidate, and
/// a candidate's support is its chunk's rank-normalized score times the
/// IDF-weighted share of query terms it covers, times a length prior.
/// `dictionary` is the one `analysis` interned its terms in.
fn score_sentences(
    query: &str,
    analysis: &SentenceTerms,
    dictionary: &Bm25Index,
    chunks: &[Retrieved<'_>],
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
    let max_score = chunks.iter().map(|c| c.score).fold(0.0f64, f64::max).max(1e-12);
    // The query's terms in sorted order, as ids: a term the dictionary
    // lacks has none.
    struct QueryTerm {
        id: Option<u32>,
        df: usize,
        idf: f64,
    }
    let mut query: Vec<QueryTerm> =
        terms.iter().map(|t| QueryTerm { id: dictionary.term_id(t), df: 0, idf: 0.0 }).collect();
    let covers = |q: &QueryTerm, ids: &[u32]| q.id.is_some_and(|id| ids.binary_search(&id).is_ok());

    // Gather the candidates first, so query terms can be IDF-weighted
    // *within the candidate pool*: a term every candidate contains
    // ("sales") cannot discriminate, while a rare one ("q3") pins the
    // right sentence.
    struct Cand<'a> {
        text: &'a str,
        chunk_id: usize,
        chunk_score: f64,
        ids: &'a [u32],
    }
    let mut cands: Vec<Cand<'_>> =
        Vec::with_capacity(chunks.iter().map(|c| analysis.sentences(c.slot).len()).sum());
    let mut lower = String::new();
    for c in chunks {
        let chunk_score = 0.5 + 0.5 * c.score / max_score;
        for (span, ids) in analysis.sentences(c.slot) {
            let Some(text) = c.text.get(span) else { continue };
            if !required_entities.is_empty() {
                lower_into(text, &mut lower);
                if !required_entities.iter().any(|e| lower.contains(e.as_str())) {
                    continue;
                }
            }
            for q in query.iter_mut().filter(|q| covers(q, ids)) {
                q.df += 1;
            }
            cands.push(Cand { text, chunk_id: c.chunk_id, chunk_score, ids });
        }
    }
    let n_cands = cands.len().max(1) as f64;
    // Terms no candidate contains cannot discriminate between candidates;
    // keeping them in the denominator would only flatten all coverages
    // (framing words like "according to the report" rarely appear in
    // evidence verbatim).
    for q in &mut query {
        q.idf = (1.0 + n_cands / (1.0 + q.df as f64)).ln();
    }
    let idf_total: f64 = query.iter().filter(|q| q.df > 0).map(|q| q.idf).sum::<f64>().max(1e-12);

    let mut out: Vec<(f64, usize, &str)> = Vec::with_capacity(cands.len());
    for c in &cands {
        // Summed in the query terms' sorted order; a covered term has a
        // candidate containing it, so its df is positive.
        let covered_weight: f64 = query.iter().filter(|q| covers(q, c.ids)).map(|q| q.idf).sum();
        if covered_weight <= 0.0 {
            continue;
        }
        let coverage = covered_weight / idf_total;
        let length_prior = (c.ids.len().min(30) as f64 / 30.0).max(0.2);
        out.push((c.chunk_score * coverage * (0.7 + 0.3 * length_prior), c.chunk_id, c.text));
    }
    out.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });
    out.dedup_by(|a, b| a.2 == b.2);
    out.truncate(max_sentences);
    out.into_iter()
        .map(|(support, chunk_id, text)| EvidenceSentence {
            text: text.to_string(),
            chunk_id,
            support,
        })
        .collect()
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
