//! Okapi BM25 scoring over a tokenized corpus.
//!
//! This powers the lexical-retrieval baseline and the lexical half of the
//! topology retriever's score fusion. Documents are identified by dense
//! `usize` ids assigned at insertion order, so a query accumulates scores in
//! a `Vec` indexed by id rather than in a map. Terms are interned to dense
//! `u32` ids in first-seen order, and posting lists are a `Vec` indexed by
//! term id: the index is its corpus' one term dictionary, which a document
//! store's sentence analysis shares (DESIGN.md §5c).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, OnceLock};

use crate::normalize::{lower_into, normalize_into};
use crate::tokenize::{tokenize, TokenKind};

/// Term-frequency saturation.
pub const K1: f64 = 1.5;

/// Length normalization strength (0 = none, 1 = full).
pub const B: f64 = 0.75;

/// An inverted-index-backed BM25 scorer.
#[derive(Debug, Clone, Default)]
pub struct Bm25Index {
    /// Term text by id, in first-seen order.
    terms: Vec<Arc<str>>,
    /// Term text to id: the dictionary's lookup. It shares each term's
    /// text with `terms`, so cloning the index copies no term.
    by_text: BTreeMap<Arc<str>, u32>,
    /// Per term id, its postings of (doc_id, term_frequency) in ascending
    /// doc id order.
    postings: Vec<Vec<(usize, u32)>>,
    /// Document lengths in tokens.
    doc_len: Vec<usize>,
    total_tokens: usize,
    /// The longest posting list, kept current as documents are added
    /// (lists only grow), so [`Self::max_posting`] never walks the table.
    max_posting: usize,
    /// Per document, its length norm `K1 · (1 − B + B · len / avg len)`:
    /// a pure function of the lengths, computed by the first search after
    /// a document was added, and dropped by the next addition.
    norms: OnceLock<Vec<f64>>,
}

impl Bm25Index {
    /// Adds a document, returning its id (insertion order).
    pub fn add_document(&mut self, text: &str) -> usize {
        let mut ids = Vec::new();
        for_each_term(text, |term| ids.push(self.intern(term)));
        self.add_ids(&ids)
    }

    /// The id of a normalized term, assigned now if it is new. A new term
    /// has an empty posting list until a document containing it is added.
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.by_text.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        let term: Arc<str> = term.into();
        self.terms.push(term.clone());
        self.by_text.insert(term, id);
        self.postings.push(Vec::new());
        id
    }

    /// Adds a document given as its terms' ids ([`Self::intern`]) in text
    /// order, repeats included, returning its id.
    ///
    /// # Panics
    /// If an id was never interned.
    pub fn add_ids(&mut self, ids: &[u32]) -> usize {
        let doc_id = self.doc_len.len();
        self.norms = OnceLock::new();
        self.doc_len.push(ids.len());
        self.total_tokens += ids.len();
        // Sorted, so equal ids are adjacent and each distinct term is
        // counted and posted once.
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        for run in sorted.chunk_by(|a, b| a == b) {
            let posts = &mut self.postings[run[0] as usize];
            posts.push((doc_id, run.len() as u32));
            self.max_posting = self.max_posting.max(posts.len());
        }
        doc_id
    }

    /// The id of a normalized term, if the dictionary holds it.
    pub fn term_id(&self, term: &str) -> Option<u32> {
        self.by_text.get(term).copied()
    }

    /// Number of documents in the index.
    pub fn len(&self) -> usize {
        self.doc_len.len()
    }

    /// True when no documents have been added.
    pub fn is_empty(&self) -> bool {
        self.doc_len.is_empty()
    }

    /// The longest posting list: the planner's estimate of what one
    /// lexical scan walks.
    pub fn max_posting(&self) -> usize {
        self.max_posting
    }

    /// Posting entries a search for `query` scans: the summed posting-list
    /// lengths of its normalized terms. This is exactly the count
    /// [`Self::search`] returns for the same query (`top_k` only
    /// truncates the output), so it is a pure function of the query and the
    /// corpus — the resource-meter contract.
    pub fn postings_scanned(&self, query: &str) -> usize {
        let mut scanned = 0;
        for_each_term(query, |term| scanned += self.posting(term).map_or(0, Vec::len));
        scanned
    }

    /// Approximate resident size of the index in bytes (for the E2 storage
    /// experiment): postings entries plus term texts plus doc-length array.
    pub fn approx_bytes(&self) -> usize {
        let postings: usize =
            self.postings().map(|(t, posts)| t.len() + std::mem::size_of_val(posts)).sum();
        postings + std::mem::size_of_val(self.doc_lens())
    }

    fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_len.len() as f64
        }
    }

    /// Inverse document frequency of a term found in `df` documents.
    fn idf(&self, df: usize) -> f64 {
        let n = self.doc_len.len() as f64;
        let df = df as f64;
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }

    /// Scores all matching documents for a raw-text query.
    ///
    /// Returns `(doc_id, score)` pairs sorted by descending score (ties by
    /// ascending id for determinism), and the posting entries scanned to
    /// find them, counted in the same pass over the once-normalized query.
    /// Documents with no query term overlap are omitted. A document's
    /// score is the sum of its per-term contributions in query term order;
    /// the best `top_k` are kept in one thresholded pass over the
    /// documents in id order, and only those are sorted. Any `top_k` is a
    /// valid cut: `usize::MAX` returns every match.
    pub fn search(&self, query: &str, top_k: usize) -> (Vec<(usize, f64)>, usize) {
        let mut lists = Vec::new();
        for_each_term(query, |term| lists.push(self.posting(term)));
        self.score(lists, top_k)
    }

    /// Scores only the documents `ids` (ascending, distinct) for a
    /// raw-text query: per id, the score [`Self::search`] gives that
    /// document with an unbounded cut (0 for one sharing no query term),
    /// and the posting entries read to find them.
    ///
    /// Each query term's posting list, in query term order and repeats
    /// included, is walked against the ids: a linear merge when the list is
    /// short for this many ids, a gallop (exponential search, then
    /// bisection) from the last match when it is long. Either way a list
    /// costs no more reads than its length, so the count is at most
    /// [`Self::postings_scanned`]. A score adds the same per-term
    /// contributions in the same order as a search, so it has the same
    /// bits.
    pub fn score_docs(&self, query: &str, ids: &[usize]) -> (Vec<f64>, usize) {
        let mut scores = vec![0.0f64; ids.len()];
        let mut read = 0usize;
        if ids.is_empty() {
            return (scores, read);
        }
        let norms = self.norms();
        for_each_term(query, |term| {
            let Some(posts) = self.posting(term).filter(|posts| !posts.is_empty()) else {
                return;
            };
            let idf = self.idf(posts.len());
            let mut add = |slot: usize, (doc, tf): (usize, u32)| {
                let tf = f64::from(tf);
                let denom = tf + norms[doc];
                scores[slot] += idf * tf * (K1 + 1.0) / denom;
            };
            // Galloping `d` postings past the last match reads at most
            // `2 · log2(d + 1) + 3`; the steps sum to at most the list's
            // length, so by concavity the ids read at most this, evenly
            // spread.
            let per_id = 2 * (posts.len() / ids.len() + 1).ilog2() as usize + 5;
            if ids.len().saturating_mul(per_id) < posts.len() {
                let mut from = 0;
                for (slot, &id) in ids.iter().enumerate() {
                    from = gallop(posts, from, id, &mut read);
                    // The gallop has read this posting.
                    let Some(&post) = posts.get(from) else { break };
                    if post.0 == id {
                        add(slot, post);
                        from += 1;
                    }
                }
            } else {
                let mut slot = 0;
                for &post in posts {
                    read += 1;
                    while ids[slot] < post.0 {
                        slot += 1;
                        if slot == ids.len() {
                            return;
                        }
                    }
                    if ids[slot] == post.0 {
                        add(slot, post);
                    }
                }
            }
        });
        (scores, read)
    }

    /// Every term with its `(doc_id, term_frequency)` pairs in ascending
    /// doc id order, in term id order.
    pub fn postings(&self) -> impl ExactSizeIterator<Item = (&str, &[(usize, u32)])> + '_ {
        self.terms.iter().zip(&self.postings).map(|(t, posts)| (&**t, posts.as_slice()))
    }

    /// Per-document token counts, indexed by doc id.
    pub fn doc_lens(&self) -> &[usize] {
        &self.doc_len
    }

    /// The posting list of a normalized term the dictionary holds.
    fn posting(&self, term: &str) -> Option<&Vec<(usize, u32)>> {
        self.term_id(term).map(|id| &self.postings[id as usize])
    }

    /// Every document's length norm, computed once per index version.
    fn norms(&self) -> &[f64] {
        self.norms.get_or_init(|| {
            let avg = self.avg_doc_len().max(1e-9);
            self.doc_len.iter().map(|&dl| K1 * (1.0 - B + B * dl as f64 / avg)).collect()
        })
    }

    /// Scores the posting lists of a query's terms, in term order (`None`
    /// for a term the corpus lacks), and picks the best `top_k`.
    ///
    /// Every posting adds into one dense accumulator, with no test of
    /// whether its document was hit before: each contribution is strictly
    /// positive (`idf > 0` because `df ≤ n`, `tf ≥ 1`, and the denominator
    /// is `tf` plus a positive norm), so a score above zero means exactly
    /// "shares a query term". One pass in ascending id then keeps the best
    /// `top_k` in a heap whose root is the worst one held; a document
    /// enters only if it scores above that root. Ids ascend, so a later
    /// equal score ranks below every one already held and correctly stays
    /// out.
    fn score<'p>(
        &self,
        lists: impl IntoIterator<Item = Option<&'p Vec<(usize, u32)>>>,
        top_k: usize,
    ) -> (Vec<(usize, f64)>, usize) {
        let norms = self.norms();
        let mut scores = vec![0.0f64; self.doc_len.len()];
        let mut scanned = 0usize;
        for posts in lists.into_iter().flatten() {
            scanned += posts.len();
            let idf = self.idf(posts.len());
            for &(doc, tf) in posts {
                let tf = f64::from(tf);
                let denom = tf + norms[doc];
                scores[doc] += idf * tf * (K1 + 1.0) / denom;
            }
        }
        // No more than one slot per document, so an unbounded cut
        // allocates what the corpus can fill, not `top_k`.
        let cap = top_k.min(scores.len());
        let mut best: BinaryHeap<Ranked> = BinaryHeap::with_capacity(cap);
        // Zero, the hit test, until the heap is full; then the worst score
        // it holds (infinite when it holds none).
        let mut floor = 0.0f64;
        for (doc, &score) in scores.iter().enumerate() {
            if score > floor {
                if best.len() < cap {
                    best.push(Ranked(doc, score));
                } else if let Some(mut worst) = best.peek_mut() {
                    *worst = Ranked(doc, score);
                }
                if best.len() == cap {
                    floor = best.peek().map_or(f64::INFINITY, |worst| worst.1);
                }
            }
        }
        (
            best.into_sorted_vec().into_iter().map(|Ranked(doc, score)| (doc, score)).collect(),
            scanned,
        )
    }
}

/// The first position at or after `from` whose document is at least `id`
/// (`posts.len()` when there is none), found by doubling steps from `from`
/// and then bisecting the last step; `read` counts the postings probed,
/// which include the one at the returned position.
fn gallop(posts: &[(usize, u32)], mut from: usize, id: usize, read: &mut usize) -> usize {
    let mut step = 1;
    let mut to = from;
    while to < posts.len() {
        *read += 1;
        if posts[to].0 >= id {
            break;
        }
        from = to + 1;
        to = from + step;
        step *= 2;
    }
    let mut to = to.min(posts.len());
    while from < to {
        let mid = from + (to - from) / 2;
        *read += 1;
        if posts[mid].0 < id {
            from = mid + 1;
        } else {
            to = mid;
        }
    }
    from
}

/// A hit ordered by rank: a greater `Ranked` ranks lower (smaller score,
/// then larger id), so a max-heap's root is the worst hit it holds and
/// an ascending sort is best first. Ids are distinct and scores are never
/// NaN, so this is a total order.
#[derive(PartialEq)]
struct Ranked(usize, f64);

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other.1.total_cmp(&self.1).then(self.0.cmp(&other.0))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Calls `f` with each normalized term of `text` in text order: every word
/// and number lower-cased, then normalized, in two reused buffers.
fn for_each_term(text: &str, mut f: impl FnMut(&str)) {
    let (mut lower, mut term) = (String::new(), String::new());
    for t in tokenize(text).filter(|t| t.kind != TokenKind::Punct) {
        lower_into(t.text, &mut lower);
        normalize_into(&lower, &mut term);
        f(&term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bm25Index {
        let mut ix = Bm25Index::default();
        ix.add_document("the quick brown fox jumps over the lazy dog");
        ix.add_document("a fast auburn fox leaps above a sleepy hound");
        ix.add_document("quarterly sales report for product alpha");
        ix.add_document("alpha product sales grew twenty percent in the second quarter");
        ix
    }

    #[test]
    fn finds_relevant_doc_first() {
        let ix = sample();
        let hits = ix.search("alpha sales", 10).0;
        assert!(!hits.is_empty());
        assert!(hits[0].0 == 2 || hits[0].0 == 3);
    }

    #[test]
    fn irrelevant_query_returns_empty() {
        let ix = sample();
        assert!(ix.search("zebra xylophone", 10).0.is_empty());
    }

    #[test]
    fn top_k_truncates() {
        let ix = sample();
        let hits = ix.search("fox sales", 1).0;
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scores_descend() {
        let ix = sample();
        let hits = ix.search("alpha product sales quarter", 10).0;
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn deterministic_tie_break() {
        let mut ix = Bm25Index::default();
        ix.add_document("same text here");
        ix.add_document("same text here");
        let hits = ix.search("same text", 10).0;
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }

    #[test]
    fn ties_at_the_cut_keep_the_lower_ids() {
        let mut ix = Bm25Index::default();
        for _ in 0..3 {
            ix.add_document("same text here");
        }
        let hits = ix.search("same text", 2).0;
        assert_eq!(hits.iter().map(|&(d, _)| d).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(hits[0].1.to_bits(), hits[1].1.to_bits());
    }

    #[test]
    fn unbounded_top_k_returns_every_match() {
        let ix = sample();
        let all = ix.search("fox sales", usize::MAX).0;
        assert_eq!(all.len(), 4);
        assert_eq!(all, ix.search("fox sales", ix.len()).0);
        assert!(ix.search("fox sales", 0).0.is_empty());
    }

    #[test]
    fn stemming_matches_variants() {
        let ix = sample();
        // "jumps" indexed; query "jumping" should still hit doc 0.
        let hits = ix.search("jumping fox", 10).0;
        assert!(hits.iter().any(|&(d, _)| d == 0));
    }

    #[test]
    fn empty_index() {
        let ix = Bm25Index::default();
        assert!(ix.is_empty());
        assert!(ix.search("anything", 5).0.is_empty());
    }

    #[test]
    fn length_normalization_prefers_concise_doc() {
        let mut ix = Bm25Index::default();
        ix.add_document("fox");
        ix.add_document("fox and many many many many other completely unrelated words here");
        let hits = ix.search("fox", 2).0;
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn postings_scanned_counts_matching_lists() {
        let ix = sample();
        // "fox" appears in docs 0 and 1; "zebra" is unindexed.
        assert_eq!(ix.postings_scanned("fox"), 2);
        assert_eq!(ix.postings_scanned("zebra"), 0);
        assert_eq!(ix.postings_scanned("fox zebra"), 2);
        // Repeated terms scan their posting list once per occurrence,
        // mirroring what search actually does.
        assert_eq!(ix.postings_scanned("fox fox"), 4);
        assert!(ix.postings_scanned("alpha product sales quarter") > 0);
    }

    #[test]
    fn score_docs_gallops_a_long_list_and_merges_a_short_one() {
        let mut ix = Bm25Index::default();
        for i in 0..1000 {
            ix.add_document(if i % 7 == 0 { "fox fox dog" } else { "fox" });
        }
        let all: Vec<f64> = {
            let mut by_id = vec![0.0; ix.len()];
            for (doc, score) in ix.search("fox dog", usize::MAX).0 {
                by_id[doc] = score;
            }
            by_id
        };
        // Two ids against 1,000 and 143 postings: each list is galloped,
        // in at most 2 · (2 · ⌊log2(n / 2 + 1)⌋ + 5) reads.
        let (scores, read) = ix.score_docs("fox dog", &[500, 700]);
        assert_eq!(scores, [all[500], all[700]]);
        assert!(read <= 2 * 21 + 2 * 17, "{read}");
        // Every id: both lists are merged, each read once.
        let ids: Vec<usize> = (0..ix.len()).collect();
        let (scores, read) = ix.score_docs("fox dog", &ids);
        assert_eq!(scores, all);
        assert_eq!(read, ix.postings_scanned("fox dog"));
        assert_eq!(ix.score_docs("fox dog", &[]), (vec![], 0));
    }

    #[test]
    fn posting_stats_maintained_on_add_equal_a_recount() {
        let ix = sample();
        let max = ix.max_posting();
        assert_eq!(max, ix.postings().map(|(_, posts)| posts.len()).max().unwrap());
    }

    #[test]
    fn approx_bytes_grows() {
        let mut ix = Bm25Index::default();
        let b0 = ix.approx_bytes();
        ix.add_document("some document text with several words");
        assert!(ix.approx_bytes() > b0);
    }
}
