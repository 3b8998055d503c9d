//! Property-based tests for the text substrate (detkit harness).

use std::collections::BTreeMap;

use detkit::prop::{bools, string_of, unicode_strings, usizes, vec_of, zip, zip3, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_text::bm25::{B, K1};
use unisem_text::{
    chunk_sentences, jaro_winkler, normalize_token, split_sentences, stem, tokenize,
    tokenize_words, Bm25Index, ChunkConfig, JaroWinklerAtLeast, TokenKind,
};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// `[A-Z][a-z]{1,8}( [a-z]{1,8}){0,6}` — a capitalized sentence.
fn sentences() -> Gen<String> {
    zip3(&string_of(UPPER, 1, 1), &string_of(LOWER, 1, 8), &vec_of(&string_of(LOWER, 1, 8), 0, 6))
        .map(|(cap, head, rest)| {
            let mut s = format!("{cap}{head}");
            for w in rest {
                s.push(' ');
                s.push_str(w);
            }
            s
        })
}

// Token spans always slice back to the token text.
prop_check!(token_spans_roundtrip, unicode_strings(0, 200), |s| {
    for t in tokenize(s) {
        prop_assert_eq!(&s[t.start..t.end], t.text);
    }
    Ok(())
});

// Tokens never contain whitespace.
prop_check!(tokens_have_no_whitespace, unicode_strings(0, 200), |s| {
    for t in tokenize(s) {
        prop_assert!(!t.text.chars().any(char::is_whitespace));
    }
    Ok(())
});

/// Letters with awkward case mappings (the Kelvin sign folds to ASCII `k`,
/// `İ` to two code points, `ß` has no single upper case), ASCII letters,
/// digits, every joiner the tokenizer looks ahead across, and whitespace.
const AWKWARD: &str = "aeiKk\u{212a}\u{130}\u{df}\u{c9}Zs 9 0-'.,+%\t";

/// A token of the owned tokenizer the borrowed one replaced.
#[derive(Debug, PartialEq)]
struct OwnedToken {
    text: String,
    kind: TokenKind,
    start: usize,
    end: usize,
}

/// The tokenizer as it was: `char_indices` collected into a `Vec`, then a
/// `String` per token.
fn tokenize_owned(text: &str) -> Vec<OwnedToken> {
    let bytes = text.char_indices().collect::<Vec<_>>();
    let mut tokens: Vec<OwnedToken> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let (off, c) = bytes[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_alphabetic() {
            let start = off;
            let mut j = i + 1;
            while j < bytes.len() {
                let (_, cj) = bytes[j];
                if cj.is_alphanumeric() {
                    j += 1;
                } else if (cj == '\'' || cj == '-')
                    && j + 1 < bytes.len()
                    && bytes[j + 1].1.is_alphanumeric()
                {
                    j += 2;
                } else {
                    break;
                }
            }
            let end = if j < bytes.len() { bytes[j].0 } else { text.len() };
            let text = text[start..end].to_string();
            tokens.push(OwnedToken { text, kind: TokenKind::Word, start, end });
            i = j;
        } else if c.is_ascii_digit()
            || ((c == '-' || c == '+')
                && i + 1 < bytes.len()
                && bytes[i + 1].1.is_ascii_digit()
                && tokens.last().map_or(true, |t| t.end < off))
        {
            let start = off;
            let mut j = if c == '-' || c == '+' { i + 1 } else { i };
            while j < bytes.len() {
                let (_, cj) = bytes[j];
                if cj.is_ascii_digit() {
                    j += 1;
                } else if (cj == '.' || cj == ',')
                    && j + 1 < bytes.len()
                    && bytes[j + 1].1.is_ascii_digit()
                {
                    j += 2;
                } else {
                    break;
                }
            }
            let end = if j < bytes.len() { bytes[j].0 } else { text.len() };
            let text = text[start..end].to_string();
            tokens.push(OwnedToken { text, kind: TokenKind::Number, start, end });
            i = j;
        } else {
            let end = off + c.len_utf8();
            let text = text[off..end].to_string();
            tokens.push(OwnedToken { text, kind: TokenKind::Punct, start: off, end });
            i += 1;
        }
    }
    tokens
}

// The borrowed tokenizer yields the owned one's tokens: kind, span, text.
prop_check!(
    borrowed_tokens_match_owned_tokenizer,
    zip(&string_of(AWKWARD, 0, 80), &unicode_strings(0, 40)),
    |p| {
        for text in [&p.0, &p.1] {
            let got: Vec<OwnedToken> = tokenize(text)
                .map(|t| OwnedToken {
                    text: t.text.to_string(),
                    kind: t.kind,
                    start: t.start,
                    end: t.end,
                })
                .collect();
            prop_assert_eq!(got, tokenize_owned(text), "{text:?}");
        }
        Ok(())
    }
);

/// BM25's index terms as they were: owned lower-cased words, each
/// normalized again.
fn index_terms_owned(text: &str) -> Vec<String> {
    tokenize_words(text).iter().map(|w| normalize_token(w)).collect()
}

// A raw-text search folds its terms in a reused buffer: same postings per
// term, same hits, same bits and same postings scanned as the tree-map
// reference over the owned terms.
prop_check!(
    search_matches_owned_query_terms,
    zip(&vec_of(&string_of(AWKWARD, 0, 24), 0, 12), &string_of(AWKWARD, 0, 24)),
    |p| {
        let (docs, query) = p;
        let mut ix = Bm25Index::default();
        for d in docs {
            ix.add_document(d);
        }
        let reference = TreeMapIndex::new(docs.iter().map(|d| index_terms_owned(d)));
        reference.holds_postings_of(&ix)?;
        let (got, got_scanned) = ix.search(query, 5);
        let (want, want_scanned) = reference.search(&index_terms_owned(query), 5);
        prop_assert_eq!(bits(&got), bits(&want), "{query:?}");
        prop_assert_eq!(got_scanned, want_scanned);
        prop_assert_eq!(ix.postings_scanned(query), want_scanned);
        Ok(())
    }
);

// Sentence splitting loses no non-whitespace characters.
prop_check!(
    sentences_preserve_content,
    string_of("abcdefghij ABCXYZ 0123456789 .!?", 0, 300),
    |s| {
        let joined: String = split_sentences(s).join(" ");
        let strip = |x: &str| x.chars().filter(|c| !c.is_whitespace()).collect::<String>();
        prop_assert_eq!(strip(&joined), strip(s));
        Ok(())
    }
);

// Stemming is idempotent-ish: stable after two applications for plain
// lowercase words.
prop_check!(stem_never_grows_much, string_of(LOWER, 1, 15), |w| {
    let s = stem(w);
    prop_assert!(s.len() <= w.len() + 2);
    prop_assert!(!s.is_empty());
    Ok(())
});

// Chunking covers the document: every chunk maps into the source and
// chunk indices are sequential.
prop_check!(
    chunks_well_formed,
    zip3(&vec_of(&sentences(), 1, 11), &usizes(2, 19), &usizes(0, 2)),
    |t| {
        let (sents, max_tokens, overlap) = t;
        let doc = sents.join(". ") + ".";
        let cfg = ChunkConfig { max_tokens: *max_tokens, overlap_sentences: *overlap };
        let chunks = chunk_sentences(&doc, cfg);
        prop_assert!(!chunks.is_empty());
        for (i, c) in chunks.iter().enumerate() {
            prop_assert_eq!(c.index, i);
            prop_assert!(c.start < c.end);
            prop_assert!(c.end <= doc.len());
        }
        // Chunks make forward progress.
        for w in chunks.windows(2) {
            prop_assert!(w[0].start < w[1].start || w[0].end < w[1].end);
        }
        Ok(())
    }
);

// ---------------------------------------------------------------------------
// Differential properties: the dense-id forms against the forms they replaced.
// ---------------------------------------------------------------------------

/// Jaro-Winkler over `Vec<char>` with an explicit match list and a
/// clone-and-sort transposition count: the form `jaro_winkler` replaced.
fn jaro_winkler_reference(a: &str, b: &str) -> f64 {
    fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches_a = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    matches_a.push((i, j));
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let b_matches: Vec<usize> = matches_a.iter().map(|&(_, j)| j).collect();
        let mut sorted = b_matches.clone();
        sorted.sort_unstable();
        let t = b_matches.iter().zip(sorted.iter()).filter(|(x, y)| x != y).count() as f64 / 2.0;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }
    let j = jaro(a, b);
    let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

// A small alphabet makes repeated characters, and so transpositions, common.
prop_check!(
    jaro_winkler_matches_reference_on_ascii,
    zip(&string_of("abcd ", 0, 24), &string_of("abcd ", 0, 24)),
    |p| {
        let (a, b) = p;
        prop_assert_eq!(jaro_winkler(a, b).to_bits(), jaro_winkler_reference(a, b).to_bits());
        Ok(())
    }
);

prop_check!(
    jaro_winkler_matches_reference_on_unicode,
    zip(&unicode_strings(0, 24), &unicode_strings(0, 24)),
    |p| {
        let (a, b) = p;
        prop_assert_eq!(jaro_winkler(a, b).to_bits(), jaro_winkler_reference(a, b).to_bits());
        Ok(())
    }
);

// Past the inline match table (64 units) the table moves to the heap.
prop_check!(
    jaro_winkler_matches_reference_on_long_strings,
    zip(&string_of("abc", 60, 90), &string_of("abc", 60, 90)),
    |p| {
        let (a, b) = p;
        prop_assert_eq!(jaro_winkler(a, b).to_bits(), jaro_winkler_reference(a, b).to_bits());
        Ok(())
    }
);

/// The thresholded scorer reports `jaro_winkler(a, b)`'s exact bits when it
/// is at least the threshold and nothing otherwise, for the engine's two
/// thresholds, thresholds at and one ulp either side of the pair's own
/// score, and thresholds at or below 0.4 (which no bound may prune on an
/// empty string: two empties score 1.0).
fn at_least_is_exact(a: &str, b: &str) -> Result<(), String> {
    let s = jaro_winkler(a, b);
    let near = [s, f64::from_bits(s.to_bits() + 1), f64::from_bits(s.to_bits().saturating_sub(1))];
    for t in [0.0, 0.2, 0.4, 0.7, 0.88, 1.0, s - 0.01, s + 0.01].into_iter().chain(near) {
        let want = (s >= t).then_some(s.to_bits());
        let got = JaroWinklerAtLeast::new(b, t).score(a).map(f64::to_bits);
        prop_assert_eq!(got, want, "{a:?} {b:?} t = {t}");
    }
    Ok(())
}

prop_check!(
    jaro_winkler_at_least_is_exact_on_ascii,
    zip(&string_of("abcd ", 0, 24), &string_of("abcd ", 0, 24)),
    |p| at_least_is_exact(&p.0, &p.1)
);

prop_check!(
    jaro_winkler_at_least_is_exact_on_unicode,
    zip(&unicode_strings(0, 24), &unicode_strings(0, 24)),
    |p| at_least_is_exact(&p.0, &p.1)
);

prop_check!(
    jaro_winkler_at_least_is_exact_on_long_strings,
    zip(&string_of("abc", 60, 90), &string_of("abc", 60, 90)),
    |p| at_least_is_exact(&p.0, &p.1)
);

// Mixed ASCII and non-ASCII sides take the char-length bound.
prop_check!(
    jaro_winkler_at_least_is_exact_across_scripts,
    zip(&string_of("abcd ", 0, 24), &unicode_strings(0, 24)),
    |p| at_least_is_exact(&p.0, &p.1).and_then(|()| at_least_is_exact(&p.1, &p.0))
);

#[test]
fn jaro_winkler_at_least_edge_cases() {
    assert_eq!(JaroWinklerAtLeast::new("", 0.9).score(""), Some(1.0));
    assert_eq!(JaroWinklerAtLeast::new("abc", 0.0).score(""), Some(0.0));
    assert_eq!(JaroWinklerAtLeast::new("", 0.1).score("abc"), None);
    assert_eq!(JaroWinklerAtLeast::new("xyz", 0.0).score("abc"), Some(0.0));
    // The Winkler boost carries "abcd"/"abce" (Jaro 0.83) over 0.88.
    assert!(JaroWinklerAtLeast::new("abce", 0.88).score("abcd").is_some());
}

/// BM25 as it was: a tree map from owned term to its `(doc_id,
/// term_frequency)` list, and scoring into a tree map of scores.
struct TreeMapIndex {
    postings: BTreeMap<String, Vec<(usize, u32)>>,
    doc_lens: Vec<usize>,
}

impl TreeMapIndex {
    /// Indexes documents given as their owned terms, in order.
    fn new(docs: impl IntoIterator<Item = Vec<String>>) -> Self {
        let mut ix = Self { postings: BTreeMap::new(), doc_lens: Vec::new() };
        for (doc, terms) in docs.into_iter().enumerate() {
            let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
            for t in &terms {
                *counts.entry(t).or_insert(0) += 1;
            }
            for (t, c) in counts {
                ix.postings.entry(t.to_owned()).or_default().push((doc, c));
            }
            ix.doc_lens.push(terms.len());
        }
        ix
    }

    /// Fails unless `ix` has these postings per term and these lengths.
    fn holds_postings_of(&self, ix: &Bm25Index) -> Result<(), String> {
        let got: BTreeMap<String, Vec<(usize, u32)>> =
            ix.postings().map(|(t, posts)| (t.to_owned(), posts.to_vec())).collect();
        prop_assert_eq!(&got, &self.postings);
        prop_assert_eq!(ix.doc_lens(), self.doc_lens.as_slice());
        Ok(())
    }

    /// Every match collected and fully sorted, then truncated. Returns the
    /// hits and the postings scanned.
    fn search(&self, terms: &[String], top_k: usize) -> (Vec<(usize, f64)>, usize) {
        let n = self.doc_lens.len() as f64;
        let avg = if self.doc_lens.is_empty() {
            0.0
        } else {
            self.doc_lens.iter().sum::<usize>() as f64 / n
        };
        let mut scores: BTreeMap<usize, f64> = BTreeMap::new();
        let mut scanned = 0;
        for term in terms {
            let Some(posts) = self.postings.get(term) else {
                continue;
            };
            scanned += posts.len();
            let df = posts.len() as f64;
            let idf = (1.0 + (n - df + 0.5) / (df + 0.5)).ln();
            for &(doc, tf) in posts {
                let dl = self.doc_lens[doc] as f64;
                let tf = f64::from(tf);
                let denom = tf + K1 * (1.0 - B + B * dl / avg.max(1e-9));
                let s = idf * tf * (K1 + 1.0) / denom;
                *scores.entry(doc).or_insert(0.0) += s;
            }
        }
        let mut out: Vec<(usize, f64)> = scores.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        out.truncate(top_k);
        (out, scanned)
    }
}

fn bits(hits: &[(usize, f64)]) -> Vec<(usize, u64)> {
    hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// Documents and queries over a five-word vocabulary: short documents repeat
/// each other (tied scores), queries repeat terms and name unindexed ones.
fn corpus_and_query() -> Gen<(Vec<Vec<String>>, Vec<String>)> {
    let word = string_of("abcde", 1, 1);
    zip(&vec_of(&vec_of(&word, 0, 6), 0, 40), &vec_of(&string_of("abcdez", 1, 1), 0, 6))
}

// The raw-text search over documents and a query spelled from those words
// equals the tree-map reference over their owned terms: postings per term,
// hits with score bits and postings scanned, at every cut.
prop_check!(search_terms_matches_tree_map_reference, corpus_and_query(), |p| {
    let (docs, query) = p;
    let (docs, query) = (docs.iter().map(|d| d.join(" ")).collect::<Vec<_>>(), query.join(" "));
    let mut ix = Bm25Index::default();
    for d in &docs {
        ix.add_document(d);
    }
    let reference = TreeMapIndex::new(docs.iter().map(|d| index_terms_owned(d)));
    reference.holds_postings_of(&ix)?;
    let terms = index_terms_owned(&query);
    let (all, _) = reference.search(&terms, usize::MAX);
    // No hits, the best one, a cut inside the matches (through a tie when
    // there is one), exactly all of them, more than there are, and the
    // unbounded cut, by which the selection must size nothing.
    for top_k in [0, 1, all.len() / 2, all.len(), all.len() + 3, usize::MAX] {
        let (got, got_scanned) = ix.search(&query, top_k);
        let (want, want_scanned) = reference.search(&terms, top_k);
        prop_assert_eq!(bits(&got), bits(&want), "top_k = {top_k}");
        prop_assert_eq!(got_scanned, want_scanned);
    }
    Ok(())
});

// Scoring only some documents gives each of them the bits an unbounded
// search gives it (0 for one sharing no query term), over empty, full,
// sparse, masked and tied id sets, and reads no more postings than the
// search scans. Queries repeat terms; a long list against a sparse id set
// is galloped, the rest merged.
prop_check!(
    score_docs_gives_every_id_the_search_bits,
    zip3(&corpus_and_query(), &vec_of(&usizes(0, 39), 0, 3), &vec_of(&bools(), 0, 40)),
    |p| {
        let ((docs, query), sparse, mask) = p;
        let (docs, query) = (docs.iter().map(|d| d.join(" ")).collect::<Vec<_>>(), query.join(" "));
        let mut ix = Bm25Index::default();
        for d in &docs {
            ix.add_document(d);
        }
        let all: BTreeMap<usize, f64> = ix.search(&query, usize::MAX).0.into_iter().collect();
        let mut sparse: Vec<usize> = sparse.iter().copied().filter(|&d| d < docs.len()).collect();
        sparse.sort_unstable();
        sparse.dedup();
        let masked: Vec<usize> = (0..docs.len()).filter(|&d| mask.get(d) == Some(&true)).collect();
        let tied: Vec<usize> = (0..docs.len())
            .filter(|&d| sparse.first().is_some_and(|&s| docs[d] == docs[s]))
            .collect();
        for ids in [vec![], (0..docs.len()).collect(), sparse.clone(), masked, tied] {
            let (got, read) = ix.score_docs(&query, &ids);
            prop_assert_eq!(got.len(), ids.len());
            for (&id, score) in ids.iter().zip(&got) {
                let want = all.get(&id).copied().unwrap_or(0.0);
                prop_assert_eq!(score.to_bits(), want.to_bits(), "{query:?} doc {id} of {ids:?}");
            }
            prop_assert!(read <= ix.postings_scanned(&query), "{read} read for {ids:?}");
        }
        Ok(())
    }
);

// The raw-text entry point normalizes once and counts in the same pass.
prop_check!(
    search_counts_what_postings_scanned_counts,
    zip(&vec_of(&sentences(), 0, 12), &sentences()),
    |p| {
        let (docs, query) = p;
        let mut ix = Bm25Index::default();
        for d in docs {
            ix.add_document(d);
        }
        let (hits, scanned) = ix.search(query, 5);
        prop_assert_eq!(scanned, ix.postings_scanned(query));
        prop_assert!(hits.len() <= 5);
        Ok(())
    }
);

/// BM25 with both divisions per posting, `dl / avg` and the score's: the
/// form the cached length norms replaced. Returns every hit, best first.
fn search_two_divisions(ix: &Bm25Index, query: &str) -> Vec<(usize, f64)> {
    let n = ix.len() as f64;
    let avg = if ix.is_empty() { 0.0 } else { ix.doc_lens().iter().sum::<usize>() as f64 / n };
    let avg = avg.max(1e-9);
    let postings: BTreeMap<&str, &[(usize, u32)]> = ix.postings().collect();
    let mut scores = vec![0.0f64; ix.len()];
    let mut touched = Vec::new();
    for term in unisem_text::tokenize_words(query).iter().map(|w| normalize_token(w)) {
        let Some(&posts) = postings.get(term.as_str()) else {
            continue;
        };
        let df = posts.len() as f64;
        let idf = (1.0 + (n - df + 0.5) / (df + 0.5)).ln();
        for &(doc, tf) in posts {
            let dl = ix.doc_lens()[doc] as f64;
            let tf = f64::from(tf);
            let denom = tf + K1 * (1.0 - B + B * dl / avg);
            scores[doc] += idf * tf * (K1 + 1.0) / denom;
            if !touched.contains(&doc) {
                touched.push(doc);
            }
        }
    }
    let mut out: Vec<(usize, f64)> = touched.into_iter().map(|d| (d, scores[d])).collect();
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    out
}

// Searches interleaved with additions read norms of the current index
// version: every search equals the two-division form bit for bit.
prop_check!(
    cached_norms_score_like_two_divisions,
    zip(&vec_of(&zip(&sentences(), &sentences()), 0, 12), &usizes(1, 3)),
    |p| {
        let (steps, every) = p;
        let mut ix = Bm25Index::default();
        for (i, (doc, query)) in steps.iter().enumerate() {
            ix.add_document(doc);
            if i % every == 0 {
                let (got, _) = ix.search(query, usize::MAX);
                prop_assert_eq!(bits(&got), bits(&search_two_divisions(&ix, query)), "{query:?}");
            }
        }
        for (_, query) in steps {
            let want = bits(&search_two_divisions(&ix, query));
            prop_assert_eq!(bits(&ix.search(query, usize::MAX).0), want);
        }
        Ok(())
    }
);

/// `JaroWinklerAtLeast::may_reach` as it was: the common-byte count copies
/// the fixed string's 128-entry count table for every candidate.
fn may_reach_copying(b: &str, threshold: f64, a: &str) -> bool {
    let (a_len, b_len) = (a.chars().count(), b.chars().count());
    if a_len == 0 || b_len == 0 {
        return true;
    }
    let prefix = a.bytes().zip(b.bytes()).take(4).take_while(|(x, y)| x == y).count();
    let can_reach = |m: usize| {
        let m = m as f64;
        let jaro = (m / a_len as f64 + m / b_len as f64 + 1.0) / 3.0;
        jaro + prefix as f64 * 0.1 * (1.0 - jaro) + 1e-9 >= threshold
    };
    let common_bytes = |a: &str| {
        let mut counts = [0u16; 128];
        for &c in b.as_bytes() {
            counts[usize::from(c)] += 1;
        }
        let mut left = counts;
        let mut common = 0;
        for &c in a.as_bytes() {
            let n = &mut left[usize::from(c)];
            if *n > 0 {
                *n -= 1;
                common += 1;
            }
        }
        common
    };
    can_reach(a_len.min(b_len)) && (!(a.is_ascii() && b.is_ascii()) || can_reach(common_bytes(a)))
}

// One prepared scorer answers a run of candidates exactly as the copying
// form does each time: counting restores the table it borrows.
prop_check!(
    copy_free_bound_equals_the_copying_count,
    zip3(&string_of("abcd ", 0, 24), &vec_of(&string_of("abcdé ", 0, 24), 0, 12), &usizes(0, 2)),
    |p| {
        let (b, candidates, t) = p;
        let threshold = [0.7, 0.88, 0.95][*t];
        let scorer = JaroWinklerAtLeast::new(b, threshold);
        for a in candidates.iter().chain(candidates) {
            prop_assert_eq!(scorer.may_reach(a), may_reach_copying(b, threshold, a), "{a:?} {b:?}");
        }
        Ok(())
    }
);

// A length the group test rejects holds no candidate the bound admits.
prop_check!(
    length_test_rejects_only_what_the_bound_rejects,
    zip3(&unicode_strings(0, 24), &vec_of(&string_of("abcdé ", 0, 24), 0, 12), &usizes(0, 2)),
    |p| {
        let (b, candidates, t) = p;
        let scorer = JaroWinklerAtLeast::new(b, [0.7, 0.88, 0.95][*t]);
        for a in candidates.iter().chain([b]) {
            if !scorer.may_reach_length(a.chars().count()) {
                prop_assert!(!scorer.may_reach(a), "{a:?} {b:?}");
            }
        }
        Ok(())
    }
);
