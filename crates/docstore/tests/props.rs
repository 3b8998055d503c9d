//! Differential properties of the ingest-time analysis (detkit harness):
//! BM25 fed the analysis' id stream equals BM25 over the chunk text, a
//! store rebuilt from its parts has the analysis and the index it had, and
//! the analysis and BM25 share one term dictionary.

use detkit::prop::{one_of, unicode_strings, usizes, vec_of, zip, zip3, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_docstore::{DocStore, SentenceTerms};
use unisem_text::{Bm25Index, ChunkConfig};

/// Words that probe the tokenizer, the stemmer and the sentence splitter:
/// abbreviations, initials, sentence starters, decimals, signs, joiners,
/// and letters whose case mapping changes their length.
const WORDS: &[&str] = &[
    "Sales",
    "sales",
    "rose",
    "Alpha",
    "widgets",
    "Q2",
    "2023",
    "12.5",
    "1,234",
    "-15",
    "+3",
    "café",
    "naïve",
    "ΟΔΟΣ",
    "straße",
    "概念",
    "\u{212a}elvin",
    "İstanbul",
    "don't",
    "cross-modal",
    "Dr",
    "e.g",
    "U.S",
    "J",
    "A",
    "The",
    "no",
    "of",
    "increased",
    "report",
    "x",
];

/// What goes between words: spaces, terminators with and without closing
/// quotes and brackets, paragraph breaks and bare joiners.
const SEPS: &[&str] = &[
    " ", " ", " ", ". ", "! ", "? ", ", ", ".\" ", ".' ", ".) ", "\n\n", " \"", "-", "'", ".", "",
];

/// A text of pool words and separators, or of arbitrary characters.
fn texts() -> Gen<String> {
    let piece = zip(&usizes(0, WORDS.len() - 1), &usizes(0, SEPS.len() - 1));
    let pooled = vec_of(&piece, 0, 40)
        .map(|ps| ps.iter().map(|&(w, s)| format!("{}{}", WORDS[w], SEPS[s])).collect());
    one_of(vec![pooled.clone(), pooled, unicode_strings(0, 120)])
}

/// Documents and a chunking configuration small enough to split them.
fn stores() -> Gen<(Vec<String>, usize, usize)> {
    zip3(&vec_of(&texts(), 0, 5), &usizes(1, 24), &usizes(0, 2))
}

fn build(docs: &[String], max_tokens: usize, overlap_sentences: usize) -> DocStore {
    let mut store = DocStore::new(ChunkConfig { max_tokens, overlap_sentences });
    for (i, text) in docs.iter().enumerate() {
        store.add_document(format!("doc {i}"), text.as_str(), "test");
    }
    store
}

/// Every term of `ix` with its posting list, in term id order.
fn postings(ix: &Bm25Index) -> Vec<(&str, &[(usize, u32)])> {
    ix.postings().collect()
}

// An index that interned the analysis' terms and was fed its id stream has
// the postings per term, document lengths and search results (scores bit
// for bit) of one fed `add_document` with the chunk text; the store's own
// index is that one.
prop_check!(analysis_stream_indexes_like_the_text, zip(&stores(), &texts()), |t| {
    let ((docs, max_tokens, overlap), query) = t;
    let store = build(docs, *max_tokens, *overlap);
    let (mut from_text, mut from_stream) = (Bm25Index::default(), Bm25Index::default());
    let mut analysis = SentenceTerms::default();
    let mut stream = Vec::new();
    for chunk in store.chunks() {
        from_text.add_document(&chunk.text);
        analysis.add_chunk(&chunk.text, &mut from_stream, &mut stream);
        from_stream.add_ids(&stream);
    }
    prop_assert_eq!(&analysis, store.sentence_terms());
    for ix in [&from_stream, store.index()] {
        prop_assert_eq!(postings(ix), postings(&from_text));
        prop_assert_eq!(ix.doc_lens(), from_text.doc_lens());
        prop_assert_eq!(ix.approx_bytes(), from_text.approx_bytes());
        let bits = |ix: &Bm25Index| {
            let (hits, scanned) = ix.search(query, 8);
            (hits.iter().map(|&(d, s)| (d, s.to_bits())).collect::<Vec<_>>(), scanned)
        };
        prop_assert_eq!(bits(ix), bits(&from_text));
    }
    Ok(())
});

// A store built one document at a time has the sentence analysis and the
// BM25 index that `from_parts` rebuilds from its documents and chunks:
// the same postings per term and document lengths, and search results
// (scores bit for bit) equal for any query.
prop_check!(rebuilt_store_has_the_same_analysis, zip(&stores(), &texts()), |t| {
    let ((docs, max_tokens, overlap), query) = t;
    let store = build(docs, *max_tokens, *overlap);
    let rebuilt = DocStore::from_parts(
        store.chunk_config(),
        store.documents().to_vec(),
        store.chunks().to_vec(),
    );
    prop_assert_eq!(rebuilt.sentence_terms(), store.sentence_terms());
    prop_assert_eq!(postings(rebuilt.index()), postings(store.index()));
    prop_assert_eq!(rebuilt.index().doc_lens(), store.index().doc_lens());
    let bits = |s: &DocStore| {
        let (hits, scanned) = s.search_counted(query, 8);
        (hits.iter().map(|h| (h.chunk_id, h.score.to_bits())).collect::<Vec<_>>(), scanned)
    };
    prop_assert_eq!(bits(&rebuilt), bits(&store));
    Ok(())
});

// The analysis and BM25 share one dictionary: every id in every sentence's
// run names a term whose posting list holds that sentence's chunk, and
// every term in the dictionary has a non-empty posting list.
prop_check!(sentence_ids_resolve_in_the_one_dictionary, stores(), |t| {
    let (docs, max_tokens, overlap) = t;
    let store = build(docs, *max_tokens, *overlap);
    let postings = postings(store.index());
    for chunk in 0..store.num_chunks() {
        for (_, ids) in store.sentence_terms().sentences(chunk) {
            for &id in ids {
                let Some(&(term, posts)) = postings.get(id as usize) else {
                    return Err(format!("chunk {chunk}: id {id} is not in the dictionary"));
                };
                prop_assert_eq!(store.index().term_id(term), Some(id));
                prop_assert!(
                    posts.iter().any(|&(doc, _)| doc == chunk),
                    "chunk {chunk}: {term:?} does not post it"
                );
            }
        }
    }
    for (term, posts) in &postings {
        prop_assert!(!posts.is_empty(), "{term:?} has no postings");
        let id = store.index().term_id(term);
        prop_assert_eq!(id.map(|id| postings[id as usize].0), Some(*term));
    }
    Ok(())
});
