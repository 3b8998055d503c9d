//! Property-based tests for the text substrate (detkit harness).

use detkit::prop::{string_of, unicode_strings, usizes, vec_of, zip3, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_text::{chunk_sentences, jaccard, split_sentences, stem, tokenize, ChunkConfig};

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
        prop_assert_eq!(&s[t.start..t.end], t.text.as_str());
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

// Jaccard stays in [0, 1] and is 1 for identical inputs.
prop_check!(jaccard_bounds, vec_of(&string_of("abcde", 1, 3), 0, 20), |xs| {
    let v = jaccard(xs, xs);
    prop_assert!(xs.is_empty() || (v - 1.0).abs() < 1e-12);
    let ys: Vec<String> = xs.iter().rev().cloned().collect();
    let w = jaccard(xs, &ys);
    prop_assert!((0.0..=1.0 + 1e-12).contains(&w));
    Ok(())
});

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
