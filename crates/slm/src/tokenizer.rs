//! Deterministic subword token counting.
//!
//! Real SLMs count costs in subword tokens. This module provides a stable
//! approximation: a word peels known English suffixes (each its own piece,
//! mimicking BPE merges), and what remains splits into pieces of at most
//! [`MAX_PIECE_CHARS`] characters. The resulting counts track BPE token
//! counts closely enough for relative cost comparisons (the only use the
//! experiments make of them).
//!
//! The count is computed, not materialized: [`count_tokens`] walks the
//! borrowed tokens of [`unisem_text::tokenize()`] and counts each word's
//! pieces arithmetically, so charging the meter allocates nothing
//! (DESIGN.md §5c).

use unisem_text::tokenize::{tokenize, TokenKind};

/// Maximum characters per subword piece.
pub const MAX_PIECE_CHARS: usize = 6;

/// Common suffixes that get their own piece, mimicking BPE merges, in the
/// order they are tried.
pub const SUFFIXES: &[&str] = &[
    "ation", "ments", "ingly", "ness", "ment", "tion", "able", "ible", "ized", "izes", "ing", "ed",
    "er", "es", "ly", "s",
];

/// The number of subword pieces in one word.
///
/// A word of at most [`MAX_PIECE_CHARS`] characters is one piece. A longer
/// one peels the first of [`SUFFIXES`] it ends with, provided more than two
/// bytes remain, as one piece and counts the rest again; with no suffix to
/// peel it is `ceil(chars / MAX_PIECE_CHARS)` pieces.
///
/// ```
/// use unisem_slm::tokenizer::word_pieces;
/// assert_eq!(word_pieces("cat"), 1);
/// assert_eq!(word_pieces("integrating"), 3); // "integr" "at" + "ing"
/// ```
pub fn word_pieces(word: &str) -> usize {
    let mut rest = word;
    let mut chars = word.chars().count();
    let mut peeled = 0;
    loop {
        if chars <= MAX_PIECE_CHARS {
            return peeled + 1;
        }
        match SUFFIXES.iter().find(|suf| rest.len() > suf.len() + 2 && rest.ends_with(*suf)) {
            // Suffixes are ASCII: one byte is one character.
            Some(suf) => {
                rest = &rest[..rest.len() - suf.len()];
                chars -= suf.len();
                peeled += 1;
            }
            None => return peeled + chars.div_ceil(MAX_PIECE_CHARS),
        }
    }
}

/// Counts subword tokens in arbitrary text.
///
/// Words count [`word_pieces`]; numbers and punctuation count one token
/// each. This is the unit every [`crate::cost::CostMeter`] charge uses, and
/// it allocates nothing.
///
/// ```
/// use unisem_slm::count_tokens;
/// assert_eq!(count_tokens("Sales rose 12,345.67 %"), 4);
/// ```
pub fn count_tokens(text: &str) -> usize {
    tokenize(text)
        .map(|t| match t.kind {
            TokenKind::Word => word_pieces(t.text),
            TokenKind::Number | TokenKind::Punct => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_words_single_piece() {
        assert_eq!(word_pieces("cat"), 1);
        assert_eq!(word_pieces("saless"), 1);
    }

    #[test]
    fn long_words_split() {
        assert!(word_pieces("heterogeneous") >= 2);
    }

    #[test]
    fn suffix_peeled() {
        // Eleven characters are two fixed-width pieces; peeling "ing" first
        // makes three.
        assert_eq!(word_pieces("integrating"), 3);
        assert_eq!(word_pieces("integrat"), 2);
    }

    #[test]
    fn concat_always_roundtrips() {
        // The counted pieces partition the word: each holds at least one and
        // at most MAX_PIECE_CHARS characters, so the count lies between those
        // bounds; and counting the words concatenated into one text gives
        // back the sum of their counts.
        let words = ["a", "extraordinary", "antidisestablishmentarianism", "databases"];
        for w in words {
            let chars = w.chars().count();
            let n = word_pieces(w);
            assert!(n >= chars.div_ceil(MAX_PIECE_CHARS) && n <= chars, "{w}: {n}");
        }
        assert_eq!(word_pieces("databases"), 3); // "databa" + "s" + "es"
        let total: usize = words.iter().map(|w| word_pieces(w)).sum();
        assert_eq!(count_tokens(&words.join(" ")), total);
    }

    #[test]
    fn count_tokens_empty() {
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn count_tokens_scales_with_length() {
        let short = count_tokens("sales rose");
        let long = count_tokens("sales rose dramatically across heterogeneous marketplaces");
        assert!(long > short);
    }

    #[test]
    fn numbers_and_punct_count_one() {
        assert_eq!(count_tokens("12,345.67 %"), 2);
    }
}
