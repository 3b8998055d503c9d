//! Sentence boundary detection.
//!
//! A rule-based splitter good enough for the synthetic corpora this system
//! indexes: it handles the common abbreviation traps (`Dr.`, `e.g.`,
//! `U.S.`), decimal numbers, and quoted sentence ends, without pretending to
//! be a full discourse segmenter.

use std::ops::Range;

/// Abbreviations after which a period does not end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "dr", "mr", "mrs", "ms", "prof", "sr", "jr", "st", "vs", "etc", "e.g", "i.e", "fig", "no",
    "vol", "inc", "ltd", "co", "corp", "dept", "approx", "est", "al",
];

/// Splits `text` into sentences.
///
/// Boundaries are `.`, `!`, `?` (possibly followed by closing quotes or
/// parentheses) when followed by whitespace and an uppercase letter, digit, or
/// end of text — except after known abbreviations or inside decimal numbers.
/// Newlines that look like paragraph breaks (two consecutive) always split.
///
/// ```
/// use unisem_text::split_sentences;
/// let s = split_sentences("Dr. Smith prescribed Drug A. The patient improved.");
/// assert_eq!(s.len(), 2);
/// assert!(s[0].starts_with("Dr. Smith"));
/// ```
pub fn split_sentences(text: &str) -> Vec<String> {
    sentence_spans(text).into_iter().map(|span| text[span].to_string()).collect()
}

/// The byte spans of [`split_sentences`]' sentences, in order, with no
/// sentence text copied: `&text[span]` is each trimmed sentence.
pub fn sentence_spans(text: &str) -> Vec<Range<usize>> {
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let mut sentences = Vec::new();
    let mut sent_start = 0usize;

    let mut i = 0;
    while i < chars.len() {
        let (off, c) = chars[i];
        let mut boundary_end: Option<usize> = None;

        if c == '\n' {
            // Paragraph break: two or more newlines (possibly with spaces).
            let mut j = i + 1;
            let mut newlines = 1;
            while j < chars.len() && chars[j].1.is_whitespace() {
                if chars[j].1 == '\n' {
                    newlines += 1;
                }
                j += 1;
            }
            if newlines >= 2 {
                boundary_end = Some(off);
            }
        } else if c == '.' || c == '!' || c == '?' {
            // Skip closing quotes/brackets after the terminator.
            let mut j = i + 1;
            while j < chars.len() && matches!(chars[j].1, '"' | '\'' | ')' | ']' | '”' | '’') {
                j += 1;
            }
            let terminator_end = if j < chars.len() { chars[j].0 } else { text.len() };
            let at_eot = j >= chars.len();
            let followed_by_space = !at_eot && chars[j].1.is_whitespace();
            if at_eot || followed_by_space {
                let rest = if j < chars.len() { &text[chars[j].0..] } else { "" };
                let is_abbrev = c == '.' && ends_with_abbreviation(&text[sent_start..off], rest);
                let is_decimal = c == '.'
                    && i + 1 < chars.len()
                    && chars[i + 1].1.is_ascii_digit()
                    && i > 0
                    && chars[i - 1].1.is_ascii_digit();
                // Require the next non-space char to start a new sentence
                // (uppercase, digit, quote) to avoid splitting "e.g. the".
                let next_ok = at_eot || {
                    let mut k = j;
                    while k < chars.len() && chars[k].1.is_whitespace() {
                        k += 1;
                    }
                    k >= chars.len()
                        || chars[k].1.is_uppercase()
                        || chars[k].1.is_ascii_digit()
                        || matches!(chars[k].1, '"' | '\'' | '“' | '‘')
                };
                if !is_abbrev && !is_decimal && next_ok {
                    boundary_end = Some(terminator_end);
                }
            }
        }

        if let Some(end) = boundary_end {
            push_sentence(text, sent_start, end, &mut sentences);
            // Advance past whitespace to next sentence start.
            let mut j = i + 1;
            while j < chars.len() && chars[j].1.is_whitespace() {
                j += 1;
            }
            sent_start = if j < chars.len() { chars[j].0 } else { text.len() };
            i = j;
        } else {
            i += 1;
        }
    }
    push_sentence(text, sent_start, text.len(), &mut sentences);
    sentences
}

fn push_sentence(text: &str, start: usize, end: usize, out: &mut Vec<Range<usize>>) {
    if start >= end {
        return;
    }
    let raw = &text[start..end];
    if raw.trim().is_empty() {
        return;
    }
    let lead = raw.len() - raw.trim_start().len();
    let trail = raw.len() - raw.trim_end().len();
    out.push(start + lead..end - trail);
}

/// Words that very commonly begin a sentence; used to disambiguate a
/// sentence-final single initial ("Drug A. The patient…") from a name
/// initial ("J. Smith").
const SENTENCE_STARTERS: &[&str] = &[
    "The",
    "This",
    "That",
    "These",
    "Those",
    "It",
    "He",
    "She",
    "They",
    "We",
    "You",
    "In",
    "On",
    "At",
    "By",
    "For",
    "After",
    "Before",
    "However",
    "Meanwhile",
    "Then",
    "There",
    "A",
    "An",
];

/// Whether the text ends with a known abbreviation (the token right before a
/// period), or a single uppercase initial like "J" that is plausibly part of
/// a name given what follows.
fn ends_with_abbreviation(before: &str, after: &str) -> bool {
    let last = before
        .rsplit(|c: char| c.is_whitespace())
        .next()
        .unwrap_or("")
        .trim_matches(|c: char| !c.is_alphanumeric() && c != '.');
    if last.is_empty() {
        return false;
    }
    let lower = last.to_lowercase();
    // Strip trailing periods of multi-dot abbreviations (e.g -> "e.g").
    let lower = lower.trim_end_matches('.');
    if ABBREVIATIONS.contains(&lower) {
        return true;
    }
    // Single uppercase initial: "J." in "J. Smith" — but if the next word is
    // a common sentence starter, treat the period as a real boundary
    // ("…Drug A. The patient improved.").
    let is_initial =
        last.chars().count() == 1 && last.chars().next().is_some_and(|c| c.is_uppercase());
    if is_initial {
        let next_word: String =
            after.trim_start().chars().take_while(|c| c.is_alphanumeric()).collect();
        return !SENTENCE_STARTERS.contains(&next_word.as_str());
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_basic() {
        let s = split_sentences("First sentence. Second one! Third?");
        assert_eq!(s, vec!["First sentence.", "Second one!", "Third?"]);
    }

    #[test]
    fn keeps_abbreviations() {
        let s = split_sentences("Dr. Smith arrived. He was late.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], "Dr. Smith arrived.");
    }

    #[test]
    fn keeps_decimals() {
        let s = split_sentences("Sales rose 12.5 percent. Profits fell.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("12.5"));
    }

    #[test]
    fn eg_not_split_before_lowercase() {
        let s = split_sentences("Use devices, e.g. phones, for tests.");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn paragraph_break_splits() {
        let s = split_sentences("alpha beta\n\ngamma delta");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], "alpha beta");
        assert_eq!(s[1], "gamma delta");
    }

    #[test]
    fn no_terminator_still_returns_tail() {
        let s = split_sentences("an unterminated fragment");
        assert_eq!(s, vec!["an unterminated fragment"]);
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("  \n ").is_empty());
    }

    #[test]
    fn quoted_terminator() {
        let s = split_sentences("She said \"stop.\" Then left.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn spans_are_valid() {
        let text = "One. Two. Three ends here";
        let spans = sentence_spans(text);
        let texts: Vec<&str> = spans.into_iter().map(|s| &text[s]).collect();
        assert_eq!(texts, split_sentences(text));
    }

    #[test]
    fn initials_not_split() {
        let s = split_sentences("Patient J. Doe recovered fully. Discharged on Monday.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("J. Doe"));
    }

    #[test]
    fn lowercase_continuation_not_split() {
        // "no. 5" — 'no' is an abbreviation.
        let s = split_sentences("See item no. 5 in the list.");
        assert_eq!(s.len(), 1);
    }
}
