//! Part-of-speech-lite tagging.
//!
//! §III.C names part-of-speech tagging as one of the techniques the SLM uses
//! for relational table generation. This is a closed-class + suffix +
//! position tagger: crude by NLP standards, but sufficient to distinguish
//! the verb/noun/number/modifier structure the extraction rules consume.

use unisem_text::tokenize::{Token, TokenKind};

/// Coarse part-of-speech tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosTag {
    /// Common noun.
    Noun,
    /// Proper noun (capitalized, not sentence-initial-only).
    ProperNoun,
    /// Verb (incl. auxiliaries).
    Verb,
    /// Adjective.
    Adjective,
    /// Adverb.
    Adverb,
    /// Determiner / article.
    Determiner,
    /// Preposition or subordinating conjunction.
    Preposition,
    /// Coordinating conjunction.
    Conjunction,
    /// Pronoun.
    Pronoun,
    /// Cardinal number.
    Number,
    /// Punctuation or symbol.
    Punct,
}

const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "each", "every", "all", "some", "any", "no",
];
const PREPOSITIONS: &[&str] = &[
    "in", "on", "at", "by", "for", "from", "to", "of", "with", "over", "under", "between",
    "during", "after", "before", "above", "across", "into", "through", "per",
];
const CONJUNCTIONS: &[&str] = &["and", "or", "but", "nor", "yet", "so"];
const PRONOUNS: &[&str] = &[
    "i", "you", "he", "she", "it", "we", "they", "them", "him", "her", "us", "who", "which", "what",
];
const COMMON_VERBS: &[&str] = &[
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "has",
    "have",
    "had",
    "do",
    "does",
    "did",
    "increased",
    "decreased",
    "rose",
    "fell",
    "grew",
    "dropped",
    "reported",
    "received",
    "purchased",
    "bought",
    "sold",
    "prescribed",
    "shipped",
    "returned",
    "rated",
    "reached",
    "improved",
    "declined",
    "gained",
    "lost",
    "recorded",
    "totaled",
    "averaged",
    "exceeded",
    "launched",
    "announced",
    "posted",
    "climbed",
    "surged",
    "slipped",
    "jumped",
];
const COMMON_ADVERBS: &[&str] = &[
    "very",
    "quite",
    "strongly",
    "sharply",
    "slightly",
    "significantly",
    "nearly",
    "almost",
    "only",
    "also",
    "however",
    "moreover",
];

/// Tags each of a text's `tokens` with a coarse part of speech.
///
/// Returns the tokens paired with tags; punctuation tokens get
/// [`PosTag::Punct`]. The SLM tags one sentence at a time
/// ([`crate::Slm::tag_sentence`]), reading NER and POS off one
/// tokenization; tagging allocates the returned list and one case-folding
/// buffer.
pub fn pos_tag<'a>(tokens: &[Token<'a>]) -> Vec<(Token<'a>, PosTag)> {
    let mut lower = String::new();
    let mut out = Vec::with_capacity(tokens.len());
    for (i, t) in tokens.iter().enumerate() {
        let tag = match t.kind {
            TokenKind::Punct => PosTag::Punct,
            TokenKind::Number => PosTag::Number,
            TokenKind::Word => word_tag(t, i, tokens, &mut lower),
        };
        out.push((*t, tag));
    }
    out
}

/// The tag of word `t`, the `i`-th of `tokens`; `lower` is scratch.
fn word_tag(t: &Token, i: usize, tokens: &[Token], lower: &mut String) -> PosTag {
    t.lower_into(lower);
    let l = lower.as_str();
    if DETERMINERS.contains(&l) {
        return PosTag::Determiner;
    }
    if PREPOSITIONS.contains(&l) {
        return PosTag::Preposition;
    }
    if CONJUNCTIONS.contains(&l) {
        return PosTag::Conjunction;
    }
    if PRONOUNS.contains(&l) {
        return PosTag::Pronoun;
    }
    if COMMON_VERBS.contains(&l) {
        return PosTag::Verb;
    }
    if COMMON_ADVERBS.contains(&l) || (l.ends_with("ly") && l.len() > 4) {
        return PosTag::Adverb;
    }
    // Proper noun: capitalized and either not sentence-initial or part of a
    // capitalized run.
    let sentence_initial = i == 0 || matches!(tokens[i - 1].text, "." | "!" | "?");
    if t.is_capitalized() {
        let next_cap =
            tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Word && n.is_capitalized());
        if !sentence_initial || next_cap || t.is_acronym() {
            return PosTag::ProperNoun;
        }
    }
    // Verb morphology after a pronoun/noun subject: -ed past tense.
    if l.ends_with("ed") && l.len() > 4 {
        return PosTag::Verb;
    }
    // Gerund acting verbal when preceded by is/are/was/were.
    if l.ends_with("ing") && l.len() > 5 {
        let prev_verb = i > 0 && {
            tokens[i - 1].lower_into(lower);
            COMMON_VERBS.contains(&lower.as_str())
        };
        return if prev_verb { PosTag::Verb } else { PosTag::Noun };
    }
    if l.ends_with("ous")
        || l.ends_with("ful")
        || l.ends_with("ive")
        || l.ends_with("ible")
        || l.ends_with("able")
        || l.ends_with("al")
    {
        return PosTag::Adjective;
    }
    PosTag::Noun
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_text::tokenize::tokenize;

    fn tags(text: &str) -> Vec<(&str, PosTag)> {
        let tokens: Vec<Token> = tokenize(text).collect();
        pos_tag(&tokens).into_iter().map(|(t, p)| (t.text, p)).collect()
    }

    #[test]
    fn closed_classes() {
        let t = tags("the sales of products");
        assert_eq!(t[0].1, PosTag::Determiner);
        assert_eq!(t[2].1, PosTag::Preposition);
    }

    #[test]
    fn domain_verbs() {
        let t = tags("sales increased sharply");
        assert_eq!(t[1].1, PosTag::Verb);
        assert_eq!(t[2].1, PosTag::Adverb);
    }

    #[test]
    fn numbers_and_punct() {
        let t = tags("grew 20 %");
        assert_eq!(t[1].1, PosTag::Number);
        assert_eq!(t[2].1, PosTag::Punct);
    }

    #[test]
    fn proper_noun_mid_sentence() {
        let t = tags("we met Alice yesterday");
        assert_eq!(t[2].1, PosTag::ProperNoun);
    }

    #[test]
    fn sentence_initial_common_word_not_proper() {
        let t = tags("The report arrived");
        assert_eq!(t[0].1, PosTag::Determiner);
        // "Report" capitalized at start would be noun, not proper:
        let t2 = tags("Revenue increased");
        assert_eq!(t2[0].1, PosTag::Noun);
    }

    #[test]
    fn capitalized_run_at_start_is_proper() {
        let t = tags("Acme Corp announced profits");
        assert_eq!(t[0].1, PosTag::ProperNoun);
        assert_eq!(t[1].1, PosTag::ProperNoun);
    }

    #[test]
    fn ed_suffix_verb() {
        let t = tags("the firm outperformed rivals");
        assert_eq!(t[2].1, PosTag::Verb);
    }

    #[test]
    fn adjective_suffixes() {
        let t = tags("a reliable profitable device");
        assert_eq!(t[1].1, PosTag::Adjective);
        assert_eq!(t[2].1, PosTag::Adjective);
    }

    #[test]
    fn gerund_noun_vs_verb() {
        let t = tags("pricing is falling");
        assert_eq!(t[0].1, PosTag::Noun);
        assert_eq!(t[2].1, PosTag::Verb);
    }

    #[test]
    fn empty() {
        assert!(tags("").is_empty());
    }
}
