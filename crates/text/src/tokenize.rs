//! Span-preserving tokenization that borrows its source.
//!
//! [`tokenize`] walks a text once and yields [`Token`]s whose `text` is a
//! `&str` span of the source, with its byte offsets, so downstream consumers
//! (NER tagging, chunk construction, provenance tracking) can always map
//! results back to the original document — and tokenizing allocates
//! nothing. Case folding writes into a caller's buffer
//! ([`Token::lower_into`]), so a consumer owns only the terms it keeps
//! (DESIGN.md §5c).

use std::str::CharIndices;

use crate::normalize::lower_into;

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word (may contain internal apostrophes or hyphens).
    Word,
    /// Integer or decimal number, optionally with sign, commas, `%` or
    /// currency handled as separate tokens.
    Number,
    /// A single punctuation or symbol character.
    Punct,
}

/// A token: a span of the source text and its lexical class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text as it appears in the source: `&source[start..end]`.
    pub text: &'a str,
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte of the token in the source.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

impl Token<'_> {
    /// Writes the token text lower-cased into `out`, replacing its contents.
    pub fn lower_into(&self, out: &mut String) {
        lower_into(self.text, out);
    }

    /// True if the token starts with an uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(|c| c.is_uppercase())
    }

    /// True if every alphabetic character in the token is uppercase and the
    /// token contains at least two characters (e.g. acronyms like `EHR`).
    pub fn is_acronym(&self) -> bool {
        self.text.chars().count() >= 2
            && self.text.chars().all(|c| !c.is_alphabetic() || c.is_uppercase())
            && self.text.chars().any(|c| c.is_alphabetic())
    }
}

/// Tokenizes `text` into words, numbers, and punctuation with byte spans.
///
/// Rules:
/// - Runs of alphabetic characters form [`TokenKind::Word`] tokens; internal
///   `'` and `-` are kept when surrounded by letters (`don't`, `cross-modal`).
/// - Runs of digits form [`TokenKind::Number`] tokens; internal `.` and `,`
///   are kept when surrounded by digits (`1,234.56`).
/// - Everything else that is not whitespace becomes a single-character
///   [`TokenKind::Punct`] token.
///
/// The tokens borrow `text`; collect them only where a consumer needs
/// random access.
///
/// ```
/// use unisem_text::tokenize;
/// let texts: Vec<&str> = tokenize("Q2 sales rose 20%.").map(|t| t.text).collect();
/// assert_eq!(texts, vec!["Q2", "sales", "rose", "20", "%", "."]);
/// ```
pub fn tokenize(text: &str) -> Tokens<'_> {
    Tokens { text, chars: text.char_indices(), last_end: None }
}

/// The iterator [`tokenize`] returns: one pass over `char_indices`, looking
/// ahead at most past one joiner (`'`, `-`, `.`, `,` or a sign).
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    text: &'a str,
    chars: CharIndices<'a>,
    /// End of the last token yielded: a sign directly after it is
    /// punctuation, not the start of a signed number.
    last_end: Option<usize>,
}

impl Tokens<'_> {
    /// The next character, not consumed.
    fn peek(&self) -> Option<char> {
        self.chars.as_str().chars().next()
    }

    /// The character after the next one, not consumed.
    fn peek_second(&self) -> Option<char> {
        self.chars.as_str().chars().nth(1)
    }

    /// Byte offset of the next character (the text length at the end).
    fn offset(&self) -> usize {
        self.text.len() - self.chars.as_str().len()
    }

    /// Consumes characters while `inner` accepts them, and a `joiner`
    /// directly followed by one `inner` accepts.
    fn run(&mut self, inner: fn(char) -> bool, joiner: fn(char) -> bool) {
        while let Some(c) = self.peek() {
            if inner(c) {
                self.chars.next();
            } else if joiner(c) && self.peek_second().is_some_and(inner) {
                self.chars.next();
                self.chars.next();
            } else {
                break;
            }
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let (start, c) = loop {
            let (off, c) = self.chars.next()?;
            if !c.is_whitespace() {
                break (off, c);
            }
        };
        let kind = if c.is_alphabetic() {
            // Word: letters plus digits directly attached (Q2, B2B) and
            // internal apostrophes/hyphens surrounded by alphanumerics.
            self.run(char::is_alphanumeric, |j| j == '\'' || j == '-');
            TokenKind::Word
        } else if c.is_ascii_digit()
            || ((c == '-' || c == '+')
                && self.peek().is_some_and(|d| d.is_ascii_digit())
                && self.last_end.is_none_or(|end| end < start))
        {
            // A sign starts a number only after whitespace or at the start.
            self.run(|d| d.is_ascii_digit(), |j| j == '.' || j == ',');
            TokenKind::Number
        } else {
            TokenKind::Punct
        };
        let end = self.offset();
        self.last_end = Some(end);
        Some(Token { text: &self.text[start..end], kind, start, end })
    }
}

/// Convenience: lowercase word and number tokens only (punctuation dropped),
/// each an owned `String`.
///
/// This is the shape the embedder and the test oracles want; the answer
/// path walks [`tokenize`] with a reused buffer instead.
pub fn tokenize_words(text: &str) -> Vec<String> {
    tokenize(text).filter(|t| t.kind != TokenKind::Punct).map(|t| t.text.to_lowercase()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sentence() {
        let toks: Vec<Token> = tokenize("The cat sat.").collect();
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[0].text, "The");
        assert_eq!(toks[0].kind, TokenKind::Word);
        assert_eq!(toks[3].kind, TokenKind::Punct);
    }

    #[test]
    fn spans_roundtrip() {
        let text = "Drug-A improved outcomes by 12.5% in Q2.";
        for t in tokenize(text) {
            assert_eq!(&text[t.start..t.end], t.text);
        }
    }

    #[test]
    fn numbers_with_separators() {
        let num =
            tokenize("revenue was 1,234.56 dollars").find(|t| t.kind == TokenKind::Number).unwrap();
        assert_eq!(num.text, "1,234.56");
    }

    #[test]
    fn signed_number_after_space() {
        let num = tokenize("change: -15 points").find(|t| t.kind == TokenKind::Number).unwrap();
        assert_eq!(num.text, "-15");
    }

    #[test]
    fn hyphen_between_words_kept() {
        let toks: Vec<Token> = tokenize("cross-modal context").collect();
        assert_eq!(toks[0].text, "cross-modal");
    }

    #[test]
    fn trailing_hyphen_not_kept() {
        let toks: Vec<Token> = tokenize("cross- modal").collect();
        assert_eq!(toks[0].text, "cross");
        assert_eq!(toks[1].text, "-");
    }

    #[test]
    fn alphanumeric_words() {
        let toks: Vec<Token> = tokenize("Q2 B2B 4K").collect();
        assert_eq!(toks[0].text, "Q2");
        assert_eq!(toks[1].text, "B2B");
        // "4K" starts with a digit: number 4, then word K.
        assert_eq!(toks[2].text, "4");
        assert_eq!(toks[3].text, "K");
    }

    #[test]
    fn percent_is_separate_punct() {
        let toks: Vec<Token> = tokenize("20%").collect();
        assert_eq!(toks[0].text, "20");
        assert_eq!(toks[1].text, "%");
        assert_eq!(toks[1].kind, TokenKind::Punct);
    }

    #[test]
    fn apostrophes() {
        let toks: Vec<Token> = tokenize("patient's symptoms don't improve").collect();
        assert_eq!(toks[0].text, "patient's");
        assert_eq!(toks[2].text, "don't");
    }

    #[test]
    fn unicode_text() {
        let text = "naïve café 概念 42";
        let toks: Vec<Token> = tokenize(text).collect();
        for t in &toks {
            assert_eq!(&text[t.start..t.end], t.text);
        }
        assert!(toks.iter().any(|t| t.text == "naïve"));
    }

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(tokenize("").next(), None);
        assert_eq!(tokenize("   \t\n ").next(), None);
    }

    #[test]
    fn tokenize_words_drops_punct_and_lowercases() {
        let ws = tokenize_words("The Cat, the HAT!");
        assert_eq!(ws, vec!["the", "cat", "the", "hat"]);
    }

    #[test]
    fn acronym_detection() {
        let toks: Vec<Token> = tokenize("the EHR system").collect();
        assert!(toks[1].is_acronym());
        assert!(!toks[0].is_acronym());
        assert!(!toks[2].is_acronym());
    }

    #[test]
    fn capitalized_detection() {
        let toks: Vec<Token> = tokenize("Alice met bob").collect();
        assert!(toks[0].is_capitalized());
        assert!(!toks[2].is_capitalized());
    }
}
