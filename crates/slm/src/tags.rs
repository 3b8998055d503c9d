//! Sentence tagging: the unit the SLM tags (DESIGN.md §5c).
//!
//! §III.A builds the graph from tagged text and §III.C's table generation
//! reads NER and POS off the same text. Both read [`SentenceTags`], the
//! SLM's one analysis of one sentence, and a chunk's tags are its
//! sentences' tags: no text longer than a sentence is tagged, so no rule
//! reads across a sentence end. A [`TagTable`] holds the tags of a set of
//! sentences, each tagged once, for every reader of one build.

use std::borrow::Cow;

use unisem_text::tokenize::Token;

use crate::ner::EntityMention;
use crate::pos::PosTag;
use crate::Slm;

/// One sentence's entity mentions and its tokens' parts of speech, with
/// byte offsets into the sentence.
#[derive(Debug, Clone, PartialEq)]
pub struct SentenceTags<'a> {
    /// Entity mentions, sorted by start and never overlapping.
    pub mentions: Vec<EntityMention>,
    /// Every token with its part of speech, in text order.
    pub pos: Vec<(Token<'a>, PosTag)>,
}

/// The tags of a set of sentences, keyed by sentence text: each distinct
/// sentence is tagged once, however many documents or chunks hold it.
#[derive(Debug, Default)]
pub struct TagTable<'a> {
    /// The distinct sentences, ascending.
    sentences: Vec<&'a str>,
    /// Per sentence, its tags.
    tags: Vec<SentenceTags<'a>>,
}

impl<'a> TagTable<'a> {
    /// Tags the distinct ones of `sentences` through `tag_all`, which is
    /// handed them sorted and returns their tags in that order (the caller
    /// chooses where the tagging runs).
    pub fn new(
        mut sentences: Vec<&'a str>,
        tag_all: impl FnOnce(&[&'a str]) -> Vec<SentenceTags<'a>>,
    ) -> Self {
        sentences.sort_unstable();
        sentences.dedup();
        let tags = tag_all(&sentences);
        debug_assert_eq!(tags.len(), sentences.len(), "one tagging per sentence");
        Self { sentences, tags }
    }

    /// The tags of `sentence`, from the table or, when it lacks the
    /// sentence, tagged by `slm` now.
    pub fn tags<'t>(&'t self, slm: &Slm, sentence: &'a str) -> Cow<'t, SentenceTags<'a>> {
        match self.sentences.binary_search(&sentence).ok().and_then(|i| self.tags.get(i)) {
            Some(tags) => Cow::Borrowed(tags),
            None => Cow::Owned(slm.tag_sentence(sentence)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_distinct_sentence_is_tagged_once_and_a_missing_one_on_demand() {
        let slm = Slm::default();
        let sentences = vec!["Sales rose 5% in Q2.", "Q3 was flat.", "Sales rose 5% in Q2."];
        let table = TagTable::new(sentences, |distinct| {
            distinct.iter().map(|s| slm.tag_sentence(s)).collect()
        });
        assert_eq!(slm.meter().snapshot().tag_calls, 2);
        let held = table.tags(&slm, "Q3 was flat.");
        assert!(matches!(held, Cow::Borrowed(_)));
        assert_eq!(*held, slm.tag_sentence("Q3 was flat."));
        assert_eq!(slm.meter().snapshot().tag_calls, 3);
        let missing = table.tags(&slm, "Revenue fell.");
        assert!(matches!(missing, Cow::Owned(_)));
        assert_eq!(slm.meter().snapshot().tag_calls, 4);
    }
}
