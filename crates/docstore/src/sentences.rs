//! Every chunk's sentences, analysed once at ingest (DESIGN.md §5c).
//!
//! Evidence selection scores the sentences of retrieved chunks by the
//! normalized terms they contain. Those terms are a pure function of the
//! chunk text, so [`SentenceTerms`] computes them when a chunk is added:
//! each sentence's byte span in its chunk and its sorted, distinct term
//! ids, in flat arrays. The ids are drawn from the store's BM25 index, its
//! one term dictionary, and the same pass yields the chunk's whole id
//! sequence, which is what BM25 posts.

use std::ops::Range;

use unisem_text::bm25::Bm25Index;
use unisem_text::normalize::{lower_into, normalize_into};
use unisem_text::sentence::sentence_spans;
use unisem_text::tokenize::{tokenize, TokenKind};

/// The sentence analysis of a sequence of chunks.
///
/// A sentence is exactly what `split_sentences` returns for its chunk, and
/// its terms are those of its tokens' words and numbers, lower-cased and
/// normalized, as BM25 and the question analysis normalize them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SentenceTerms {
    /// Per chunk, the index of its first sentence; one past the last
    /// chunk's last sentence at the end.
    chunk_starts: Vec<u32>,
    /// Per sentence, its byte span in its chunk.
    spans: Vec<(u32, u32)>,
    /// Per sentence, the index of its first term id in `term_ids`; one
    /// past the last sentence's last id at the end.
    term_starts: Vec<u32>,
    /// Every sentence's distinct term ids, ascending, one run per sentence.
    term_ids: Vec<u32>,
}

impl SentenceTerms {
    /// Analyses one more chunk, interning its terms in `dictionary`.
    /// `stream` is overwritten with the chunk's term ids in text order,
    /// repeats included: the document BM25 posts.
    pub fn add_chunk(&mut self, text: &str, dictionary: &mut Bm25Index, stream: &mut Vec<u32>) {
        if self.chunk_starts.is_empty() {
            self.chunk_starts.push(0);
            self.term_starts.push(0);
        }
        stream.clear();
        let spans = sentence_spans(text);
        // A word or number lies inside one sentence span or between two:
        // sentences end at a terminator followed by whitespace or at a
        // paragraph break, and tokens hold no whitespace and never end in a
        // terminator.
        let mut sentence = 0;
        let mut open = self.term_ids.len();
        let (mut lower, mut term) = (String::new(), String::new());
        for t in tokenize(text).filter(|t| t.kind != TokenKind::Punct) {
            lower_into(t.text, &mut lower);
            normalize_into(&lower, &mut term);
            let id = dictionary.intern(&term);
            stream.push(id);
            while sentence < spans.len() && spans[sentence].end <= t.start {
                self.close_sentence(&spans[sentence], open);
                open = self.term_ids.len();
                sentence += 1;
            }
            if spans.get(sentence).is_some_and(|s| s.start <= t.start && t.end <= s.end) {
                self.term_ids.push(id);
            }
        }
        for span in &spans[sentence..] {
            self.close_sentence(span, open);
            open = self.term_ids.len();
        }
        self.chunk_starts.push(self.spans.len() as u32);
    }

    /// Ends the sentence at `span` whose term ids were pushed from `open`
    /// on: they are sorted and deduplicated in place.
    fn close_sentence(&mut self, span: &Range<usize>, open: usize) {
        let ids = &mut self.term_ids[open..];
        ids.sort_unstable();
        let mut distinct = 0;
        for i in 0..ids.len() {
            if i == 0 || ids[i] != ids[distinct - 1] {
                ids[distinct] = ids[i];
                distinct += 1;
            }
        }
        self.term_ids.truncate(open + distinct);
        self.spans.push((span.start as u32, span.end as u32));
        self.term_starts.push(self.term_ids.len() as u32);
    }

    /// The sentences of the `chunk`-th chunk analysed, in text order: each
    /// one's byte span in the chunk text and its sorted, distinct term ids.
    /// Empty for a chunk never analysed.
    pub fn sentences(
        &self,
        chunk: usize,
    ) -> impl ExactSizeIterator<Item = (Range<usize>, &[u32])> + '_ {
        let bounds = self.chunk_starts.get(chunk).zip(self.chunk_starts.get(chunk + 1));
        let range = bounds.map_or(0..0, |(&a, &b)| a as usize..b as usize);
        range.map(|s| {
            let (start, end) = self.spans[s];
            let ids =
                &self.term_ids[self.term_starts[s] as usize..self.term_starts[s + 1] as usize];
            (start as usize..end as usize, ids)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_text::sentence::split_sentences;

    #[test]
    fn sentences_carry_their_distinct_sorted_terms() {
        let (mut a, mut dict) = (SentenceTerms::default(), Bm25Index::default());
        let mut stream = Vec::new();
        let text = "Sales rose. Sales fell, sales rose again! \"Quoted.\" Done";
        a.add_chunk(text, &mut dict, &mut stream);
        let terms: Vec<&str> = dict.postings().map(|(term, _)| term).collect();
        let term = |id: u32| terms[id as usize];
        let words: Vec<&str> = stream.iter().map(|&id| term(id)).collect();
        assert_eq!(
            words,
            ["sale", "rose", "sale", "fell", "sale", "rose", "again", "quot", "done"]
        );
        let got: Vec<(&str, Vec<&str>)> = a
            .sentences(0)
            .map(|(span, ids)| (&text[span], ids.iter().map(|&id| term(id)).collect()))
            .collect();
        let texts: Vec<&str> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(texts, split_sentences(text));
        assert_eq!(got[1].1, ["sale", "rose", "fell", "again"], "ids ascend in first-seen order");
        for (_, ids) in a.sentences(0) {
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(dict.term_id("sale"), Some(stream[0]));
        assert_eq!(dict.term_id("sales"), None);
    }

    #[test]
    fn chunks_share_one_vocabulary() {
        let (mut a, mut dict) = (SentenceTerms::default(), Bm25Index::default());
        let (mut first, mut second) = (Vec::new(), Vec::new());
        a.add_chunk("alpha beta", &mut dict, &mut first);
        a.add_chunk("", &mut dict, &mut second);
        assert!(second.is_empty());
        a.add_chunk("beta gamma", &mut dict, &mut second);
        assert_eq!(first[1], second[0]);
        assert_eq!(a.sentences(1).count(), 0);
        assert_eq!(a.sentences(2).count(), 1);
        assert_eq!(a.sentences(3).count(), 0, "a chunk never analysed has none");
    }
}
