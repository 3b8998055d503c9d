//! Sentence-aligned document chunking.
//!
//! Chunks are the leaf nodes of the heterogeneous graph index (§III.A of the
//! paper): contiguous runs of sentences packed up to a token budget, with an
//! optional sentence overlap between consecutive chunks so entity mentions on
//! chunk boundaries are not lost.

use crate::sentence::sentence_spans;
use crate::tokenize::{tokenize, TokenKind};

/// Configuration for [`chunk_sentences`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkConfig {
    /// Maximum number of word tokens per chunk.
    pub max_tokens: usize,
    /// Number of trailing sentences repeated at the start of the next chunk.
    pub overlap_sentences: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        Self { max_tokens: 128, overlap_sentences: 1 }
    }
}

/// A chunk of a source document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk text: the concatenated sentences, single-space joined.
    pub text: String,
    /// Index of this chunk within the document (0-based).
    pub index: usize,
    /// Byte offset of the chunk's first sentence in the source document.
    pub start: usize,
    /// Byte offset one past the chunk's last sentence.
    pub end: usize,
    /// Number of word tokens in the chunk.
    pub token_count: usize,
}

/// Splits a document into sentence-aligned chunks.
///
/// Sentences longer than `max_tokens` become their own (oversized) chunk —
/// they are never split mid-sentence, because the graph index relies on
/// chunks being syntactically coherent units.
///
/// ```
/// use unisem_text::{chunk_sentences, ChunkConfig};
/// let doc = "Alpha one. Beta two. Gamma three. Delta four.";
/// let cfg = ChunkConfig { max_tokens: 4, overlap_sentences: 0 };
/// let chunks = chunk_sentences(doc, cfg);
/// assert_eq!(chunks.len(), 2);
/// ```
pub fn chunk_sentences(text: &str, config: ChunkConfig) -> Vec<Chunk> {
    let sentences = sentence_spans(text);
    if sentences.is_empty() {
        return Vec::new();
    }
    let counts: Vec<usize> = sentences
        .iter()
        .map(|s| tokenize(&text[s.clone()]).filter(|t| t.kind != TokenKind::Punct).count())
        .collect();

    let mut chunks = Vec::new();
    let mut i = 0usize;
    while i < sentences.len() {
        let mut tokens = counts[i];
        let mut j = i + 1;
        while j < sentences.len() && tokens + counts[j] <= config.max_tokens.max(1) {
            tokens += counts[j];
            j += 1;
        }
        let span = &sentences[i..j];
        let chunk_text: String =
            span.iter().map(|s| &text[s.clone()]).collect::<Vec<_>>().join(" ");
        chunks.push(Chunk {
            text: chunk_text,
            index: chunks.len(),
            start: span[0].start,
            end: span[span.len() - 1].end,
            token_count: tokens,
        });
        if j >= sentences.len() {
            break;
        }
        // Advance with overlap, but always make progress.
        let next = j.saturating_sub(config.overlap_sentences).max(i + 1);
        i = next;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_small_doc_is_one_chunk() {
        let chunks = chunk_sentences("Hello world. Short doc.", ChunkConfig::default());
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].index, 0);
        assert_eq!(chunks[0].token_count, 4);
    }

    #[test]
    fn splits_when_over_budget() {
        let doc = "One two three. Four five six. Seven eight nine. Ten eleven twelve.";
        let cfg = ChunkConfig { max_tokens: 6, overlap_sentences: 0 };
        let chunks = chunk_sentences(doc, cfg);
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].text.contains("One"));
        assert!(chunks[1].text.contains("Seven"));
    }

    #[test]
    fn overlap_repeats_sentences() {
        let doc = "A b c. D e f. G h i. J k l.";
        let cfg = ChunkConfig { max_tokens: 6, overlap_sentences: 1 };
        let chunks = chunk_sentences(doc, cfg);
        assert!(chunks.len() >= 2);
        // The last sentence of chunk 0 starts chunk 1.
        let last_of_first = chunks[0].text.split(". ").last().unwrap().to_string();
        assert!(chunks[1].text.starts_with(last_of_first.trim_end_matches('.')));
    }

    #[test]
    fn oversized_sentence_is_own_chunk() {
        let doc = "one two three four five six seven eight. Tiny.";
        let cfg = ChunkConfig { max_tokens: 3, overlap_sentences: 0 };
        let chunks = chunk_sentences(doc, cfg);
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].token_count > 3);
    }

    #[test]
    fn empty_doc() {
        assert!(chunk_sentences("", ChunkConfig::default()).is_empty());
    }

    #[test]
    fn indices_are_sequential() {
        let doc = "S one. S two. S three. S four. S five. S six.";
        let cfg = ChunkConfig { max_tokens: 4, overlap_sentences: 1 };
        let chunks = chunk_sentences(doc, cfg);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn spans_point_into_source() {
        let doc = "Alpha beta gamma. Delta epsilon zeta. Eta theta iota.";
        let cfg = ChunkConfig { max_tokens: 5, overlap_sentences: 0 };
        for c in chunk_sentences(doc, cfg) {
            let slice = &doc[c.start..c.end];
            // The chunk text is the sentence texts joined by single spaces;
            // the source slice may have the same content (it does here).
            assert_eq!(slice, c.text);
        }
    }

    #[test]
    fn always_progresses_with_large_overlap() {
        // overlap >= sentences per chunk must not loop forever.
        let doc = "A b. C d. E f. G h.";
        let cfg = ChunkConfig { max_tokens: 4, overlap_sentences: 10 };
        let chunks = chunk_sentences(doc, cfg);
        assert!(!chunks.is_empty());
        assert!(chunks.len() <= 4);
    }
}
