//! # unisem-docstore
//!
//! The unstructured substrate: a document store with a chunking pipeline, a
//! BM25-searchable chunk index, and every chunk's sentences analysed once.
//!
//! Documents are the raw inputs of §III.A's graph construction ("text chunks
//! are the foundational segments derived from raw documents"); this crate
//! owns the document → chunk decomposition and provides the lexical search
//! baseline used in the retrieval experiments. Each chunk is tokenized and
//! stemmed once, when it is added: that one pass feeds BM25 and
//! [`SentenceTerms`], the per-sentence terms evidence selection reads, and
//! both name terms by the BM25 index's ids, the store's one dictionary.

use std::fmt;

use unisem_text::bm25::Bm25Index;
use unisem_text::chunk::{chunk_sentences, ChunkConfig};

mod sentences;

pub use sentences::SentenceTerms;

/// Identifier of a document (insertion order).
pub type DocumentId = usize;

/// Identifier of a chunk in the global chunk table (insertion order).
pub type ChunkId = usize;

/// A stored document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Document id.
    pub id: DocumentId,
    /// Short human-readable title.
    pub title: String,
    /// Full text.
    pub text: String,
    /// Free-form source tag ("clinical_note", "review", …).
    pub source: String,
}

/// A chunk of a stored document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredChunk {
    /// Global chunk id.
    pub id: ChunkId,
    /// Owning document.
    pub doc_id: DocumentId,
    /// Index of this chunk within its document.
    pub index_in_doc: usize,
    /// Chunk text.
    pub text: String,
}

/// A search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkHit {
    /// The matching chunk id.
    pub chunk_id: ChunkId,
    /// BM25 score.
    pub score: f64,
}

/// Errors from the document store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// Unknown document id.
    UnknownDocument(DocumentId),
    /// Unknown chunk id.
    UnknownChunk(ChunkId),
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::UnknownDocument(id) => write!(f, "unknown document id: {id}"),
            DocError::UnknownChunk(id) => write!(f, "unknown chunk id: {id}"),
        }
    }
}

impl std::error::Error for DocError {}

/// The document store.
///
/// Adding a document immediately chunks it (with the store's
/// [`ChunkConfig`]), analyses every chunk's sentences and indexes the
/// chunk's terms for BM25 search, from one tokenization of the chunk.
#[derive(Debug, Clone, Default)]
pub struct DocStore {
    docs: Vec<Document>,
    chunks: Vec<StoredChunk>,
    index: Bm25Index,
    sentences: SentenceTerms,
    chunk_config: ChunkConfig,
}

impl DocStore {
    /// Creates an empty store with the given chunking configuration.
    pub fn new(chunk_config: ChunkConfig) -> Self {
        Self { chunk_config, ..Self::default() }
    }

    /// Reassembles a store from snapshot parts: documents and chunks in id
    /// order, persisted from a store built with the same `chunk_config`.
    /// Each chunk takes the step [`Self::add_document`] takes for it, so
    /// the sentence analysis and the BM25 index, which are not persisted,
    /// equal the ones the store had.
    pub fn from_parts(
        chunk_config: ChunkConfig,
        docs: Vec<Document>,
        chunks: Vec<StoredChunk>,
    ) -> Self {
        let mut store =
            Self { docs, chunks: Vec::with_capacity(chunks.len()), ..Self::new(chunk_config) };
        let mut stream = Vec::new();
        for c in chunks {
            store.index_chunk(&c.text, &mut stream);
            store.chunks.push(c);
        }
        store
    }

    /// Analyses the sentences of the chunk about to be stored, interning
    /// its terms in the BM25 index, then posts the same id stream as its
    /// BM25 document. `stream` is a buffer reused across chunks.
    fn index_chunk(&mut self, text: &str, stream: &mut Vec<u32>) {
        self.sentences.add_chunk(text, &mut self.index, stream);
        let indexed = self.index.add_ids(stream);
        debug_assert_eq!(indexed, self.chunks.len(), "chunk ids track BM25 doc ids");
    }

    /// The chunking configuration documents are ingested with.
    pub fn chunk_config(&self) -> ChunkConfig {
        self.chunk_config
    }

    /// The BM25 index over chunks, one document per chunk id. Its term
    /// dictionary is the one [`Self::sentence_terms`]' ids are drawn from.
    pub fn index(&self) -> &Bm25Index {
        &self.index
    }

    /// Every chunk's analysed sentences, indexed by chunk id.
    pub fn sentence_terms(&self) -> &SentenceTerms {
        &self.sentences
    }

    /// Adds a document; returns its id.
    pub fn add_document(
        &mut self,
        title: impl Into<String>,
        text: impl Into<String>,
        source: impl Into<String>,
    ) -> DocumentId {
        let id = self.docs.len();
        let text = text.into();
        let mut stream = Vec::new();
        for (i, c) in chunk_sentences(&text, self.chunk_config).into_iter().enumerate() {
            self.index_chunk(&c.text, &mut stream);
            self.chunks.push(StoredChunk {
                id: self.chunks.len(),
                doc_id: id,
                index_in_doc: i,
                text: c.text,
            });
        }
        self.docs.push(Document { id, title: title.into(), text, source: source.into() });
        id
    }

    /// Number of documents.
    pub fn num_documents(&self) -> usize {
        self.docs.len()
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// True when the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Fetches a document.
    pub fn document(&self, id: DocumentId) -> Result<&Document, DocError> {
        self.docs.get(id).ok_or(DocError::UnknownDocument(id))
    }

    /// Fetches a chunk.
    pub fn chunk(&self, id: ChunkId) -> Result<&StoredChunk, DocError> {
        self.chunks.get(id).ok_or(DocError::UnknownChunk(id))
    }

    /// All chunks, in id order.
    pub fn chunks(&self) -> &[StoredChunk] {
        &self.chunks
    }

    /// All documents, in id order.
    pub fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// BM25 search over chunks.
    pub fn search(&self, query: &str, top_k: usize) -> Vec<ChunkHit> {
        self.search_counted(query, top_k).0
    }

    /// [`Self::search`] plus the posting entries it scanned — the per-query
    /// resource-meter accounting (pure function of query and corpus;
    /// independent of `top_k`).
    pub fn search_counted(&self, query: &str, top_k: usize) -> (Vec<ChunkHit>, usize) {
        let (hits, scanned) = self.index.search(query, top_k);
        (hits.into_iter().map(|(chunk_id, score)| ChunkHit { chunk_id, score }).collect(), scanned)
    }

    /// The longest posting list of the inverted index — what the planner
    /// charges one lexical scan.
    pub fn max_posting(&self) -> usize {
        self.index.max_posting()
    }

    /// Approximate resident bytes of the inverted index (for E2): its
    /// postings and document lengths. Neither the chunk text nor the
    /// sentence analysis is counted.
    pub fn index_bytes(&self) -> usize {
        self.index.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DocStore {
        let mut s = DocStore::default();
        s.add_document(
            "q2 report",
            "Q2 sales increased 20 percent. Product Alpha led all categories. \
             Customer satisfaction remained high.",
            "report",
        );
        s.add_document(
            "clinical note",
            "Patient reported severe headaches. Drug A was prescribed at 10mg. \
             Symptoms improved within two weeks.",
            "note",
        );
        s
    }

    #[test]
    fn add_and_fetch() {
        let s = store();
        assert_eq!(s.num_documents(), 2);
        assert!(s.num_chunks() >= 2);
        assert_eq!(s.document(0).unwrap().title, "q2 report");
        assert!(s.document(5).is_err());
    }

    #[test]
    fn chunks_reference_docs() {
        let s = store();
        for c in s.chunks() {
            assert!(c.doc_id < s.num_documents());
            assert!(s
                .document(c.doc_id)
                .unwrap()
                .text
                .contains(c.text.split('.').next().unwrap().trim()));
        }
    }

    #[test]
    fn search_finds_relevant_chunk() {
        let s = store();
        let hits = s.search("sales increase", 5);
        assert!(!hits.is_empty());
        let top = s.chunk(hits[0].chunk_id).unwrap();
        assert_eq!(top.doc_id, 0);
    }

    #[test]
    fn search_medical_query() {
        let s = store();
        let hits = s.search("headache drug prescribed", 5);
        assert!(!hits.is_empty());
        assert_eq!(s.chunk(hits[0].chunk_id).unwrap().doc_id, 1);
    }

    #[test]
    fn search_no_match() {
        let s = store();
        assert!(s.search("zebra xylophone quantum", 5).is_empty());
    }

    #[test]
    fn small_chunks_config() {
        let mut s = DocStore::new(ChunkConfig { max_tokens: 5, overlap_sentences: 0 });
        s.add_document("t", "One two three. Four five six. Seven eight nine.", "x");
        assert!(s.num_chunks() >= 2);
    }

    #[test]
    fn byte_accounting() {
        let s = store();
        assert!(s.index_bytes() > 0);
    }

    #[test]
    fn empty_store() {
        let s = DocStore::default();
        assert!(s.is_empty());
        assert!(s.search("anything", 3).is_empty());
    }
}
