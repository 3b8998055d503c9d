//! # unisem-text
//!
//! Text analytics substrate for the `unisem` system.
//!
//! This crate provides the deterministic, dependency-free natural-language
//! plumbing every other crate builds on:
//!
//! - [`tokenize`](mod@tokenize): span-preserving word/number/punctuation tokenization,
//! - [`sentence`]: sentence boundary detection,
//! - [`chunk`]: sentence-aligned sliding-window chunking for indexing,
//! - [`distinct`]: repeated texts mapped onto their distinct values,
//! - [`normalize`]: case folding, a Porter-style stemmer, and a stopword list,
//! - [`ngram`]: character n-gram extraction,
//! - [`similarity`]: Jaro-Winkler / cosine measures,
//! - [`bm25`]: an Okapi BM25 scorer over tokenized documents.
//!
//! Everything here is pure and deterministic: no randomness, no clocks, no
//! global state, which is what makes the experiment harness reproducible.

pub mod bm25;
pub mod chunk;
pub mod distinct;
pub mod ngram;
pub mod normalize;
pub mod sentence;
pub mod similarity;
pub mod tokenize;

pub use bm25::Bm25Index;
pub use chunk::{chunk_sentences, Chunk, ChunkConfig};
pub use distinct::distinct_ids;
pub use normalize::{is_stopword, normalize_token, stem};
pub use sentence::split_sentences;
pub use similarity::jaro_winkler;
pub use tokenize::{tokenize, tokenize_words, Token, TokenKind};
