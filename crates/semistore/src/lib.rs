//! # unisem-semistore
//!
//! The semi-structured substrate: a self-contained JSON document store.
//!
//! The paper's problem statement (§I) spans "semi-structured formats (e.g.,
//! JSON logs, XML configurations)". This crate provides that modality for
//! JSON, the one semi-structured format the reproduction ingests
//! (DESIGN.md §2):
//!
//! - [`json`]: a JSON value model, parser, and serializer (no external
//!   dependency — see DESIGN.md §2),
//! - [`flatten`]: schema discovery over document collections and conversion
//!   to `unisem-relstore` tables (the bridge that lets semi-structured data
//!   participate in TableQA),
//! - [`store`]: named collections of documents.

pub mod flatten;
pub mod json;
pub mod store;

pub use flatten::{discover_schema, flatten_collection, FlattenError};
pub use json::{parse_json, JsonError, JsonValue};
pub use store::{DocId, SemiStore};
