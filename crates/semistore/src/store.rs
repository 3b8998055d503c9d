//! Named collections of JSON documents.

use std::collections::BTreeMap;

use unisem_relstore::Table;

use crate::flatten::{flatten_collection, FlattenError};
use crate::json::JsonValue;

/// Identifier of a document within a collection (insertion order).
pub type DocId = usize;

/// A semi-structured store: named collections of JSON documents.
#[derive(Debug, Clone, Default)]
pub struct SemiStore {
    collections: BTreeMap<String, Vec<JsonValue>>,
}

impl SemiStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a document, creating the collection on first use.
    /// Returns the document's id within the collection.
    pub fn insert(&mut self, collection: &str, doc: JsonValue) -> DocId {
        let coll = self.collections.entry(collection.to_string()).or_default();
        coll.push(doc);
        coll.len() - 1
    }

    /// All collection names, alphabetical.
    pub fn collections(&self) -> Vec<&str> {
        self.collections.keys().map(String::as_str).collect()
    }

    /// Documents in a collection (empty slice if absent).
    pub fn docs(&self, collection: &str) -> &[JsonValue] {
        self.collections.get(collection).map_or(&[], Vec::as_slice)
    }

    /// A single document.
    pub fn doc(&self, collection: &str, id: DocId) -> Option<&JsonValue> {
        self.collections.get(collection)?.get(id)
    }

    /// Total number of documents across collections.
    pub fn len(&self) -> usize {
        self.collections.values().map(Vec::len).sum()
    }

    /// True when the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens a collection to a relational table (see
    /// [`crate::flatten::flatten_collection`]).
    pub fn to_table(&self, collection: &str) -> Result<Table, FlattenError> {
        flatten_collection(self.docs(collection))
    }

    /// Approximate resident bytes (serialized length of all documents).
    pub fn approx_bytes(&self) -> usize {
        self.collections.values().flat_map(|docs| docs.iter()).map(|d| d.to_json().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn store() -> SemiStore {
        let mut s = SemiStore::new();
        s.insert("logs", parse_json(r#"{"level": "info", "code": 200}"#).unwrap());
        s.insert("logs", parse_json(r#"{"level": "error", "code": 500}"#).unwrap());
        s.insert("events", parse_json(r#"{"kind": "click"}"#).unwrap());
        s
    }

    #[test]
    fn insert_and_lookup() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.collections(), vec!["events", "logs"]);
        assert_eq!(s.docs("logs").len(), 2);
        assert!(s.doc("logs", 1).is_some());
        assert!(s.doc("logs", 9).is_none());
        assert!(s.doc("missing", 0).is_none());
    }

    #[test]
    fn to_table_works() {
        let s = store();
        let t = s.to_table("logs").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert!(t.schema().index_of("code").is_some());
    }

    #[test]
    fn approx_bytes_positive() {
        assert!(store().approx_bytes() > 0);
        assert_eq!(SemiStore::new().approx_bytes(), 0);
    }
}
