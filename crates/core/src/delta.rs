//! Typed incremental-ingest deltas, their WAL payload codec, and the
//! prepare/commit pair that applies them (DESIGN.md §13).
//!
//! A [`Delta`] is one logical mutation of the engine's substrates: a new
//! document, a relational row upsert, a semi-structured fragment, or a
//! graph entity/edge. [`UnifiedEngine::ingest_delta`] appends the encoded
//! delta to the write-ahead log before acknowledging it, and recovery
//! replays decoded deltas as idempotent redo operations.
//!
//! Applying a delta has two halves. `prepare` reads the substrates and
//! does everything that can fail — parse and flatten JSON, build and
//! type-check the row, resolve edge endpoints — yielding a `Prepared`
//! delta; `commit` writes it and cannot fail. Live ingest logs between
//! the two, so a rejected delta is never logged and memory is never ahead
//! of the log; WAL replay runs them back to back. Both use this one pair,
//! so a recovered engine's state is the never-crashed engine's state.
//!
//! The codec rides on [`storekit`]'s little-endian `Encoder`/`Decoder`
//! and reuses the snapshot layer's value and edge-kind tag schemes, so a
//! value that round-trips through a snapshot and one that round-trips
//! through the WAL are byte-compatible. Encoding is a pure function of
//! the delta, which is what makes same-seed delta streams produce
//! byte-identical WAL files.
//!
//! [`UnifiedEngine::ingest_delta`]: crate::UnifiedEngine::ingest_delta

use storekit::{Decoder, Encoder};
use unisem_docstore::DocStore;
use unisem_hetgraph::{EdgeKind, GraphBuilder, HetGraph, NodeId};
use unisem_relstore::{CheckedRow, DataType, Database, Table, Value};
use unisem_slm::{EntityKind, Slm};

use crate::snapshot::{decode_value, encode_value, invalid};
use crate::EngineError;

/// One logical mutation of the engine's substrates, as carried by a WAL
/// record.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Add a document to the text substrate: chunked, BM25-indexed and
    /// wired into the graph exactly as at build time.
    DocAdd {
        /// Document title.
        title: String,
        /// Full document text.
        text: String,
        /// Source label (provenance).
        source: String,
    },
    /// Append a row to an existing relational table (native or
    /// flattened). The row must match the table's schema.
    TableRow {
        /// Target table name.
        table: String,
        /// Cell values in schema column order.
        values: Vec<Value>,
    },
    /// Ingest one semi-structured JSON fragment into a collection's
    /// flattened table, mapping leaves onto the existing schema.
    SemiFragment {
        /// Collection name (resolves to its flattened table).
        collection: String,
        /// The fragment as JSON source text.
        json: String,
    },
    /// Add (or re-assert — the graph dedupes) an entity node.
    GraphEntity {
        /// Entity surface name (canonicalized by the graph).
        name: String,
        /// Entity kind.
        kind: EntityKind,
    },
    /// Add an edge between two entity nodes, resolved by canonical name.
    GraphEdge {
        /// First endpoint's entity name.
        a: String,
        /// Second endpoint's entity name.
        b: String,
        /// Edge kind (typically `RelatesTo` or `Temporal`).
        kind: EdgeKind,
    },
}

impl Delta {
    /// Short label for traces and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            Delta::DocAdd { .. } => "doc_add",
            Delta::TableRow { .. } => "table_row",
            Delta::SemiFragment { .. } => "semi_fragment",
            Delta::GraphEntity { .. } => "graph_entity",
            Delta::GraphEdge { .. } => "graph_edge",
        }
    }

    /// Encodes the delta as a WAL record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Delta::DocAdd { title, text, source } => {
                e.u8(0);
                e.str(title);
                e.str(text);
                e.str(source);
            }
            Delta::TableRow { table, values } => {
                e.u8(1);
                e.str(table);
                e.u64(values.len() as u64);
                for v in values {
                    encode_value(&mut e, v);
                }
            }
            Delta::SemiFragment { collection, json } => {
                e.u8(2);
                e.str(collection);
                e.str(json);
            }
            Delta::GraphEntity { name, kind } => {
                e.u8(3);
                e.str(name);
                e.str(kind.label());
            }
            Delta::GraphEdge { a, b, kind } => {
                e.u8(4);
                e.str(a);
                e.str(b);
                encode_edge_kind(&mut e, kind);
            }
        }
        e.into_bytes()
    }

    /// Decodes a WAL record payload back into a delta.
    pub fn decode(bytes: &[u8]) -> Result<Delta, EngineError> {
        let mut d = Decoder::new(bytes);
        let delta = match d.u8().map_err(EngineError::Store)? {
            0 => Delta::DocAdd {
                title: d.str().map_err(EngineError::Store)?,
                text: d.str().map_err(EngineError::Store)?,
                source: d.str().map_err(EngineError::Store)?,
            },
            1 => {
                let table = d.str().map_err(EngineError::Store)?;
                let n = d.count().map_err(EngineError::Store)?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(decode_value(&mut d)?);
                }
                Delta::TableRow { table, values }
            }
            2 => Delta::SemiFragment {
                collection: d.str().map_err(EngineError::Store)?,
                json: d.str().map_err(EngineError::Store)?,
            },
            3 => {
                let name = d.str().map_err(EngineError::Store)?;
                let label = d.str().map_err(EngineError::Store)?;
                let kind = EntityKind::from_label(&label)
                    .ok_or_else(|| invalid(format!("unknown entity kind label '{label}'")))?;
                Delta::GraphEntity { name, kind }
            }
            4 => Delta::GraphEdge {
                a: d.str().map_err(EngineError::Store)?,
                b: d.str().map_err(EngineError::Store)?,
                kind: decode_edge_kind(&mut d)?,
            },
            t => return Err(invalid(format!("unknown delta tag {t}"))),
        };
        if d.remaining() != 0 {
            return Err(invalid(format!(
                "{} bytes of trailing garbage after {} delta",
                d.remaining(),
                delta.label()
            )));
        }
        Ok(delta)
    }
}

/// A delta validated against the substrates it is about to change: what
/// is left to do cannot fail.
#[derive(Debug)]
pub(crate) enum Prepared<'a> {
    /// Chunk, index and graph-link a document.
    Doc { title: &'a str, text: &'a str, source: &'a str },
    /// Append a type-checked row to an existing table.
    Row {
        table: String,
        row: CheckedRow,
        /// Whether the row becomes a graph record (rows of the `extracted`
        /// table repeat chunk facts and stay out, as at build time).
        in_graph: bool,
    },
    /// First fragment of a new collection: its flattened schema becomes
    /// the table.
    NewTable { table: String, rows: Table },
    /// Add (or re-assert) an entity node.
    Entity { name: &'a str, kind: EntityKind },
    /// Add an edge between two resolved, distinct entity nodes.
    Edge { a: NodeId, b: NodeId, kind: &'a EdgeKind },
    /// Graph deltas under the entity-node ablation, matching build time.
    Nothing,
}

/// The fallible, read-only half of applying `delta`.
pub(crate) fn prepare<'a>(
    delta: &'a Delta,
    db: &Database,
    graph: &HetGraph,
    index_entities: bool,
) -> Result<Prepared<'a>, EngineError> {
    Ok(match delta {
        Delta::DocAdd { title, text, source } => Prepared::Doc { title, text, source },
        Delta::TableRow { table, values } => {
            let Ok(t) = db.table(table) else {
                return Err(EngineError::Delta(format!(
                    "table_row targets unknown table '{table}'"
                )));
            };
            Prepared::Row {
                table: table.clone(),
                row: t.check_row(values.clone())?,
                in_graph: table != "extracted",
            }
        }
        Delta::SemiFragment { collection, json } => {
            let doc = unisem_semistore::parse_json(json)?;
            // Flattened collections land as `<coll>` unless a native
            // table shadowed the name at build time (`json_<coll>`).
            let shadowed = format!("json_{collection}");
            let target = if db.has_table(&shadowed) { shadowed } else { collection.clone() };
            let frag = unisem_semistore::flatten_collection(&[doc])?;
            let Ok(t) = db.table(&target) else {
                return Ok(Prepared::NewTable { table: target, rows: frag });
            };
            for col in frag.schema().columns() {
                if t.schema().index_of(&col.name).is_none() {
                    return Err(EngineError::Delta(format!(
                        "fragment path '{}' is not a column of '{target}'",
                        col.name
                    )));
                }
            }
            let row: Vec<Value> = t
                .schema()
                .columns()
                .iter()
                .map(|c| {
                    let v = frag
                        .schema()
                        .index_of(&c.name)
                        .map(|i| frag.cell(0, i).clone())
                        .unwrap_or(Value::Null);
                    // Mirror the flattener: a Str column absorbs any
                    // typed leaf by stringifying it.
                    if !c.dtype.admits(&v) && c.dtype == DataType::Str {
                        Value::str(v.to_string())
                    } else {
                        v
                    }
                })
                .collect();
            Prepared::Row { row: t.check_row(row)?, table: target, in_graph: true }
        }
        Delta::GraphEntity { .. } | Delta::GraphEdge { .. } if !index_entities => Prepared::Nothing,
        Delta::GraphEntity { name, kind } => Prepared::Entity { name, kind: *kind },
        Delta::GraphEdge { a, b, kind } => {
            let endpoint = |name: &str| {
                graph.entity_by_name(name).ok_or_else(|| {
                    EngineError::Delta(format!(
                        "graph_edge endpoint '{name}' is not a known entity"
                    ))
                })
            };
            let (na, nb) = (endpoint(a)?, endpoint(b)?);
            if na == nb {
                return Err(EngineError::Delta(format!(
                    "graph_edge endpoints '{a}' and '{b}' resolve to the same node"
                )));
            }
            Prepared::Edge { a: na, b: nb, kind }
        }
    })
}

/// The infallible half: writes `prepared` into the substrates [`prepare`]
/// checked it against, indexing new chunks and rows into the graph exactly
/// as a build would. Returns the catalog key of the table it touched, if
/// any, so the caller re-collects only that table's statistics.
pub(crate) fn commit(
    prepared: Prepared<'_>,
    docs: &mut DocStore,
    db: &mut Database,
    graph: &mut HetGraph,
    slm: &Slm,
    index_entities: bool,
) -> Option<String> {
    let extend_graph = |graph: &mut HetGraph, index: &dyn Fn(&mut GraphBuilder)| {
        let mut gb = GraphBuilder::resume(slm.clone(), std::mem::take(graph));
        gb.set_index_entities(index_entities);
        index(&mut gb);
        *graph = gb.finish().0;
    };
    match prepared {
        Prepared::Doc { title, text, source } => {
            let from_chunk = docs.num_chunks();
            docs.add_document(title, text, source);
            extend_graph(graph, &|gb| gb.add_docstore_from(docs, from_chunk));
            None
        }
        Prepared::Row { table, row, in_graph } => {
            let Ok(t) = db.append(&table, row) else {
                debug_assert!(false, "prepared a row for missing table '{table}'");
                return None;
            };
            let from_row = t.num_rows() - 1;
            if in_graph {
                extend_graph(graph, &|gb| gb.add_table_rows(&table, t, from_row));
            }
            Some(table.to_lowercase())
        }
        Prepared::NewTable { table, rows } => {
            extend_graph(graph, &|gb| gb.add_table_rows(&table, &rows, 0));
            db.create_or_replace_table(&table, rows);
            Some(table.to_lowercase())
        }
        Prepared::Entity { name, kind } => {
            graph.add_entity(name, kind);
            None
        }
        Prepared::Edge { a, b, kind } => {
            graph.add_edge(a, b, kind.clone());
            None
        }
        Prepared::Nothing => None,
    }
}

// Same tag scheme as the snapshot layer's graph section, so the two
// on-disk formats never disagree about an edge kind.
fn encode_edge_kind(e: &mut Encoder, kind: &EdgeKind) {
    match kind {
        EdgeKind::Mentions => e.u8(0),
        EdgeKind::RelatesTo(v) => {
            e.u8(1);
            e.str(v);
        }
        EdgeKind::Temporal => e.u8(2),
        EdgeKind::BelongsTo => e.u8(3),
        EdgeKind::HasAttribute(a) => {
            e.u8(4);
            e.str(a);
        }
        EdgeKind::NextChunk => e.u8(5),
    }
}

fn decode_edge_kind(d: &mut Decoder<'_>) -> Result<EdgeKind, EngineError> {
    Ok(match d.u8().map_err(EngineError::Store)? {
        0 => EdgeKind::Mentions,
        1 => EdgeKind::RelatesTo(d.str().map_err(EngineError::Store)?),
        2 => EdgeKind::Temporal,
        3 => EdgeKind::BelongsTo,
        4 => EdgeKind::HasAttribute(d.str().map_err(EngineError::Store)?),
        5 => EdgeKind::NextChunk,
        t => return Err(invalid(format!("unknown edge kind tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_relstore::Date;

    fn round_trip(delta: Delta) {
        let bytes = delta.encode();
        let back = Delta::decode(&bytes).unwrap();
        assert_eq!(delta, back);
        // Pure function of the delta: re-encoding is byte-identical.
        assert_eq!(bytes, back.encode());
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Delta::DocAdd {
            title: "q3 report".into(),
            text: "Revenue grew in Q3 2024.".into(),
            source: "finance".into(),
        });
        round_trip(Delta::TableRow {
            table: "sales".into(),
            values: vec![
                Value::str("Aero Widget"),
                Value::Int(7),
                Value::Float(19.5),
                Value::Bool(true),
                Value::Null,
                Value::Date(Date::new(2024, 7, 1).unwrap()),
            ],
        });
        round_trip(Delta::SemiFragment {
            collection: "orders".into(),
            json: r#"{"id": 9, "status": "shipped"}"#.into(),
        });
        round_trip(Delta::GraphEntity { name: "Acme Corp".into(), kind: EntityKind::Organization });
        round_trip(Delta::GraphEdge {
            a: "Acme Corp".into(),
            b: "Aero Widget".into(),
            kind: EdgeKind::RelatesTo("supply".into()),
        });
        round_trip(Delta::GraphEdge {
            a: "a".into(),
            b: "b".into(),
            kind: EdgeKind::HasAttribute("col".into()),
        });
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(Delta::decode(&[]).is_err());
        assert!(Delta::decode(&[99]).is_err());
        assert!(Delta::decode(&[0, 1, 2]).is_err(), "truncated doc_add");
        // Trailing garbage after a valid delta is an error, not ignored.
        let mut bytes =
            Delta::GraphEntity { name: "x".into(), kind: EntityKind::Organization }.encode();
        bytes.push(0);
        assert!(Delta::decode(&bytes).is_err());
    }
}
