//! Engine snapshots: byte-stable persistence of a built engine
//! (DESIGN.md §12).
//!
//! A snapshot captures everything [`crate::EngineBuilder::build`] derives
//! from its inputs — documents and chunks, the BM25 inverted index, every
//! relational table (native, flattened, extracted), the heterogeneous
//! graph, and the ingest report — into one `storekit` snapshot file.
//! Reopening skips ingestion, flattening, extraction, and graph
//! construction entirely; only the cheap derived structures are rebuilt:
//! the tables' value indexes (as the tables are registered), the planner's
//! statistics catalog (read from the substrates' maintained totals), the
//! retriever and the parser, from the same seed and lexicon the snapshot
//! records.
//!
//! Byte-identity contract: two engines built from the same inputs with the
//! same seed write byte-identical snapshot files, and an engine reopened
//! from a snapshot answers every query byte-identically to the engine that
//! saved it (`tests/tests/storage.rs` enforces both).
//!
//! Layout: ten named sections hold the length-prefixed encodings
//! below, every one mandatory. The two keyed collections are sorted
//! `(key, value)` lists: `bm25.postings` (term → postings list) and
//! `graph.entities` (canonical entity name → node id, which load-time
//! verification checks against the reassembled graph).

use std::collections::BTreeMap;
use std::path::Path;

use faultkit::FaultPlan;
use storekit::{Decoder, Encoder, Snapshot, SnapshotWriter, StoreError};
use unisem_docstore::{DocStore, Document, StoredChunk};
use unisem_hetgraph::{Edge, EdgeId, EdgeKind, HetGraph, Node, NodeId, NodeKind};
use unisem_relstore::{Column, DataType, Database, Date, Schema, Table, Value};
use unisem_slm::{EntityKind, Lexicon};
use unisem_text::bm25::{Bm25Index, Bm25Params};
use unisem_text::ChunkConfig;

use crate::ingest::{IngestReport, QuarantineReason, Quarantined};
use crate::EngineError;

/// Everything the writer serializes, borrowed from the live engine.
pub(crate) struct SnapshotSource<'a> {
    /// Engine seed (drives every stochastic path on reopen).
    pub seed: u64,
    /// Chunking configuration the documents were ingested with.
    pub chunk: ChunkConfig,
    /// Domain lexicon (canonical phrase → entity kind).
    pub lexicon: &'a Lexicon,
    /// Document store (documents, chunks, BM25 index).
    pub docs: &'a DocStore,
    /// Relational catalog (native + flattened + extracted tables).
    pub db: &'a Database,
    /// The heterogeneous graph.
    pub graph: &'a HetGraph,
    /// The build's ingest report.
    pub ingest: &'a IngestReport,
    /// Highest WAL sequence number folded into this snapshot (0 when the
    /// engine never ingested a delta). Recovery replays only records with
    /// a higher sequence number.
    pub applied_seq: u64,
}

/// Everything the reader reassembles from a snapshot file.
pub(crate) struct LoadedSnapshot {
    pub seed: u64,
    pub chunk: ChunkConfig,
    pub lexicon: Lexicon,
    pub docs: DocStore,
    pub db: Database,
    pub graph: HetGraph,
    pub ingest: IngestReport,
    pub applied_seq: u64,
}

pub(crate) fn invalid(msg: impl Into<String>) -> EngineError {
    EngineError::Store(StoreError::InvalidSnapshot(msg.into()))
}

/// Writes a full engine snapshot to `path` (atomically, via `<path>.tmp`).
pub(crate) fn write_snapshot(
    path: &Path,
    faults: FaultPlan,
    src: &SnapshotSource<'_>,
) -> Result<(), EngineError> {
    let mut w = SnapshotWriter::create(path, faults)?;
    w.add_section("config", &encode_config(src))?;
    w.add_section("lexicon", &encode_lexicon(src.lexicon))?;
    w.add_section("docs", &encode_docs(src.docs))?;
    w.add_section("bm25meta", &encode_bm25_meta(src.docs.index()))?;
    w.add_section("bm25.postings", &encode_postings(src.docs.index()))?;
    w.add_section("tables", &encode_tables(src.db)?)?;
    w.add_section("graph", &encode_graph(src.graph))?;
    w.add_section("graph.entities", &encode_entity_index(src.graph))?;
    w.add_section("ingest", &encode_ingest(src.ingest))?;
    w.add_section("walmeta", &encode_walmeta(src.applied_seq))?;
    w.commit(path)?;
    Ok(())
}

/// Opens `path` and reassembles every persisted substrate.
pub(crate) fn read_snapshot(path: &Path) -> Result<LoadedSnapshot, EngineError> {
    let snap = Snapshot::open(path)?;
    let (seed, chunk) = decode_config(snap.section("config")?)?;
    let lexicon = decode_lexicon(snap.section("lexicon")?)?;
    let (docs_vec, chunks_vec) = decode_docs(snap.section("docs")?)?;
    let (params, doc_lens) = decode_bm25_meta(snap.section("bm25meta")?)?;
    let postings = decode_postings(snap.section("bm25.postings")?)?;
    let db = decode_tables(snap.section("tables")?)?;
    let graph = decode_graph(snap.section("graph")?)?;
    let ingest = decode_ingest(snap.section("ingest")?)?;
    let applied_seq = decode_walmeta(snap.section("walmeta")?)?;

    let index = Bm25Index::from_parts(params, postings, doc_lens);
    let docs = DocStore::from_parts(chunk, docs_vec, chunks_vec, index);
    if docs.num_chunks() != docs.index().len() {
        return Err(invalid(format!(
            "snapshot chunk count {} disagrees with BM25 document count {}",
            docs.num_chunks(),
            docs.index().len()
        )));
    }
    verify_entity_index(snap.section("graph.entities")?, &graph)?;

    Ok(LoadedSnapshot { seed, chunk, lexicon, docs, db, graph, ingest, applied_seq })
}

fn encode_postings(index: &Bm25Index) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(index.postings().len() as u64);
    for (term, posts) in index.postings() {
        e.str(term);
        e.u64(posts.len() as u64);
        for &(doc, tf) in posts {
            e.usize(doc);
            e.u32(tf);
        }
    }
    e.into_bytes()
}

fn decode_postings(bytes: &[u8]) -> Result<BTreeMap<String, Vec<(usize, u32)>>, EngineError> {
    let mut d = Decoder::new(bytes);
    let nterms = d.count().map_err(EngineError::Store)?;
    let mut postings: BTreeMap<String, Vec<(usize, u32)>> = BTreeMap::new();
    for _ in 0..nterms {
        let term = d.str().map_err(EngineError::Store)?;
        if postings.last_key_value().is_some_and(|(prev, _)| *prev >= term) {
            return Err(invalid(format!("bm25 posting term '{term}' is out of order")));
        }
        let n = d.count().map_err(EngineError::Store)?;
        let mut posts = Vec::with_capacity(n);
        for _ in 0..n {
            let doc = d.usize().map_err(EngineError::Store)?;
            let tf = d.u32().map_err(EngineError::Store)?;
            posts.push((doc, tf));
        }
        postings.insert(term, posts);
    }
    Ok(postings)
}

/// The secondary entity index: canonical name → node id, sorted by name.
fn encode_entity_index(graph: &HetGraph) -> Vec<u8> {
    let mut entries: Vec<(&str, NodeId)> = Vec::new();
    for node in graph.nodes() {
        if let NodeKind::Entity { name, .. } = &node.kind {
            // First node wins, matching `HetGraph::entity_by_name` (which
            // resolves by smallest node id for duplicate surface names).
            if graph.entity_by_name(name) == Some(node.id) {
                entries.push((name, node.id));
            }
        }
    }
    entries.sort_unstable();
    let mut e = Encoder::new();
    e.u64(entries.len() as u64);
    for (name, id) in entries {
        e.str(name);
        e.u32(id.0);
    }
    e.into_bytes()
}

/// Every persisted (name → node) entry must resolve identically through
/// the reassembled graph.
fn verify_entity_index(bytes: &[u8], graph: &HetGraph) -> Result<(), EngineError> {
    let mut d = Decoder::new(bytes);
    let n = d.count().map_err(EngineError::Store)?;
    for _ in 0..n {
        let name = d.str().map_err(EngineError::Store)?;
        let id = d.u32().map_err(EngineError::Store)?;
        if graph.entity_by_name(&name) != Some(NodeId(id)) {
            return Err(invalid(format!(
                "entity index entry '{name}' -> node {id} does not resolve in the \
                 reassembled graph"
            )));
        }
    }
    Ok(())
}

fn encode_walmeta(applied_seq: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(applied_seq);
    e.into_bytes()
}

fn decode_walmeta(bytes: &[u8]) -> Result<u64, EngineError> {
    let mut d = Decoder::new(bytes);
    d.u64().map_err(EngineError::Store)
}

fn encode_config(src: &SnapshotSource<'_>) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(src.seed);
    e.usize(src.chunk.max_tokens);
    e.usize(src.chunk.overlap_sentences);
    e.into_bytes()
}

fn decode_config(bytes: &[u8]) -> Result<(u64, ChunkConfig), EngineError> {
    let mut d = Decoder::new(bytes);
    let seed = d.u64().map_err(EngineError::Store)?;
    let max_tokens = d.usize().map_err(EngineError::Store)?;
    let overlap_sentences = d.usize().map_err(EngineError::Store)?;
    Ok((seed, ChunkConfig { max_tokens, overlap_sentences }))
}

fn encode_lexicon(lexicon: &Lexicon) -> Vec<u8> {
    let entries = lexicon.entries();
    let mut e = Encoder::new();
    e.u64(entries.len() as u64);
    for (phrase, kind) in &entries {
        e.str(phrase);
        e.str(kind.label());
    }
    e.into_bytes()
}

fn decode_lexicon(bytes: &[u8]) -> Result<Lexicon, EngineError> {
    let mut d = Decoder::new(bytes);
    let n = d.count().map_err(EngineError::Store)?;
    let mut lexicon = Lexicon::new();
    for _ in 0..n {
        let phrase = d.str().map_err(EngineError::Store)?;
        let label = d.str().map_err(EngineError::Store)?;
        let kind = EntityKind::from_label(&label)
            .ok_or_else(|| invalid(format!("unknown entity kind label '{label}'")))?;
        lexicon.add(&phrase, kind);
    }
    Ok(lexicon)
}

fn encode_docs(docs: &DocStore) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(docs.num_documents() as u64);
    for doc in docs.documents() {
        e.usize(doc.id);
        e.str(&doc.title);
        e.str(&doc.text);
        e.str(&doc.source);
    }
    e.u64(docs.num_chunks() as u64);
    for c in docs.chunks() {
        e.usize(c.id);
        e.usize(c.doc_id);
        e.usize(c.index_in_doc);
        e.str(&c.text);
    }
    e.into_bytes()
}

fn decode_docs(bytes: &[u8]) -> Result<(Vec<Document>, Vec<StoredChunk>), EngineError> {
    let mut d = Decoder::new(bytes);
    let ndocs = d.count().map_err(EngineError::Store)?;
    let mut docs = Vec::with_capacity(ndocs);
    for i in 0..ndocs {
        let id = d.usize().map_err(EngineError::Store)?;
        if id != i {
            return Err(invalid(format!("document {i} persisted with id {id}")));
        }
        let title = d.str().map_err(EngineError::Store)?;
        let text = d.str().map_err(EngineError::Store)?;
        let source = d.str().map_err(EngineError::Store)?;
        docs.push(Document { id, title, text, source });
    }
    let nchunks = d.count().map_err(EngineError::Store)?;
    let mut chunks = Vec::with_capacity(nchunks);
    for i in 0..nchunks {
        let id = d.usize().map_err(EngineError::Store)?;
        if id != i {
            return Err(invalid(format!("chunk {i} persisted with id {id}")));
        }
        let doc_id = d.usize().map_err(EngineError::Store)?;
        if doc_id >= ndocs {
            return Err(invalid(format!("chunk {i} references unknown document {doc_id}")));
        }
        let index_in_doc = d.usize().map_err(EngineError::Store)?;
        let text = d.str().map_err(EngineError::Store)?;
        chunks.push(StoredChunk { id, doc_id, index_in_doc, text });
    }
    Ok((docs, chunks))
}

fn encode_bm25_meta(index: &Bm25Index) -> Vec<u8> {
    let params = index.params();
    let mut e = Encoder::new();
    e.f64(params.k1);
    e.f64(params.b);
    e.u64(index.doc_lens().len() as u64);
    for &len in index.doc_lens() {
        e.usize(len);
    }
    e.into_bytes()
}

fn decode_bm25_meta(bytes: &[u8]) -> Result<(Bm25Params, Vec<usize>), EngineError> {
    let mut d = Decoder::new(bytes);
    let k1 = d.f64().map_err(EngineError::Store)?;
    let b = d.f64().map_err(EngineError::Store)?;
    let n = d.count().map_err(EngineError::Store)?;
    let mut doc_lens = Vec::with_capacity(n);
    for _ in 0..n {
        doc_lens.push(d.usize().map_err(EngineError::Store)?);
    }
    Ok((Bm25Params { k1, b }, doc_lens))
}

pub(crate) fn encode_value(e: &mut Encoder, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Bool(b) => {
            e.u8(1);
            e.bool(*b);
        }
        Value::Int(i) => {
            e.u8(2);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(3);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(4);
            e.str(s);
        }
        Value::Date(date) => {
            e.u8(5);
            e.i64(i64::from(date.year));
            e.u8(date.month);
            e.u8(date.day);
        }
    }
}

pub(crate) fn decode_value(d: &mut Decoder<'_>) -> Result<Value, EngineError> {
    Ok(match d.u8().map_err(EngineError::Store)? {
        0 => Value::Null,
        1 => Value::Bool(d.bool().map_err(EngineError::Store)?),
        2 => Value::Int(d.i64().map_err(EngineError::Store)?),
        3 => Value::Float(d.f64().map_err(EngineError::Store)?),
        4 => Value::Str(d.str().map_err(EngineError::Store)?),
        5 => {
            let year = d.i64().map_err(EngineError::Store)?;
            let year = i32::try_from(year).map_err(|_| invalid("date year out of range"))?;
            let month = d.u8().map_err(EngineError::Store)?;
            let day = d.u8().map_err(EngineError::Store)?;
            let date = Date::new(year, month, day)
                .ok_or_else(|| invalid(format!("invalid date {year}-{month}-{day}")))?;
            Value::Date(date)
        }
        t => return Err(invalid(format!("unknown value tag {t}"))),
    })
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Date => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType, EngineError> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Date,
        t => return Err(invalid(format!("unknown data type tag {t}"))),
    })
}

fn encode_tables(db: &Database) -> Result<Vec<u8>, EngineError> {
    let mut names: Vec<String> = db.table_names().into_iter().map(String::from).collect();
    names.sort_unstable();
    let mut e = Encoder::new();
    e.u64(names.len() as u64);
    for name in &names {
        let table = db.table(name)?;
        e.str(name);
        e.u64(table.schema().columns().len() as u64);
        for col in table.schema().columns() {
            e.str(&col.name);
            e.u8(dtype_tag(col.dtype));
        }
        e.u64(table.num_rows() as u64);
        for row in table.rows() {
            for v in &row {
                encode_value(&mut e, v);
            }
        }
    }
    Ok(e.into_bytes())
}

fn decode_tables(bytes: &[u8]) -> Result<Database, EngineError> {
    let mut d = Decoder::new(bytes);
    let ntables = d.count().map_err(EngineError::Store)?;
    let mut db = Database::new();
    for _ in 0..ntables {
        let name = d.str().map_err(EngineError::Store)?;
        let ncols = d.count().map_err(EngineError::Store)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let col_name = d.str().map_err(EngineError::Store)?;
            let dtype = dtype_from_tag(d.u8().map_err(EngineError::Store)?)?;
            columns.push(Column::new(col_name, dtype));
        }
        let schema = Schema::new(columns)?;
        // A row takes at least one byte per column, so its count is bounded
        // by the bytes left — except a zero-column table's, whose rows take
        // none; nothing is allocated by that count.
        let nrows = if ncols == 0 { d.usize() } else { d.count() }.map_err(EngineError::Store)?;
        let mut table = Table::empty(schema);
        for _ in 0..nrows {
            let row = (0..ncols).map(|_| decode_value(&mut d)).collect::<Result<_, _>>()?;
            table.push_row(row)?;
        }
        db.create_table(&name, table)?;
    }
    Ok(db)
}

fn encode_graph(graph: &HetGraph) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(graph.num_nodes() as u64);
    for node in graph.nodes() {
        e.u32(node.id.0);
        match &node.kind {
            NodeKind::Chunk { chunk_id, doc_id } => {
                e.u8(0);
                e.usize(*chunk_id);
                e.usize(*doc_id);
            }
            NodeKind::Entity { name, kind } => {
                e.u8(1);
                e.str(name);
                e.str(kind.label());
            }
            NodeKind::Record { table, row } => {
                e.u8(2);
                e.str(table);
                e.usize(*row);
            }
            NodeKind::Table { name } => {
                e.u8(3);
                e.str(name);
            }
        }
        e.str(&node.label);
    }
    e.u64(graph.num_edges() as u64);
    for edge in graph.edges() {
        e.u32(edge.id.0);
        e.u32(edge.a.0);
        e.u32(edge.b.0);
        match &edge.kind {
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
    e.into_bytes()
}

fn decode_graph(bytes: &[u8]) -> Result<HetGraph, EngineError> {
    let mut d = Decoder::new(bytes);
    let nnodes = d.count().map_err(EngineError::Store)?;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        let id = NodeId(d.u32().map_err(EngineError::Store)?);
        let kind = match d.u8().map_err(EngineError::Store)? {
            0 => {
                let chunk_id = d.usize().map_err(EngineError::Store)?;
                let doc_id = d.usize().map_err(EngineError::Store)?;
                NodeKind::Chunk { chunk_id, doc_id }
            }
            1 => {
                let name = d.str().map_err(EngineError::Store)?;
                let label = d.str().map_err(EngineError::Store)?;
                let kind = EntityKind::from_label(&label)
                    .ok_or_else(|| invalid(format!("unknown entity kind label '{label}'")))?;
                NodeKind::Entity { name, kind }
            }
            2 => {
                let table = d.str().map_err(EngineError::Store)?;
                let row = d.usize().map_err(EngineError::Store)?;
                NodeKind::Record { table, row }
            }
            3 => NodeKind::Table { name: d.str().map_err(EngineError::Store)? },
            t => return Err(invalid(format!("unknown node kind tag {t}"))),
        };
        let label = d.str().map_err(EngineError::Store)?;
        nodes.push(Node { id, kind, label });
    }
    let nedges = d.count().map_err(EngineError::Store)?;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let id = EdgeId(d.u32().map_err(EngineError::Store)?);
        let a = NodeId(d.u32().map_err(EngineError::Store)?);
        let b = NodeId(d.u32().map_err(EngineError::Store)?);
        let kind = match d.u8().map_err(EngineError::Store)? {
            0 => EdgeKind::Mentions,
            1 => EdgeKind::RelatesTo(d.str().map_err(EngineError::Store)?),
            2 => EdgeKind::Temporal,
            3 => EdgeKind::BelongsTo,
            4 => EdgeKind::HasAttribute(d.str().map_err(EngineError::Store)?),
            5 => EdgeKind::NextChunk,
            t => return Err(invalid(format!("unknown edge kind tag {t}"))),
        };
        edges.push(Edge { id, a, b, kind });
    }
    HetGraph::from_parts(nodes, edges).map_err(invalid)
}

fn encode_ingest(report: &IngestReport) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(report.quarantined.len() as u64);
    for q in &report.quarantined {
        e.str(&q.source);
        let (tag, msg) = match &q.reason {
            QuarantineReason::Json(m) => (0u8, m),
            QuarantineReason::Xml(m) => (1, m),
            QuarantineReason::Flatten(m) => (2, m),
            QuarantineReason::Extraction(m) => (3, m),
            QuarantineReason::InjectedFault(m) => (4, m),
        };
        e.u8(tag);
        e.str(msg);
    }
    e.usize(report.tables);
    e.usize(report.collections_flattened);
    e.usize(report.documents);
    e.usize(report.extracted_rows);
    e.into_bytes()
}

fn decode_ingest(bytes: &[u8]) -> Result<IngestReport, EngineError> {
    let mut d = Decoder::new(bytes);
    let nquar = d.count().map_err(EngineError::Store)?;
    let mut quarantined = Vec::with_capacity(nquar);
    for _ in 0..nquar {
        let source = d.str().map_err(EngineError::Store)?;
        let tag = d.u8().map_err(EngineError::Store)?;
        let msg = d.str().map_err(EngineError::Store)?;
        let reason = match tag {
            0 => QuarantineReason::Json(msg),
            1 => QuarantineReason::Xml(msg),
            2 => QuarantineReason::Flatten(msg),
            3 => QuarantineReason::Extraction(msg),
            4 => QuarantineReason::InjectedFault(msg),
            t => return Err(invalid(format!("unknown quarantine reason tag {t}"))),
        };
        quarantined.push(Quarantined { source, reason });
    }
    Ok(IngestReport {
        quarantined,
        tables: d.usize().map_err(EngineError::Store)?,
        collections_flattened: d.usize().map_err(EngineError::Store)?,
        documents: d.usize().map_err(EngineError::Store)?,
        extracted_rows: d.usize().map_err(EngineError::Store)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, EngineConfig};

    const SECTIONS: [&str; 10] = [
        "config",
        "lexicon",
        "docs",
        "bm25meta",
        "bm25.postings",
        "tables",
        "graph",
        "graph.entities",
        "ingest",
        "walmeta",
    ];

    /// Copies a real snapshot section by section, leaving one out each
    /// time: the reader names the missing section instead of defaulting it.
    #[test]
    fn every_section_is_mandatory() {
        let tmp = |tag: &str| {
            let name = format!("unisem-core-snapshot-{}-{tag}.usk", std::process::id());
            std::env::temp_dir().join(name)
        };
        let (full, partial) = (tmp("full"), tmp("partial"));
        let lexicon = Lexicon::new().with_entries([("Aero Widget", EntityKind::Product)]);
        let config = EngineConfig { faults: FaultPlan::disabled(), ..EngineConfig::default() };
        let mut b = EngineBuilder::with_config(lexicon, config);
        b.add_document("news", "Acme Corp launched the Aero Widget.", "news");
        b.build().0.save_snapshot(&full).expect("save");
        assert!(read_snapshot(&full).is_ok());

        let snap = Snapshot::open(&full).expect("open");
        for omitted in SECTIONS {
            let mut w = SnapshotWriter::create(&partial, FaultPlan::disabled()).expect("create");
            for name in SECTIONS.into_iter().filter(|name| *name != omitted) {
                w.add_section(name, snap.section(name).expect("section")).expect("add");
            }
            w.commit(&partial).expect("commit");
            match read_snapshot(&partial) {
                Err(EngineError::Store(StoreError::InvalidSnapshot(reason))) => {
                    assert_eq!(reason, format!("no section {omitted:?}"));
                }
                Err(other) => panic!("without {omitted}: expected InvalidSnapshot, got {other}"),
                Ok(_) => panic!("a snapshot without {omitted} loaded"),
            }
        }
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&partial).ok();
    }

    /// A collection of `{}` documents flattens to a zero-column table that
    /// still has rows, and those rows encode to no bytes: as the last
    /// table of its section, its row count has nothing after it to be
    /// bounded by, and it must still round-trip.
    #[test]
    fn zero_column_table_round_trips() {
        let path = std::env::temp_dir()
            .join(format!("unisem-core-snapshot-{}-zero-columns.usk", std::process::id()));
        let config = EngineConfig { faults: FaultPlan::disabled(), ..EngineConfig::default() };
        let mut b = EngineBuilder::with_config(Lexicon::new(), config);
        for _ in 0..3 {
            b.add_json("zz", unisem_semistore::parse_json("{}").expect("json"));
        }
        let engine = b.build().0;
        assert_eq!(engine.db().table_names().last(), Some(&"zz"));
        engine.save_snapshot(&path).expect("save");
        let loaded = read_snapshot(&path).expect("open");
        let table = loaded.db.table("zz").expect("table");
        assert_eq!((table.num_columns(), table.num_rows()), (0, 3));
        std::fs::remove_file(&path).ok();
    }
}
