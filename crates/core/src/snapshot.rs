//! Engine snapshots: byte-stable persistence of a built engine
//! (DESIGN.md §12).
//!
//! A snapshot captures the parts [`crate::EngineBuilder::build`] derives
//! from its inputs — documents and chunks, every relational table (native,
//! flattened, extracted), the heterogeneous graph, and the ingest report —
//! into one `storekit` snapshot file. Reopening skips ingestion,
//! flattening, chunking, extraction and graph construction entirely. What
//! is a pure function of those parts is rebuilt, not stored: each chunk's
//! sentence analysis and BM25 postings (one pass over the chunks, in
//! [`DocStore::from_parts`]), the tables' value indexes (as the tables are
//! registered), the retriever and the parser, from the same seed and
//! lexicon the snapshot records.
//!
//! Byte-identity contract: two engines built from the same inputs with the
//! same seed write byte-identical snapshot files, and an engine reopened
//! from a snapshot answers every query byte-identically to the engine that
//! saved it (`tests/tests/storage.rs` enforces both).
//!
//! Layout: seven named sections hold the length-prefixed encodings
//! below, every one mandatory; none holds anything another derives. The
//! graph is checked against the documents and tables decoded before it:
//! every chunk node names a stored chunk and every record a row of a
//! stored table, so no index the graph rebuilds is sized by an id the
//! other sections do not vouch for.

use std::path::Path;

use faultkit::FaultPlan;
use storekit::{Decoder, Encoder, Snapshot, SnapshotWriter, StoreError};
use unisem_docstore::{DocStore, Document, StoredChunk};
use unisem_hetgraph::{Edge, EdgeKind, HetGraph, NodeId, NodeKind};
use unisem_relstore::{Column, DataType, Database, Date, Schema, Table, Value};
use unisem_slm::{EntityKind, Lexicon};
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
    /// Document store (documents and chunks).
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
    w.add_section("tables", &encode_tables(src.db)?)?;
    w.add_section("graph", &encode_graph(src.graph.nodes(), src.graph.edges()))?;
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
    let db = decode_tables(snap.section("tables")?, snap.section("graph")?.len())?;
    let graph = decode_graph(snap.section("graph")?, chunks_vec.len(), &db)?;
    let ingest = decode_ingest(snap.section("ingest")?)?;
    let applied_seq = decode_walmeta(snap.section("walmeta")?)?;

    let docs = DocStore::from_parts(chunk, docs_vec, chunks_vec);
    Ok(LoadedSnapshot { seed, chunk, lexicon, docs, db, graph, ingest, applied_seq })
}

fn encode_walmeta(applied_seq: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(applied_seq);
    e.into_bytes()
}

fn decode_walmeta(bytes: &[u8]) -> Result<u64, EngineError> {
    let mut d = Decoder::new(bytes);
    let applied_seq = d.u64().map_err(EngineError::Store)?;
    d.finish().map_err(EngineError::Store)?;
    Ok(applied_seq)
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
    d.finish().map_err(EngineError::Store)?;
    Ok((seed, ChunkConfig { max_tokens, overlap_sentences }))
}

fn encode_lexicon(lexicon: &Lexicon) -> Vec<u8> {
    let entries = lexicon.entries();
    let mut e = Encoder::new();
    e.u64(entries.len() as u64);
    for (phrase, kind) in &entries {
        e.str(phrase);
        encode_entity_kind(&mut e, *kind);
    }
    e.into_bytes()
}

fn decode_lexicon(bytes: &[u8]) -> Result<Lexicon, EngineError> {
    let mut d = Decoder::new(bytes);
    let n = d.count().map_err(EngineError::Store)?;
    let mut lexicon = Lexicon::new();
    for _ in 0..n {
        let phrase = d.str().map_err(EngineError::Store)?;
        lexicon.add(&phrase, decode_entity_kind(&mut d)?);
    }
    d.finish().map_err(EngineError::Store)?;
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
    d.finish().map_err(EngineError::Store)?;
    Ok((docs, chunks))
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

/// An entity kind, as its label: the lexicon and graph sections and the
/// WAL's entity deltas all write it so.
pub(crate) fn encode_entity_kind(e: &mut Encoder, kind: EntityKind) {
    e.str(kind.label());
}

pub(crate) fn decode_entity_kind(d: &mut Decoder<'_>) -> Result<EntityKind, EngineError> {
    let label = d.str().map_err(EngineError::Store)?;
    EntityKind::from_label(&label)
        .ok_or_else(|| invalid(format!("unknown entity kind label '{label}'")))
}

/// An edge kind: a tag byte, then the kind's string, if it has one. The
/// graph section and the WAL's edge deltas both write it so.
pub(crate) fn encode_edge_kind(e: &mut Encoder, kind: &EdgeKind) {
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

pub(crate) fn decode_edge_kind(d: &mut Decoder<'_>) -> Result<EdgeKind, EngineError> {
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

fn decode_tables(bytes: &[u8], graph_bytes: usize) -> Result<Database, EngineError> {
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
        // none: each is a record node of the graph, and a node takes at
        // least one byte of the graph section.
        let nrows = if ncols == 0 { d.usize() } else { d.count() }.map_err(EngineError::Store)?;
        if ncols == 0 && nrows > graph_bytes {
            return Err(invalid(format!("zero-column table {name:?} claims {nrows} rows")));
        }
        let mut table = Table::empty(schema);
        for _ in 0..nrows {
            let row = (0..ncols).map(|_| decode_value(&mut d)).collect::<Result<_, _>>()?;
            table.push_row(row)?;
        }
        db.create_table(&name, table)?;
    }
    d.finish().map_err(EngineError::Store)?;
    Ok(db)
}

fn encode_graph(nodes: &[NodeKind], edges: &[Edge]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(nodes.len() as u64);
    for node in nodes {
        match node {
            NodeKind::Chunk { chunk_id } => {
                e.u8(0);
                e.usize(*chunk_id);
            }
            NodeKind::Entity { name, kind } => {
                e.u8(1);
                e.str(name);
                encode_entity_kind(&mut e, *kind);
            }
            NodeKind::Record { table, row } => {
                e.u8(2);
                e.u32(table.0);
                e.usize(*row);
            }
            NodeKind::Table { name } => {
                e.u8(3);
                e.str(name);
            }
        }
    }
    e.u64(edges.len() as u64);
    for edge in edges {
        e.u32(edge.a.0);
        e.u32(edge.b.0);
        encode_edge_kind(&mut e, &edge.kind);
    }
    e.into_bytes()
}

/// Decodes the graph section of a snapshot whose `docs` section holds
/// `nchunks` chunks and whose `tables` section is `db`. A chunk id past
/// `nchunks`, or a record whose table is not in `db` or whose row is past
/// its table's rows, is rejected before the graph sizes an index by it.
fn decode_graph(bytes: &[u8], nchunks: usize, db: &Database) -> Result<HetGraph, EngineError> {
    let mut d = Decoder::new(bytes);
    let nnodes = d.count().map_err(EngineError::Store)?;
    let mut nodes = Vec::with_capacity(nnodes);
    for i in 0..nnodes {
        let node = match d.u8().map_err(EngineError::Store)? {
            0 => {
                let chunk_id = d.usize().map_err(EngineError::Store)?;
                if chunk_id >= nchunks {
                    return Err(invalid(format!("node {i} names chunk {chunk_id} of {nchunks}")));
                }
                NodeKind::Chunk { chunk_id }
            }
            1 => {
                let name = d.str().map_err(EngineError::Store)?;
                NodeKind::Entity { name, kind: decode_entity_kind(&mut d)? }
            }
            2 => {
                let table = NodeId(d.u32().map_err(EngineError::Store)?);
                let row = d.usize().map_err(EngineError::Store)?;
                // A record naming no earlier table node is `from_parts`'s
                // to reject.
                if let Some(NodeKind::Table { name }) = nodes.get(table.0 as usize) {
                    let rows = db.table(name).map_err(|_| {
                        invalid(format!("record {i} names table {name:?}, which is not stored"))
                    })?;
                    if row >= rows.num_rows() {
                        return Err(invalid(format!(
                            "record {i} names row {row} of table {name:?}'s {}",
                            rows.num_rows()
                        )));
                    }
                }
                NodeKind::Record { table, row }
            }
            3 => NodeKind::Table { name: d.str().map_err(EngineError::Store)? },
            t => return Err(invalid(format!("unknown node kind tag {t}"))),
        };
        nodes.push(node);
    }
    let nedges = d.count().map_err(EngineError::Store)?;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let a = NodeId(d.u32().map_err(EngineError::Store)?);
        let b = NodeId(d.u32().map_err(EngineError::Store)?);
        edges.push(Edge { a, b, kind: decode_edge_kind(&mut d)? });
    }
    d.finish().map_err(EngineError::Store)?;
    HetGraph::from_parts(nodes, edges).map_err(invalid)
}

fn encode_ingest(report: &IngestReport) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(report.quarantined.len() as u64);
    for q in &report.quarantined {
        e.str(&q.source);
        // Tag 1 is retired (it named XML documents): never written, and
        // rejected on read.
        let (tag, msg) = match &q.reason {
            QuarantineReason::Json(m) => (0u8, m),
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
            2 => QuarantineReason::Flatten(msg),
            3 => QuarantineReason::Extraction(msg),
            4 => QuarantineReason::InjectedFault(msg),
            t => return Err(invalid(format!("unknown quarantine reason tag {t}"))),
        };
        quarantined.push(Quarantined { source, reason });
    }
    let report = IngestReport {
        quarantined,
        tables: d.usize().map_err(EngineError::Store)?,
        collections_flattened: d.usize().map_err(EngineError::Store)?,
        documents: d.usize().map_err(EngineError::Store)?,
        extracted_rows: d.usize().map_err(EngineError::Store)?,
    };
    d.finish().map_err(EngineError::Store)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, EngineConfig};

    const SECTIONS: [&str; 7] =
        ["config", "lexicon", "docs", "tables", "graph", "ingest", "walmeta"];

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

    /// A graph section whose ids the `docs` and `tables` sections do not
    /// vouch for is `InvalidSnapshot` before the graph sizes an index by
    /// one: a chunk id `usize::MAX` would otherwise ask for a chunk index
    /// of that many slots, and a row `usize::MAX` for as many record slots.
    #[test]
    fn a_graph_naming_ids_the_other_sections_lack_is_rejected() {
        let tmp = |tag: &str| {
            let name = format!("unisem-core-snapshot-{}-{tag}.usk", std::process::id());
            std::env::temp_dir().join(name)
        };
        let (full, forged) = (tmp("ids-full"), tmp("ids-forged"));
        let config = EngineConfig { faults: FaultPlan::disabled(), ..EngineConfig::default() };
        let mut b = EngineBuilder::with_config(Lexicon::new(), config);
        let sales = Table::from_rows(
            Schema::of(&[("amount", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .expect("table");
        b.add_table("sales", sales).expect("fresh");
        b.add_document("news", "Acme Corp launched the Aero Widget.", "news");
        b.build().0.save_snapshot(&full).expect("save");
        let snap = Snapshot::open(&full).expect("open");
        assert_eq!(read_snapshot(&full).expect("clean opens").docs.num_chunks(), 1);

        let table = |name: &str| NodeKind::Table { name: name.into() };
        let record = |row| NodeKind::Record { table: NodeId(0), row };
        let cases = [
            (vec![NodeKind::Chunk { chunk_id: 1 }], "node 0 names chunk 1 of 1".into()),
            (
                vec![NodeKind::Chunk { chunk_id: usize::MAX }],
                format!("node 0 names chunk {} of 1", usize::MAX),
            ),
            (
                vec![table("sales"), record(2)],
                r#"record 1 names row 2 of table "sales"'s 2"#.into(),
            ),
            (
                vec![table("sales"), record(usize::MAX)],
                format!(r#"record 1 names row {} of table "sales"'s 2"#, usize::MAX),
            ),
            (
                vec![table("refunds"), record(0)],
                r#"record 1 names table "refunds", which is not stored"#.into(),
            ),
        ];
        for (nodes, want) in cases {
            let mut w = SnapshotWriter::create(&forged, FaultPlan::disabled()).expect("create");
            for name in SECTIONS {
                match name {
                    "graph" => w.add_section(name, &encode_graph(&nodes, &[])),
                    _ => w.add_section(name, snap.section(name).expect("section")),
                }
                .expect("add");
            }
            w.commit(&forged).expect("commit");
            match read_snapshot(&forged) {
                Err(EngineError::Store(StoreError::InvalidSnapshot(reason))) => {
                    assert_eq!(reason, want)
                }
                Err(other) => panic!("{nodes:?}: expected InvalidSnapshot, got {other}"),
                Ok(_) => panic!("a graph of {nodes:?} opened"),
            }
        }
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&forged).ok();
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

    /// Every live quarantine tag round-trips, and the retired tag 1 (XML
    /// documents, no longer ingested) is a typed error, never a reason.
    #[test]
    fn ingest_section_rejects_the_retired_quarantine_tag() {
        let reasons = [
            QuarantineReason::Json("j".into()),
            QuarantineReason::Flatten("f".into()),
            QuarantineReason::Extraction("e".into()),
            QuarantineReason::InjectedFault("i".into()),
        ];
        let report = IngestReport {
            quarantined: reasons
                .into_iter()
                .map(|reason| Quarantined { source: "s".into(), reason })
                .collect(),
            tables: 1,
            ..IngestReport::default()
        };
        let decoded = decode_ingest(&encode_ingest(&report)).expect("live tags decode");
        assert_eq!(decoded, report);

        let mut e = Encoder::new();
        e.u64(1);
        e.str("json document 'configs:0'");
        e.u8(1);
        e.str("mismatched tag");
        for _ in 0..4 {
            e.usize(0);
        }
        match decode_ingest(&e.into_bytes()) {
            Err(EngineError::Store(StoreError::InvalidSnapshot(msg))) => {
                assert_eq!(msg, "unknown quarantine reason tag 1");
            }
            other => panic!("tag 1 decoded to {other:?}"),
        }
    }
}
