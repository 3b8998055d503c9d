//! Graph construction from the substrate stores.
//!
//! Implements §III.A's indexing pipeline: "text chunks, named entities, and
//! relational cues … interlinked in a single topological structure", with
//! edges also "encoding relationships such as 'Patient X received Drug Y on
//! Date Z'".
//!
//! Sources:
//! - **Documents** (via [`unisem_docstore::DocStore`]): every chunk becomes
//!   a node; SLM tagging adds entity nodes + `Mentions` edges; verb cues
//!   between co-mentioned entities add `RelatesTo(verb)` edges; date/quarter
//!   mentions add `Temporal` edges; consecutive chunks link by `NextChunk`.
//! - **Relational tables**: a table node, one record node per row with
//!   `BelongsTo`, and `HasAttribute(column)` edges from records to entity
//!   nodes recognized in string cells (plus `Temporal` edges for date
//!   cells).

use unisem_docstore::DocStore;
use unisem_relstore::{DataType, Table, Value};
use unisem_slm::pos::{pos_tag, PosTag};
use unisem_slm::{EntityKind, EntityMention, Slm};
use unisem_text::normalize::stem;
use unisem_text::tokenize::Token;

use crate::graph::{EdgeKind, HetGraph, NodeId};

/// Statistics from a build run (feeds experiment E2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphBuildStats {
    /// Chunks indexed.
    pub chunks: usize,
    /// Entity mentions observed (not deduplicated).
    pub mentions: usize,
    /// Distinct entity nodes created.
    pub entities: usize,
    /// Relational cue edges added.
    pub relation_edges: usize,
    /// Records indexed from tables.
    pub records: usize,
    /// Total nodes in the finished graph (populated by
    /// [`GraphBuilder::finish`]).
    pub nodes: usize,
    /// Total edges in the finished graph (populated by
    /// [`GraphBuilder::finish`]).
    pub edges: usize,
}

/// Incremental graph builder.
#[derive(Debug)]
pub struct GraphBuilder {
    graph: HetGraph,
    slm: Slm,
    stats: GraphBuildStats,
    index_entities: bool,
}

impl GraphBuilder {
    /// Creates a builder using `slm` for tagging.
    pub fn new(slm: Slm) -> Self {
        Self {
            graph: HetGraph::new(),
            slm,
            stats: GraphBuildStats::default(),
            index_entities: true,
        }
    }

    /// Resumes building on an existing graph (incremental ingest and WAL
    /// replay): new chunks, rows, and entities extend `graph` exactly as
    /// if they had been part of the original build, because every graph
    /// mutator dedupes on its logical key.
    pub fn resume(slm: Slm, graph: HetGraph) -> Self {
        Self { graph, slm, stats: GraphBuildStats::default(), index_entities: true }
    }

    /// Ablation switch (DESIGN.md §5 item 2): when disabled, no entity
    /// nodes are created — chunks and records stay unconnected islands and
    /// retrieval degrades to its lexical fallback.
    pub fn set_index_entities(&mut self, enabled: bool) {
        self.index_entities = enabled;
    }

    /// The graph built so far.
    pub fn graph(&self) -> &HetGraph {
        &self.graph
    }

    /// Build statistics so far.
    pub fn stats(&self) -> GraphBuildStats {
        self.stats
    }

    /// Finishes, returning the graph and stats (with the final node and
    /// edge totals filled in).
    pub fn finish(self) -> (HetGraph, GraphBuildStats) {
        let mut stats = self.stats;
        stats.nodes = self.graph.num_nodes();
        stats.edges = self.graph.num_edges();
        (self.graph, stats)
    }

    /// Indexes every chunk of a document store.
    ///
    /// The per-chunk SLM passes (entity tagging + POS tagging) dominate
    /// build cost and are independent, so they fan out across the global
    /// parkit pool; graph mutation then replays sequentially in chunk
    /// order, so node/edge ids are identical to a single-threaded build.
    pub fn add_docstore(&mut self, docs: &DocStore) {
        self.add_docstore_from(docs, 0);
    }

    /// Indexes the chunks of `docs` starting at chunk index `from_chunk` —
    /// the incremental form used by delta ingest and WAL replay. The
    /// `NextChunk` chain continues from the chunk just before the window
    /// when it belongs to the same document, so an incremental extension
    /// produces the same edges as a from-scratch build of the final store.
    pub fn add_docstore_from(&mut self, docs: &DocStore, from_chunk: usize) {
        let all = docs.chunks();
        if from_chunk >= all.len() {
            return;
        }
        let chunks = &all[from_chunk..];
        let tagged: Vec<Option<(Vec<EntityMention>, Vec<(Token, PosTag)>)>> = if self.index_entities
        {
            let slm = &self.slm;
            parkit::global()
                .par_map(chunks, |c| Some((slm.tag_entities(&c.text), pos_tag(&c.text))))
        } else {
            chunks.iter().map(|_| None).collect()
        };
        // (doc_id, chunk node) — seeded from the chunk preceding the
        // window so a resumed build continues the document's chain.
        let mut prev: Option<(usize, NodeId)> = from_chunk
            .checked_sub(1)
            .and_then(|i| all.get(i))
            .and_then(|c| self.graph.chunk_node(c.id).map(|n| (c.doc_id, n)));
        for (chunk, tags) in chunks.iter().zip(tagged) {
            let cnode = self.graph.add_chunk(chunk.id, chunk.doc_id, &chunk.text);
            self.stats.chunks += 1;
            // Chain consecutive chunks of the same document.
            if let Some((prev_doc, prev_node)) = prev {
                if prev_doc == chunk.doc_id {
                    self.graph.add_edge(prev_node, cnode, EdgeKind::NextChunk);
                }
            }
            prev = Some((chunk.doc_id, cnode));
            if let Some((mentions, pos)) = tags {
                self.add_chunk_entities(cnode, mentions, pos);
            }
        }
    }

    /// Wires entity/mention/relation/temporal edges from a chunk's
    /// precomputed tagging.
    fn add_chunk_entities(
        &mut self,
        cnode: NodeId,
        mentions: Vec<EntityMention>,
        tags: Vec<(Token, PosTag)>,
    ) {
        self.stats.mentions += mentions.len();

        // Entity nodes + mention edges. Value-kind entities (dates,
        // quarters, percents) become nodes too — they are the temporal/
        // measurement anchors — but bare quantities are too noisy to index.
        let mut placed: Vec<(NodeId, usize, usize, EntityKind)> = Vec::new();
        for m in &mentions {
            if m.kind == EntityKind::Quantity {
                continue;
            }
            let before = self.graph.num_nodes();
            let enode = self.graph.add_entity(&m.canonical(), m.kind);
            if self.graph.num_nodes() > before {
                self.stats.entities += 1;
            }
            self.graph.add_edge(cnode, enode, EdgeKind::Mentions);
            placed.push((enode, m.start, m.end, m.kind));
        }

        // Relational cues: for consecutive non-value entity pairs, use the
        // verb between them as the relation label.
        let referential: Vec<&(NodeId, usize, usize, EntityKind)> =
            placed.iter().filter(|(_, _, _, k)| !k.is_value()).collect();
        for pair in referential.windows(2) {
            let (a_node, _, a_end, _) = *pair[0];
            let (b_node, b_start, _, _) = *pair[1];
            if a_node == b_node {
                continue;
            }
            let verb = tags
                .iter()
                .find(|(t, p)| *p == PosTag::Verb && t.start >= a_end && t.end <= b_start)
                .map(|(t, _)| stem(&t.lower()));
            if let Some(verb) = verb {
                self.graph.add_edge(a_node, b_node, EdgeKind::RelatesTo(verb));
                self.stats.relation_edges += 1;
            }
        }

        // Temporal edges: every date/quarter entity links to the
        // referential entities in the same chunk.
        let temporal: Vec<NodeId> = placed
            .iter()
            .filter(|(_, _, _, k)| matches!(k, EntityKind::Date | EntityKind::Quarter))
            .map(|(n, _, _, _)| *n)
            .collect();
        for &t in &temporal {
            for r in &referential {
                if r.0 != t {
                    self.graph.add_edge(t, r.0, EdgeKind::Temporal);
                }
            }
        }
    }

    /// Indexes a relational table: table node, record nodes, and attribute
    /// edges to entities recognized in string cells.
    pub fn add_table(&mut self, name: &str, table: &Table) {
        self.add_table_rows(name, table, 0);
    }

    /// Indexes the rows of `table` starting at `from_row` — the
    /// incremental form used by delta ingest and WAL replay. The table
    /// node and any already-indexed rows dedupe, so replaying a prefix is
    /// idempotent.
    pub fn add_table_rows(&mut self, name: &str, table: &Table, from_row: usize) {
        let tnode = self.graph.add_table(name);
        for row in from_row..table.num_rows() {
            let rnode = self.graph.add_record(name, row);
            self.stats.records += 1;
            self.graph.add_edge(rnode, tnode, EdgeKind::BelongsTo);
            if !self.index_entities {
                continue;
            }
            for (col_idx, col) in table.schema().columns().iter().enumerate() {
                let cell = table.cell(row, col_idx);
                match (col.dtype, cell) {
                    (DataType::Str, Value::Str(s)) => {
                        // Link when the tagger recognizes the value as an
                        // entity (lexicon hit or pattern); otherwise the
                        // cell stays table-internal.
                        let tagged = self.slm.tag_entities(s);
                        for m in tagged {
                            if m.kind == EntityKind::Quantity {
                                continue;
                            }
                            let before = self.graph.num_nodes();
                            let enode = self.graph.add_entity(&m.canonical(), m.kind);
                            if self.graph.num_nodes() > before {
                                self.stats.entities += 1;
                            }
                            self.graph.add_edge(
                                rnode,
                                enode,
                                EdgeKind::HasAttribute(col.name.clone()),
                            );
                        }
                    }
                    (DataType::Date, Value::Date(d)) => {
                        let before = self.graph.num_nodes();
                        let enode = self.graph.add_entity(&d.to_string(), EntityKind::Date);
                        if self.graph.num_nodes() > before {
                            self.stats.entities += 1;
                        }
                        self.graph.add_edge(rnode, enode, EdgeKind::Temporal);
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_relstore::{Schema, Table};
    use unisem_slm::{Lexicon, SlmConfig};

    fn slm() -> Slm {
        let lexicon = Lexicon::new().with_entries([
            ("Drug A", EntityKind::Drug),
            ("Drug B", EntityKind::Drug),
            ("Product Alpha", EntityKind::Product),
            ("Patient X", EntityKind::Person),
            ("headache", EntityKind::Condition),
        ]);
        Slm::new(SlmConfig { lexicon, ..SlmConfig::default() })
    }

    fn docs() -> DocStore {
        let mut d = DocStore::default();
        d.add_document(
            "note",
            "Patient X received Drug A in Q1 2024. The headache improved. \
             Drug B was considered but not prescribed.",
            "clinical",
        );
        d.add_document("review", "Product Alpha works well. Product Alpha shipped fast.", "review");
        d
    }

    #[test]
    fn chunks_and_entities_indexed() {
        let mut b = GraphBuilder::new(slm());
        b.add_docstore(&docs());
        let (g, stats) = b.finish();
        assert!(stats.chunks >= 2);
        assert!(stats.entities >= 4);
        assert!(g.entity_by_name("drug a").is_some());
        assert!(g.entity_by_name("product alpha").is_some());
    }

    #[test]
    fn mentions_connect_chunk_to_entity() {
        let mut b = GraphBuilder::new(slm());
        b.add_docstore(&docs());
        let g = b.graph();
        let drug = g.entity_by_name("drug a").unwrap();
        let has_chunk_neighbor = g
            .neighbors(drug)
            .iter()
            .any(|&(n, e)| g.node(n).kind.is_chunk() && g.edge(e).kind == EdgeKind::Mentions);
        assert!(has_chunk_neighbor);
    }

    #[test]
    fn relation_cue_from_verb() {
        let mut b = GraphBuilder::new(slm());
        b.add_docstore(&docs());
        let g = b.graph();
        let patient = g.entity_by_name("patient x").unwrap();
        let related = g.neighbors(patient).iter().any(
            |&(_, e)| matches!(&g.edge(e).kind, EdgeKind::RelatesTo(v) if v.starts_with("receiv")),
        );
        assert!(related, "expected relates_to:receive edge from Patient X");
    }

    #[test]
    fn temporal_edges_to_quarter() {
        let mut b = GraphBuilder::new(slm());
        b.add_docstore(&docs());
        let g = b.graph();
        let q = g.entity_by_name("q1 2024").expect("quarter entity");
        let has_temporal =
            g.neighbors(q).iter().any(|&(_, e)| g.edge(e).kind == EdgeKind::Temporal);
        assert!(has_temporal);
    }

    #[test]
    fn entity_dedup_across_chunks() {
        let mut b = GraphBuilder::new(slm());
        b.add_docstore(&docs());
        let g = b.graph();
        // "Product Alpha" appears twice; one node.
        let count = g
            .entities()
            .filter(|n| matches!(&n.kind, crate::graph::NodeKind::Entity { name, .. } if name == "product alpha"))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn table_records_linked() {
        use unisem_relstore::DataType;
        let mut b = GraphBuilder::new(slm());
        let t = Table::from_rows(
            Schema::of(&[("product", DataType::Str), ("revenue", DataType::Float)]),
            vec![
                vec![Value::str("Product Alpha"), Value::Float(100.0)],
                vec![Value::str("unknown thing"), Value::Float(50.0)],
            ],
        )
        .unwrap();
        b.add_table("sales", &t);
        let (g, stats) = b.finish();
        assert_eq!(stats.records, 2);
        let r0 = g.record_node("sales", 0).unwrap();
        let alpha = g.entity_by_name("product alpha").unwrap();
        let linked = g.neighbors(r0).iter().any(|&(n, e)| {
            n == alpha && matches!(&g.edge(e).kind, EdgeKind::HasAttribute(c) if c == "product")
        });
        assert!(linked);
        // Records belong to the table node.
        let tnode = g.neighbors(r0).iter().any(|&(n, _)| {
            matches!(&g.node(n).kind, crate::graph::NodeKind::Table { name } if name == "sales")
        });
        assert!(tnode);
    }

    #[test]
    fn date_cells_get_temporal_edges() {
        use unisem_relstore::{DataType, Date};
        let mut b = GraphBuilder::new(slm());
        let t = Table::from_rows(
            Schema::of(&[("when", DataType::Date)]),
            vec![vec![Value::Date(Date::new(2024, 3, 5).unwrap())]],
        )
        .unwrap();
        b.add_table("events", &t);
        let g = b.graph();
        let d = g.entity_by_name("2024-03-05").unwrap();
        let r = g.record_node("events", 0).unwrap();
        assert!(g.neighbors(r).iter().any(|&(n, _)| n == d));
    }

    #[test]
    fn cross_modal_connectivity() {
        // A table record and a text chunk naming the same entity end up two
        // hops apart — the cross-modal context §I says traditional systems
        // miss.
        use unisem_relstore::DataType;
        let mut b = GraphBuilder::new(slm());
        b.add_docstore(&docs());
        let t = Table::from_rows(
            Schema::of(&[("drug", DataType::Str)]),
            vec![vec![Value::str("Drug A")]],
        )
        .unwrap();
        b.add_table("trials", &t);
        let g = b.graph();
        let record = g.record_node("trials", 0).unwrap();
        let chunk = g.chunk_node(0).unwrap();
        let linked = |n: NodeId| g.neighbors(n).iter().map(|&(m, _)| m).collect::<Vec<_>>();
        let (from_record, from_chunk) = (linked(record), linked(chunk));
        assert!(
            from_record.iter().any(|n| from_chunk.contains(n)),
            "record -> entity -> chunk: {from_record:?} / {from_chunk:?}"
        );
    }

    #[test]
    fn entity_indexing_ablation() {
        let mut b = GraphBuilder::new(slm());
        b.set_index_entities(false);
        b.add_docstore(&docs());
        let t = Table::from_rows(
            unisem_relstore::Schema::of(&[("drug", unisem_relstore::DataType::Str)]),
            vec![vec![Value::str("Drug A")]],
        )
        .unwrap();
        b.add_table("trials", &t);
        let (g, stats) = b.finish();
        assert_eq!(stats.entities, 0);
        assert!(g.entity_by_name("drug a").is_none());
        assert!(g.entities().count() == 0);
        // Chunks and records still exist (with structural edges only).
        assert!(stats.chunks > 0);
        assert!(g.record_node("trials", 0).is_some());
    }

    #[test]
    fn incremental_build_matches_from_scratch() {
        use unisem_relstore::DataType;
        let table_v1 = Table::from_rows(
            Schema::of(&[("product", DataType::Str)]),
            vec![vec![Value::str("Product Alpha")]],
        )
        .unwrap();
        let mut table_v2 = table_v1.clone();
        table_v2.push_row(vec![Value::str("Drug B")]).unwrap();

        let mut store = DocStore::default();
        store.add_document(
            "note",
            "Patient X received Drug A in Q1 2024. The headache improved.",
            "clinical",
        );

        let indexed_chunks = store.chunks().len();
        let mut extended = store.clone();
        extended.add_document("review", "Product Alpha works well. Drug B shipped.", "review");

        // One builder applies the whole operation sequence...
        let mut cont = GraphBuilder::new(slm());
        cont.add_docstore(&store);
        cont.add_table("sales", &table_v1);
        cont.add_docstore_from(&extended, indexed_chunks);
        cont.add_table_rows("sales", &table_v2, 1);
        let (gi, _) = cont.finish();

        // ...versus a builder that stops after the base build and a second
        // builder resumed on its graph (the WAL-replay path). Same
        // operation order ⇒ identical node/edge id assignment.
        let mut base = GraphBuilder::new(slm());
        base.add_docstore(&store);
        base.add_table("sales", &table_v1);
        let (gbase, _) = base.finish();
        let mut resumed = GraphBuilder::resume(slm(), gbase);
        resumed.add_docstore_from(&extended, indexed_chunks);
        resumed.add_table_rows("sales", &table_v2, 1);
        let (gf, _) = resumed.finish();

        assert_eq!(gi.num_nodes(), gf.num_nodes());
        assert_eq!(gi.num_edges(), gf.num_edges());
        for id in 0..gi.num_nodes() as u32 {
            let id = crate::graph::NodeId(id);
            assert_eq!(gi.node(id).kind, gf.node(id).kind, "node {id:?} diverged");
        }
        for (a, b) in gi.edges().iter().zip(gf.edges()) {
            assert_eq!((a.a, a.b, &a.kind), (b.a, b.b, &b.kind));
        }
    }

    #[test]
    fn next_chunk_chain_within_doc_only() {
        let mut b = GraphBuilder::new(slm());
        let mut d = DocStore::new(unisem_text::ChunkConfig { max_tokens: 4, overlap_sentences: 0 });
        d.add_document("a", "First alpha beta. Second gamma delta.", "x");
        d.add_document("b", "Other document text here.", "x");
        b.add_docstore(&d);
        let g = b.graph();
        let mut next_edges = 0;
        for e in g.edges() {
            if e.kind == EdgeKind::NextChunk {
                next_edges += 1;
                let (a, bnode) = (g.node(e.a), g.node(e.b));
                match (&a.kind, &bnode.kind) {
                    (
                        crate::graph::NodeKind::Chunk { doc_id: d1, .. },
                        crate::graph::NodeKind::Chunk { doc_id: d2, .. },
                    ) => assert_eq!(d1, d2),
                    _ => panic!("next_chunk between non-chunks"),
                }
            }
        }
        assert!(next_edges >= 1);
    }
}
