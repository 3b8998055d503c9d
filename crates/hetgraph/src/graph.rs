//! The heterogeneous graph data structure.
//!
//! Arena-style storage: nodes and edges live in `Vec`s addressed by dense
//! ids; adjacency lists store `(neighbor, edge)` pairs in both directions
//! (the graph is logically undirected — traversal relevance, not causality,
//! is what retrieval needs).

#[expect(clippy::disallowed_types, reason = "HetGraph's lookup indexes, below")]
use std::collections::HashMap;
use std::fmt;

use unisem_slm::ner::canonical_phrase;
use unisem_slm::EntityKind;

use crate::entities::EntityTable;

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Dense edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

/// What a node represents. A node's id is its position in the graph's
/// node list; it stores nothing another structure already holds.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A text chunk from the document store (which holds its document id).
    Chunk {
        /// Chunk id in the docstore.
        chunk_id: usize,
    },
    /// A named entity (deduplicated by canonical name + kind).
    Entity {
        /// Canonical (lowercased) name.
        name: String,
        /// Entity class.
        kind: EntityKind,
    },
    /// A row of a relational table or flattened JSON collection.
    Record {
        /// The node of the row's table, which holds its name.
        table: NodeId,
        /// Row index within the table.
        row: usize,
    },
    /// A whole relational table / collection.
    Table {
        /// Table name.
        name: String,
    },
}

impl NodeKind {
    /// True for entity nodes.
    pub fn is_entity(&self) -> bool {
        matches!(self, NodeKind::Entity { .. })
    }
}

/// Edge semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeKind {
    /// A chunk (or record) mentions an entity.
    Mentions,
    /// An inferred relation between two entities, labeled with the cue verb
    /// ("purchased", "prescribed", …).
    RelatesTo(String),
    /// Temporal association (entity/chunk ↔ date or quarter entity).
    Temporal,
    /// A record belongs to its table.
    BelongsTo,
    /// A record has an attribute equal to an entity's value
    /// (`sales[3] --has_attr--> product alpha`).
    HasAttribute(String),
    /// Two chunks are adjacent in the same document.
    NextChunk,
}

impl EdgeKind {
    /// Traversal weight: lower = stronger connection (used as edge length
    /// in weighted traversal). Mentions and attributes are the strongest
    /// signals; adjacency is weakest.
    pub fn traversal_cost(&self) -> f64 {
        match self {
            EdgeKind::Mentions => 1.0,
            EdgeKind::HasAttribute(_) => 1.0,
            EdgeKind::RelatesTo(_) => 1.2,
            EdgeKind::BelongsTo => 1.5,
            EdgeKind::Temporal => 1.5,
            EdgeKind::NextChunk => 2.0,
        }
    }

    /// Short label for rendering.
    pub fn label(&self) -> String {
        match self {
            EdgeKind::Mentions => "mentions".to_string(),
            EdgeKind::RelatesTo(v) => format!("relates_to:{v}"),
            EdgeKind::Temporal => "temporal".to_string(),
            EdgeKind::BelongsTo => "belongs_to".to_string(),
            EdgeKind::HasAttribute(a) => format!("has_attr:{a}"),
            EdgeKind::NextChunk => "next_chunk".to_string(),
        }
    }
}

/// An edge between two nodes; its id is its position in the edge list.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Edge semantics.
    pub kind: EdgeKind,
}

/// A table's node and its record nodes, by row.
#[derive(Debug, Clone)]
struct TableNodes {
    node: NodeId,
    records: Vec<Option<NodeId>>,
}

/// The heterogeneous graph.
#[derive(Debug, Clone, Default)]
#[expect(clippy::disallowed_types, reason = "lookup-only indexes: probed by key, never iterated")]
pub struct HetGraph {
    /// nodes[id] = what node `id` represents.
    nodes: Vec<NodeKind>,
    /// edges[id] = edge `id`'s endpoints and kind.
    edges: Vec<Edge>,
    /// adjacency[node] = (neighbor, edge) pairs: the one edge index.
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
    /// chunks[chunk id] = the chunk's node.
    chunks: Vec<Option<NodeId>>,
    /// canonical name → the first (smallest) entity node with that name.
    entities: HashMap<String, NodeId>,
    /// (first entity node of a name, kind) → the node of that name and a
    /// kind other than the first node's.
    entity_kinds: HashMap<(NodeId, EntityKind), NodeId>,
    /// table name → the table's node and its record nodes.
    tables: HashMap<String, TableNodes>,
    /// Chunk nodes, counted as they are added.
    num_chunks: usize,
    /// The referential entities by label length and label word, for anchor
    /// linking; derived from the nodes, never persisted.
    referential: EntityTable,
}

/// The slot of `i` in `slots`, which grows to hold it.
fn slot(slots: &mut Vec<Option<NodeId>>, i: usize) -> &mut Option<NodeId> {
    if slots.len() <= i {
        slots.resize(i + 1, None);
    }
    &mut slots[i]
}

impl HetGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in id order: node `i` is `nodes()[i]`.
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// All edges in id order: edge `i` is `edges()[i]`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0 as usize]
    }

    /// Edge accessor.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// Neighbors of a node with connecting edges.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adjacency[id.0 as usize]
    }

    /// Degree of a node.
    pub fn degree(&self, id: NodeId) -> usize {
        self.adjacency[id.0 as usize].len()
    }

    /// Number of entity nodes.
    pub fn num_entities(&self) -> usize {
        self.entities.len() + self.entity_kinds.len()
    }

    /// Number of chunk nodes.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Number of record nodes.
    pub fn num_records(&self) -> usize {
        // Every other node is a chunk, an entity or a table.
        self.nodes.len() - self.num_chunks - self.num_entities() - self.tables.len()
    }

    /// Returns the node `node` dedups to, or adds it and enters it in the
    /// index of its kind. A record's table node must already be in the
    /// graph.
    fn add(&mut self, node: NodeKind) -> NodeId {
        let next = NodeId(self.nodes.len() as u32);
        let HetGraph { nodes, chunks, entities, entity_kinds, tables, .. } = self;
        let id = match &node {
            NodeKind::Chunk { chunk_id } => *slot(chunks, *chunk_id).get_or_insert(next),
            NodeKind::Entity { name, kind } => match entities.get(name.as_str()) {
                Some(&first) if nodes[first.0 as usize] == node => first,
                Some(&first) => *entity_kinds.entry((first, *kind)).or_insert(next),
                None => *entities.entry(name.clone()).or_insert(next),
            },
            NodeKind::Record { table, row } => {
                let records = match nodes.get(table.0 as usize) {
                    Some(NodeKind::Table { name }) => tables.get_mut(name.as_str()),
                    _ => None,
                };
                records.map_or(next, |t| *slot(&mut t.records, *row).get_or_insert(next))
            }
            NodeKind::Table { name } => {
                tables
                    .entry(name.clone())
                    .or_insert(TableNodes { node: next, records: Vec::new() })
                    .node
            }
        };
        if id != next {
            return id;
        }
        match &node {
            NodeKind::Chunk { .. } => self.num_chunks += 1,
            NodeKind::Entity { name, kind } if kind.is_referential() => {
                self.referential.insert(id, name)
            }
            _ => {}
        }
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        id
    }

    /// Records `edge` in both endpoints' adjacency lists.
    fn link(&mut self, a: NodeId, b: NodeId, edge: EdgeId) {
        self.adjacency[a.0 as usize].push((b, edge));
        self.adjacency[b.0 as usize].push((a, edge));
    }

    /// Adds (or returns the existing) chunk node.
    pub fn add_chunk(&mut self, chunk_id: usize) -> NodeId {
        self.add(NodeKind::Chunk { chunk_id })
    }

    /// Adds (or returns the existing) entity node; names are canonicalized
    /// to lowercase, whitespace-collapsed form.
    pub fn add_entity(&mut self, name: &str, kind: EntityKind) -> NodeId {
        self.add(NodeKind::Entity { name: canonical_phrase(name), kind })
    }

    /// Adds (or returns the existing) record node, after its table's node.
    pub fn add_record(&mut self, table: &str, row: usize) -> NodeId {
        let table = self.add_table(table);
        self.add(NodeKind::Record { table, row })
    }

    /// Adds (or returns the existing) table node.
    pub fn add_table(&mut self, name: &str) -> NodeId {
        match self.tables.get(name) {
            Some(t) => t.node,
            None => self.add(NodeKind::Table { name: name.to_string() }),
        }
    }

    /// The edge of `kind` between `a` and `b`, found in the lower-degree
    /// endpoint's adjacency.
    fn find_edge(&self, a: NodeId, b: NodeId, kind: &EdgeKind) -> Option<EdgeId> {
        let (near, far) = if self.degree(a) <= self.degree(b) { (a, b) } else { (b, a) };
        self.adjacency[near.0 as usize]
            .iter()
            .find(|&&(n, e)| n == far && self.edges[e.0 as usize].kind == *kind)
            .map(|&(_, e)| e)
    }

    /// Adds an undirected edge, or returns the one of the same kind between
    /// the same endpoints.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, kind: EdgeKind) -> EdgeId {
        assert!(a != b, "self-loops are not allowed");
        if let Some(e) = self.find_edge(a, b, &kind) {
            return e;
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { a, b, kind });
        self.link(a, b, id);
        id
    }

    /// Reassembles a graph from snapshot parts: nodes and edges in id
    /// order, exactly as [`Self::nodes`] / [`Self::edges`] returned them.
    /// Adjacency, every lookup index and the referential-entity table are
    /// rebuilt; entity names are trusted to be canonical already (they
    /// were canonicalized when the persisted graph was first built) and
    /// are NOT re-canonicalized, so the reassembled graph is structurally
    /// identical byte for byte. Parts no sequence of `add_*` calls makes
    /// are an `Err`: a node whose chunk id, (name, kind), table name or
    /// (table, row) an earlier node has, a record whose table is not an
    /// earlier table node, and an edge that is a self-loop, names a
    /// missing node or repeats an earlier edge's endpoints and kind.
    ///
    /// A chunk id sizes the chunk index and a row its table's record
    /// index, so the caller bounds them: the snapshot reader checks each
    /// against the chunks and rows it decoded before it calls this.
    pub fn from_parts(nodes: Vec<NodeKind>, edges: Vec<Edge>) -> Result<Self, String> {
        let mut g = HetGraph {
            nodes: Vec::with_capacity(nodes.len()),
            adjacency: Vec::with_capacity(nodes.len()),
            ..HetGraph::default()
        };
        for (i, node) in nodes.into_iter().enumerate() {
            if let NodeKind::Record { table, .. } = node {
                if !matches!(g.nodes.get(table.0 as usize), Some(NodeKind::Table { .. })) {
                    return Err(format!("record {i} names node {}, no earlier table", table.0));
                }
            }
            let id = g.add(node);
            if id.0 as usize != i {
                return Err(format!("node {i} repeats an earlier node's key: {:?}", g.node(id)));
            }
        }
        g.edges = edges;
        for i in 0..g.edges.len() {
            let Edge { a, b, ref kind } = g.edges[i];
            if a.0 as usize >= g.nodes.len() || b.0 as usize >= g.nodes.len() {
                return Err(format!("edge {i} references missing node"));
            }
            if a == b {
                return Err(format!("edge {i} is a self-loop"));
            }
            if g.find_edge(a, b, kind).is_some() {
                return Err(format!("edge {i} repeats an earlier edge"));
            }
            g.link(a, b, EdgeId(i as u32));
        }
        Ok(g)
    }

    /// Looks up an entity node by canonical name (any kind); when several
    /// kinds share the name, the smallest node id wins (deterministic).
    pub fn entity_by_name(&self, name: &str) -> Option<NodeId> {
        self.entities.get(canonical_phrase(name).as_str()).copied()
    }

    /// The referential entities ([`EntityKind::is_referential`]) by label
    /// length and label word, kept current by [`Self::add_entity`] and
    /// rebuilt by [`Self::from_parts`].
    pub fn referential_entities(&self) -> &EntityTable {
        &self.referential
    }

    /// Looks up a chunk node by docstore chunk id.
    pub fn chunk_node(&self, chunk_id: usize) -> Option<NodeId> {
        self.chunks.get(chunk_id).copied().flatten()
    }

    /// Approximate resident bytes: nodes with the names entity and table
    /// nodes own, edges, adjacency, the lookup indexes (48 B per name-keyed
    /// entry, 16 B per (node, kind) entry, one `Option<NodeId>` per chunk
    /// slot and per record, whose rows every build numbers densely) and the
    /// referential-entity table.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                NodeKind::Entity { name, .. } | NodeKind::Table { name } => name.len(),
                NodeKind::Chunk { .. } | NodeKind::Record { .. } => 0,
            })
            .sum::<usize>()
            + self.nodes.len() * std::mem::size_of::<NodeKind>();
        let edge_bytes = self.edges.len() * std::mem::size_of::<Edge>();
        let adj_bytes: usize =
            self.adjacency.iter().map(|a| a.len() * std::mem::size_of::<(NodeId, EdgeId)>()).sum();
        let index_bytes = (self.entities.len() + self.tables.len()) * 48
            + self.entity_kinds.len() * 16
            + (self.chunks.len() + self.num_records()) * std::mem::size_of::<Option<NodeId>>();
        node_bytes + edge_bytes + adj_bytes + index_bytes + self.referential.approx_bytes()
    }
}

impl fmt::Display for HetGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HetGraph({} nodes, {} edges, {} entities)",
            self.num_nodes(),
            self.num_edges(),
            self.num_entities()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_nodes_dedup() {
        let mut g = HetGraph::new();
        let a = g.add_entity("Drug A", EntityKind::Drug);
        let b = g.add_entity("drug  a", EntityKind::Drug);
        assert_eq!(a, b);
        assert_eq!(g.num_nodes(), 1);
        let c = g.add_entity("drug a", EntityKind::Product);
        assert_ne!(a, c, "different kinds are distinct nodes");
    }

    #[test]
    fn chunk_and_record_dedup() {
        let mut g = HetGraph::new();
        let c1 = g.add_chunk(7);
        let c2 = g.add_chunk(7);
        assert_eq!(c1, c2);
        let r1 = g.add_record("sales", 3);
        let r2 = g.add_record("sales", 3);
        assert_eq!(r1, r2);
        assert_ne!(g.add_record("sales", 4), r1);
    }

    #[test]
    fn edges_are_undirected_and_deduped() {
        let mut g = HetGraph::new();
        let a = g.add_entity("x", EntityKind::Product);
        let b = g.add_entity("y", EntityKind::Product);
        let e1 = g.add_edge(a, b, EdgeKind::Mentions);
        let e2 = g.add_edge(b, a, EdgeKind::Mentions);
        assert_eq!(e1, e2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.degree(b), 1);
        // Different kind between same endpoints is a separate edge.
        let e3 = g.add_edge(a, b, EdgeKind::Temporal);
        assert_ne!(e1, e3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = HetGraph::new();
        let a = g.add_entity("x", EntityKind::Product);
        g.add_edge(a, a, EdgeKind::Mentions);
    }

    #[test]
    fn lookups() {
        let mut g = HetGraph::new();
        let a = g.add_entity("Product Alpha", EntityKind::Product);
        assert_eq!(g.entity_by_name("product alpha"), Some(a));
        assert_eq!(g.entity_by_name("missing"), None);
        let c = g.add_chunk(0);
        assert_eq!(g.chunk_node(0), Some(c));
        let r = g.add_record("t", 1);
        assert_eq!(g.add_record("t", 1), r, "one node per record");
        assert_ne!(g.add_record("t", 2), r);
    }

    #[test]
    fn neighbors_list_both_sides() {
        let mut g = HetGraph::new();
        let c = g.add_chunk(0);
        let e = g.add_entity("x", EntityKind::Product);
        g.add_edge(c, e, EdgeKind::Mentions);
        assert_eq!(g.neighbors(c)[0].0, e);
        assert_eq!(g.neighbors(e)[0].0, c);
    }

    #[test]
    fn traversal_costs_ordered() {
        assert!(EdgeKind::Mentions.traversal_cost() < EdgeKind::NextChunk.traversal_cost());
        assert!(
            EdgeKind::RelatesTo("bought".into()).traversal_cost()
                < EdgeKind::Temporal.traversal_cost()
        );
    }

    #[test]
    fn labels_render() {
        assert_eq!(EdgeKind::Mentions.label(), "mentions");
        assert_eq!(EdgeKind::RelatesTo("bought".into()).label(), "relates_to:bought");
        assert_eq!(EdgeKind::HasAttribute("price".into()).label(), "has_attr:price");
    }

    #[test]
    fn node_kinds_and_display() {
        let mut g = HetGraph::new();
        g.add_entity("a", EntityKind::Product);
        g.add_chunk(0);
        assert_eq!(g.nodes().iter().filter(|n| n.is_entity()).count(), 1);
        assert!(g.to_string().contains("2 nodes"));
    }

    #[test]
    fn degree_statistics_maintained_on_insert_equal_a_recount() {
        let mut g = HetGraph::new();
        let hub = g.add_entity("hub", EntityKind::Product);
        for i in 0..40 {
            let c = g.add_chunk(i);
            g.add_edge(c, hub, EdgeKind::Mentions);
            if i % 3 == 0 {
                let r = g.add_record("t", i);
                g.add_edge(r, c, EdgeKind::Temporal);
            }
        }
        let isolated = g.add_table("isolated");
        let degrees = |g: &HetGraph| -> Vec<usize> {
            (0..g.num_nodes()).map(|i| g.degree(NodeId(i as u32))).collect()
        };
        let maintained = degrees(&g);
        let recount = g.edges().iter().fold(vec![0; g.num_nodes()], |mut d, e| {
            d[e.a.0 as usize] += 1;
            d[e.b.0 as usize] += 1;
            d
        });
        assert_eq!(maintained, recount);
        assert_eq!((g.degree(hub), g.degree(isolated)), (40, 0));
        assert_eq!((g.num_entities(), g.num_chunks(), g.num_records()), (1, 40, 14));

        let rebuilt = HetGraph::from_parts(g.nodes().to_vec(), g.edges().to_vec()).unwrap();
        assert_eq!(degrees(&rebuilt), maintained);
        assert_eq!(rebuilt.num_records(), g.num_records());
    }

    #[test]
    fn a_record_reopens_only_after_its_table_node() {
        let mut g = HetGraph::new();
        let record = g.add_record("sales", 3);
        let table = g.add_table("sales");
        assert!(table < record, "add_record adds the table node first");
        assert_eq!(g.node(record), &NodeKind::Record { table, row: 3 });
        let [t, r] = [table, record].map(|id| g.node(id).clone());
        assert!(HetGraph::from_parts(vec![t.clone(), r.clone()], Vec::new()).is_ok());

        let entity = NodeKind::Entity { name: "sales".into(), kind: EntityKind::Other };
        // Absent, after the record, and an entity where the table was.
        for (nodes, at) in [(vec![r.clone()], 0), (vec![r.clone(), t], 0), (vec![entity, r], 1)] {
            let err = HetGraph::from_parts(nodes, Vec::new()).unwrap_err();
            assert_eq!(err, format!("record {at} names node 0, no earlier table"));
        }
    }

    /// The error `from_parts` returns for `nodes` without edges.
    fn reopen_err(nodes: Vec<NodeKind>) -> String {
        HetGraph::from_parts(nodes, Vec::new()).unwrap_err()
    }

    #[test]
    fn two_chunk_nodes_with_one_chunk_id_do_not_reopen() {
        let chunk = NodeKind::Chunk { chunk_id: 4 };
        let err = reopen_err(vec![chunk.clone(), NodeKind::Chunk { chunk_id: 5 }, chunk]);
        assert_eq!(err, "node 2 repeats an earlier node's key: Chunk { chunk_id: 4 }");
    }

    #[test]
    fn two_entity_nodes_with_one_name_and_kind_do_not_reopen() {
        let entity = |kind| NodeKind::Entity { name: "drug a".into(), kind };
        let (drug, product) = (entity(EntityKind::Drug), entity(EntityKind::Product));
        assert!(HetGraph::from_parts(vec![drug.clone(), product], Vec::new()).is_ok());
        let err = reopen_err(vec![drug.clone(), drug]);
        assert!(err.starts_with("node 1 repeats an earlier node's key: Entity"), "{err}");
    }

    #[test]
    fn two_table_nodes_with_one_name_do_not_reopen() {
        let table = NodeKind::Table { name: "sales".into() };
        let err = reopen_err(vec![table.clone(), table]);
        assert_eq!(err, r#"node 1 repeats an earlier node's key: Table { name: "sales" }"#);
    }

    #[test]
    fn two_records_with_one_table_and_row_do_not_reopen() {
        let table = NodeKind::Table { name: "sales".into() };
        let row = |row| NodeKind::Record { table: NodeId(0), row };
        assert!(HetGraph::from_parts(vec![table.clone(), row(1), row(2)], Vec::new()).is_ok());
        let err = reopen_err(vec![table, row(1), row(1)]);
        assert_eq!(
            err,
            "node 2 repeats an earlier node's key: Record { table: NodeId(0), row: 1 }"
        );
    }

    #[test]
    fn a_self_loop_or_a_repeated_edge_does_not_reopen() {
        let nodes = vec![NodeKind::Chunk { chunk_id: 0 }, NodeKind::Chunk { chunk_id: 1 }];
        let edge = |a, b, kind| Edge { a: NodeId(a), b: NodeId(b), kind };
        let (next, temporal) = (EdgeKind::NextChunk, EdgeKind::Temporal);
        let two_kinds = vec![edge(0, 1, next.clone()), edge(1, 0, temporal)];
        assert!(HetGraph::from_parts(nodes.clone(), two_kinds).is_ok());
        let reopen = |edges| HetGraph::from_parts(nodes.clone(), edges).unwrap_err();
        let self_loop = reopen(vec![edge(0, 1, next.clone()), edge(1, 1, next.clone())]);
        assert_eq!(self_loop, "edge 1 is a self-loop");
        let repeated = reopen(vec![edge(0, 1, next.clone()), edge(1, 0, next)]);
        assert_eq!(repeated, "edge 1 repeats an earlier edge");
    }

    #[test]
    fn approx_bytes_grows() {
        let mut g = HetGraph::new();
        let b0 = g.approx_bytes();
        let a = g.add_entity("some entity", EntityKind::Product);
        let b = g.add_entity("other entity", EntityKind::Product);
        g.add_edge(a, b, EdgeKind::Mentions);
        assert!(g.approx_bytes() > b0);
    }
}
