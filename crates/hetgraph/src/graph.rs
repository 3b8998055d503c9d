//! The heterogeneous graph data structure.
//!
//! Arena-style storage: nodes and edges live in `Vec`s addressed by dense
//! ids; adjacency lists store `(neighbor, edge)` pairs in both directions
//! (the graph is logically undirected — traversal relevance, not causality,
//! is what retrieval needs).

use std::collections::HashMap;
use std::fmt;

use unisem_slm::EntityKind;

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Dense edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

/// What a node represents.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A text chunk from the document store.
    Chunk {
        /// Chunk id in the docstore.
        chunk_id: usize,
        /// Owning document id.
        doc_id: usize,
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
        /// Source table/collection name.
        table: String,
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
    /// True for chunk nodes.
    pub fn is_chunk(&self) -> bool {
        matches!(self, NodeKind::Chunk { .. })
    }

    /// True for entity nodes.
    pub fn is_entity(&self) -> bool {
        matches!(self, NodeKind::Entity { .. })
    }

    /// True for record nodes.
    pub fn is_record(&self) -> bool {
        matches!(self, NodeKind::Record { .. })
    }
}

/// A node with its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node id.
    pub id: NodeId,
    /// What the node represents.
    pub kind: NodeKind,
    /// Display label (chunk preview, entity surface form, `table[row]`).
    pub label: String,
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

/// An edge between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Edge id.
    pub id: EdgeId,
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Edge semantics.
    pub kind: EdgeKind,
}

/// Inclusive upper bounds of the degree-histogram buckets; degrees above
/// the last bound share one overflow bucket.
const DEGREE_BOUNDS: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

fn degree_bucket(degree: usize) -> usize {
    DEGREE_BOUNDS.iter().position(|&b| degree <= b).unwrap_or(DEGREE_BOUNDS.len())
}

/// The heterogeneous graph.
#[derive(Debug, Clone, Default)]
pub struct HetGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// adjacency[node] = (neighbor, edge) pairs.
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
    /// Nodes per degree bucket and the largest degree, kept current by
    /// every node and edge insertion (degrees only grow), so the planner's
    /// degree statistics cost O(1) after an incremental delta.
    degree_counts: [usize; DEGREE_BOUNDS.len() + 1],
    max_degree: usize,
    /// (canonical name, kind) → entity node.
    entity_index: HashMap<(String, EntityKind), NodeId>,
    /// canonical name → smallest entity node id with that name (fast path
    /// for kind-agnostic lookup, which retrieval does per query mention).
    entity_by_name_index: HashMap<String, NodeId>,
    /// chunk_id → node.
    chunk_index: HashMap<usize, NodeId>,
    /// (table, row) → node.
    record_index: HashMap<(String, usize), NodeId>,
    /// table name → node.
    table_index: HashMap<String, NodeId>,
    /// Dedup: sorted endpoint pair + kind label → edge, preventing parallel
    /// duplicate edges from repeated mentions.
    edge_dedup: HashMap<(NodeId, NodeId, String), EdgeId>,
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

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges in id order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
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

    /// Maximum node degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Number of entity nodes.
    pub fn num_entities(&self) -> usize {
        self.entity_index.len()
    }

    /// Number of chunk nodes.
    pub fn num_chunks(&self) -> usize {
        self.chunk_index.len()
    }

    /// Number of record nodes.
    pub fn num_records(&self) -> usize {
        self.record_index.len()
    }

    /// Power-of-two degree histogram: `(inclusive upper bound, node count)`
    /// for bounds 1, 2, 4, …, 1024, plus one overflow bucket reported with
    /// bound `usize::MAX`. A pure function of the adjacency, so the planner
    /// statistics built from it are deterministic at any thread count.
    pub fn degree_histogram(&self) -> Vec<(usize, usize)> {
        DEGREE_BOUNDS
            .iter()
            .copied()
            .chain(std::iter::once(usize::MAX))
            .zip(self.degree_counts)
            .collect()
    }

    fn push_node(&mut self, kind: NodeKind, label: String) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind, label });
        self.adjacency.push(Vec::new());
        self.degree_counts[degree_bucket(0)] += 1;
        id
    }

    /// Records `edge` in both endpoints' adjacency lists and moves each
    /// endpoint to its new degree bucket.
    fn link(&mut self, a: NodeId, b: NodeId, edge: EdgeId) {
        for (from, to) in [(a, b), (b, a)] {
            let adj = &mut self.adjacency[from.0 as usize];
            adj.push((to, edge));
            let degree = adj.len();
            self.degree_counts[degree_bucket(degree - 1)] -= 1;
            self.degree_counts[degree_bucket(degree)] += 1;
            self.max_degree = self.max_degree.max(degree);
        }
    }

    /// Adds (or returns the existing) chunk node.
    pub fn add_chunk(&mut self, chunk_id: usize, doc_id: usize, preview: &str) -> NodeId {
        if let Some(&id) = self.chunk_index.get(&chunk_id) {
            return id;
        }
        let label: String = preview.chars().take(60).collect();
        let id = self.push_node(NodeKind::Chunk { chunk_id, doc_id }, label);
        self.chunk_index.insert(chunk_id, id);
        id
    }

    /// Adds (or returns the existing) entity node; names are canonicalized
    /// to lowercase, whitespace-collapsed form.
    pub fn add_entity(&mut self, name: &str, kind: EntityKind) -> NodeId {
        let canon = unisem_slm::ner::canonical_phrase(name);
        if let Some(&id) = self.entity_index.get(&(canon.clone(), kind)) {
            return id;
        }
        let id = self.push_node(NodeKind::Entity { name: canon.clone(), kind }, canon.clone());
        self.entity_index.insert((canon.clone(), kind), id);
        // Keep the smallest id for deterministic kind-agnostic lookup.
        self.entity_by_name_index
            .entry(canon)
            .and_modify(|existing| {
                if id < *existing {
                    *existing = id;
                }
            })
            .or_insert(id);
        id
    }

    /// Adds (or returns the existing) record node.
    pub fn add_record(&mut self, table: &str, row: usize) -> NodeId {
        let key = (table.to_string(), row);
        if let Some(&id) = self.record_index.get(&key) {
            return id;
        }
        let id = self.push_node(
            NodeKind::Record { table: table.to_string(), row },
            format!("{table}[{row}]"),
        );
        self.record_index.insert(key, id);
        id
    }

    /// Adds (or returns the existing) table node.
    pub fn add_table(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.table_index.get(name) {
            return id;
        }
        let id = self.push_node(NodeKind::Table { name: name.to_string() }, name.to_string());
        self.table_index.insert(name.to_string(), id);
        id
    }

    /// Adds an undirected edge (idempotent per endpoint-pair + kind).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, kind: EdgeKind) -> EdgeId {
        assert!(a != b, "self-loops are not allowed");
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dedup_key = (lo, hi, kind.label());
        if let Some(&e) = self.edge_dedup.get(&dedup_key) {
            return e;
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { id, a, b, kind });
        self.link(a, b, id);
        self.edge_dedup.insert(dedup_key, id);
        id
    }

    /// Reassembles a graph from snapshot parts: nodes and edges in id
    /// order, exactly as [`Self::nodes`] / [`Self::edges`] returned them.
    /// Adjacency and every lookup index are rebuilt; entity names are
    /// trusted to be canonical already (they were canonicalized when the
    /// persisted graph was first built) and are NOT re-canonicalized, so
    /// the reassembled graph is structurally identical byte for byte.
    pub fn from_parts(nodes: Vec<Node>, edges: Vec<Edge>) -> Result<Self, String> {
        let mut g = HetGraph { adjacency: vec![Vec::new(); nodes.len()], ..HetGraph::default() };
        g.degree_counts[degree_bucket(0)] = nodes.len();
        for (i, node) in nodes.iter().enumerate() {
            if node.id.0 as usize != i {
                return Err(format!("node {} stored at position {i}", node.id.0));
            }
            match &node.kind {
                NodeKind::Chunk { chunk_id, .. } => {
                    g.chunk_index.insert(*chunk_id, node.id);
                }
                NodeKind::Entity { name, kind } => {
                    g.entity_index.insert((name.clone(), *kind), node.id);
                    g.entity_by_name_index.entry(name.clone()).or_insert(node.id);
                }
                NodeKind::Record { table, row } => {
                    g.record_index.insert((table.clone(), *row), node.id);
                }
                NodeKind::Table { name } => {
                    g.table_index.insert(name.clone(), node.id);
                }
            }
        }
        g.nodes = nodes;
        for (i, edge) in edges.iter().enumerate() {
            if edge.id.0 as usize != i {
                return Err(format!("edge {} stored at position {i}", edge.id.0));
            }
            let (a, b) = (edge.a.0 as usize, edge.b.0 as usize);
            if a >= g.nodes.len() || b >= g.nodes.len() {
                return Err(format!("edge {i} references missing node"));
            }
            g.link(edge.a, edge.b, edge.id);
            let (lo, hi) = if edge.a <= edge.b { (edge.a, edge.b) } else { (edge.b, edge.a) };
            g.edge_dedup.insert((lo, hi, edge.kind.label()), edge.id);
        }
        g.edges = edges;
        Ok(g)
    }

    /// Looks up an entity node by canonical name (any kind); when several
    /// kinds share the name, the smallest node id wins (deterministic).
    pub fn entity_by_name(&self, name: &str) -> Option<NodeId> {
        let canon = unisem_slm::ner::canonical_phrase(name);
        self.entity_by_name_index.get(&canon).copied()
    }

    /// All entity nodes.
    pub fn entities(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes.iter().filter(|n| n.kind.is_entity())
    }

    /// Looks up a chunk node by docstore chunk id.
    pub fn chunk_node(&self, chunk_id: usize) -> Option<NodeId> {
        self.chunk_index.get(&chunk_id).copied()
    }

    /// Looks up a record node.
    pub fn record_node(&self, table: &str, row: usize) -> Option<NodeId> {
        self.record_index.get(&(table.to_string(), row)).copied()
    }

    /// Approximate resident bytes (nodes + edges + adjacency + indexes).
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize =
            self.nodes.iter().map(|n| std::mem::size_of::<Node>() + n.label.len()).sum();
        let edge_bytes = self.edges.len() * std::mem::size_of::<Edge>();
        let adj_bytes: usize =
            self.adjacency.iter().map(|a| a.len() * std::mem::size_of::<(NodeId, EdgeId)>()).sum();
        let index_bytes = self.entity_index.len() * 48
            + self.chunk_index.len() * 24
            + self.record_index.len() * 48;
        node_bytes + edge_bytes + adj_bytes + index_bytes
    }
}

impl fmt::Display for HetGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HetGraph({} nodes, {} edges, {} entities)",
            self.num_nodes(),
            self.num_edges(),
            self.entity_index.len()
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
        let c1 = g.add_chunk(7, 0, "preview text");
        let c2 = g.add_chunk(7, 0, "different preview");
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
        let c = g.add_chunk(0, 0, "text");
        assert_eq!(g.chunk_node(0), Some(c));
        let r = g.add_record("t", 1);
        assert_eq!(g.record_node("t", 1), Some(r));
        assert_eq!(g.record_node("t", 2), None);
    }

    #[test]
    fn neighbors_list_both_sides() {
        let mut g = HetGraph::new();
        let c = g.add_chunk(0, 0, "chunk");
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
    fn entities_iterator_and_display() {
        let mut g = HetGraph::new();
        g.add_entity("a", EntityKind::Product);
        g.add_chunk(0, 0, "x");
        assert_eq!(g.entities().count(), 1);
        assert!(g.to_string().contains("2 nodes"));
    }

    #[test]
    fn degree_statistics_maintained_on_insert_equal_a_recount() {
        let mut g = HetGraph::new();
        let hub = g.add_entity("hub", EntityKind::Product);
        for i in 0..40 {
            let c = g.add_chunk(i, 0, "chunk");
            g.add_edge(c, hub, EdgeKind::Mentions);
            if i % 3 == 0 {
                let r = g.add_record("t", i);
                g.add_edge(r, c, EdgeKind::Temporal);
            }
        }
        g.add_table("isolated");
        let recount = |g: &HetGraph| {
            let mut counts = vec![0usize; DEGREE_BOUNDS.len() + 1];
            for id in 0..g.num_nodes() {
                counts[degree_bucket(g.degree(NodeId(id as u32)))] += 1;
            }
            counts
        };
        let maintained: Vec<usize> = g.degree_histogram().iter().map(|&(_, n)| n).collect();
        assert_eq!(maintained, recount(&g));
        assert_eq!(g.max_degree(), 40);
        assert_eq!((g.num_entities(), g.num_chunks(), g.num_records()), (1, 40, 14));

        let rebuilt = HetGraph::from_parts(g.nodes().to_vec(), g.edges().to_vec()).unwrap();
        assert_eq!(rebuilt.degree_histogram(), g.degree_histogram());
        assert_eq!(rebuilt.max_degree(), g.max_degree());
        assert_eq!(rebuilt.num_records(), g.num_records());
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
