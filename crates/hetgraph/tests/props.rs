//! Property-based tests: graph invariants and algorithm laws (detkit
//! harness).

use std::collections::BTreeMap;

use detkit::prop::{usizes, vec_of, zip, zip3, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_hetgraph::algo::{pagerank, personalized_pagerank};
use unisem_hetgraph::{Edge, EdgeId, EdgeKind, EntityTable, HetGraph, NodeId, NodeKind};
use unisem_slm::EntityKind;

/// Builds a graph from an edge list over `n` entity nodes.
fn graph_from(n: usize, edges: &[(usize, usize)]) -> HetGraph {
    let mut g = HetGraph::new();
    let ids: Vec<NodeId> =
        (0..n).map(|i| g.add_entity(&format!("n{i}"), EntityKind::Other)).collect();
    for &(a, b) in edges {
        let (a, b) = (ids[a % n], ids[b % n]);
        if a != b {
            g.add_edge(a, b, EdgeKind::Mentions);
        }
    }
    g
}

fn arb_graph() -> Gen<HetGraph> {
    usizes(2, 19).flat_map(|&n| {
        vec_of(&zip(&usizes(0, n - 1), &usizes(0, n - 1)), 0, 40)
            .map(move |edges| graph_from(n, edges))
    })
}

// Handshake lemma: Σ degree = 2 · |E|.
prop_check!(handshake, arb_graph(), |g| {
    let total: usize = (0..g.num_nodes()).map(|i| g.degree(NodeId(i as u32))).sum();
    prop_assert_eq!(total, 2 * g.num_edges());
    Ok(())
});

// PageRank is a probability distribution and non-negative.
prop_check!(pagerank_distribution, arb_graph(), |g| {
    let pr = pagerank(g, 0.85, 40);
    prop_assert_eq!(pr.len(), g.num_nodes());
    prop_assert!(pr.iter().all(|&p| p >= 0.0));
    let sum: f64 = pr.iter().sum();
    prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
    Ok(())
});

// Personalized PageRank gives zero mass to nodes unreachable from the
// seed's component.
prop_check!(ppr_confined_to_component, arb_graph(), |g| {
    let seed = NodeId(0);
    let ppr = personalized_pagerank(g, &[seed], 0.85, 40);
    // The seed's component, by breadth-first search.
    let mut reached = vec![false; g.num_nodes()];
    let mut frontier = vec![seed];
    reached[0] = true;
    while let Some(node) = frontier.pop() {
        for &(next, _) in g.neighbors(node) {
            if !std::mem::replace(&mut reached[next.0 as usize], true) {
                frontier.push(next);
            }
        }
    }
    for (i, &mass) in ppr.iter().enumerate() {
        if !reached[i] {
            prop_assert_eq!(mass, 0.0, "node {} outside seed component", i);
        }
    }
    Ok(())
});

/// Entity names: non-ASCII ones, one holding a word twice, names sharing
/// words, and names that canonicalize alike ("Drug  A" is "drug a").
const NAMES: &[&str] =
    &["Drug A", "drug  a", "Drug B", "Café Crème", "Bora Bora", "crème", "a", "Q2 2024", "sales"];

/// Every entity kind: referential, value and metric.
const KINDS: &[EntityKind] = &[
    EntityKind::Person,
    EntityKind::Product,
    EntityKind::Drug,
    EntityKind::Location,
    EntityKind::Quarter,
    EntityKind::Money,
    EntityKind::Metric,
    EntityKind::Other,
];

/// A script of insertions: `(0, name, kind)` adds an entity, `(1, i, _)`
/// a chunk (so entity ids are not contiguous), `(2, a, b)` an edge between
/// the `a`-th and `b`-th nodes so far.
fn scripts() -> Gen<Vec<(usize, usize, usize)>> {
    vec_of(&zip3(&usizes(0, 2), &usizes(0, NAMES.len() - 1), &usizes(0, KINDS.len() - 1)), 0, 40)
}

fn run(script: &[(usize, usize, usize)]) -> HetGraph {
    let mut g = HetGraph::new();
    for (i, &(op, a, b)) in script.iter().enumerate() {
        match op {
            0 => {
                g.add_entity(NAMES[a], KINDS[b]);
            }
            1 => {
                g.add_chunk(i);
            }
            _ if g.num_nodes() > 1 => {
                let (a, b) = (a % g.num_nodes(), b % g.num_nodes());
                if a != b {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), EdgeKind::Mentions);
                }
            }
            _ => {}
        }
    }
    g
}

/// The referential-entity table as a walk over `nodes()` builds it:
/// `(char length, id, name)` in (length, id) order, and each name word's
/// ids in ascending order, each once.
type TableRows = (Vec<(usize, NodeId, String)>, BTreeMap<String, Vec<NodeId>>);

fn rebuilt_from_entities(g: &HetGraph) -> TableRows {
    let referential: Vec<(NodeId, &str)> = g
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match n {
            NodeKind::Entity { name, kind } if kind.is_referential() => {
                Some((NodeId(i as u32), name.as_str()))
            }
            _ => None,
        })
        .collect();
    let mut labels: Vec<_> = referential
        .iter()
        .map(|&(id, name)| (name.chars().count(), id, name.to_string()))
        .collect();
    labels.sort();
    let mut words: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    for &(id, name) in &referential {
        for word in name.split_whitespace() {
            let ids = words.entry(word.to_string()).or_default();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    (labels, words)
}

fn table_rows(table: &EntityTable) -> TableRows {
    let labels = table
        .lengths()
        .flat_map(|n| table.labels_of_length(n).map(move |(id, l)| (n, id, l.to_string())))
        .collect();
    let words = table.words().map(|(w, ids)| (w.to_string(), ids.to_vec())).collect();
    (labels, words)
}

fn check_table(g: &HetGraph) -> Result<(), String> {
    let table = g.referential_entities();
    let want = rebuilt_from_entities(g);
    prop_assert_eq!(table.len(), want.0.len());
    prop_assert_eq!(table_rows(table), want);
    for (word, ids) in table.words() {
        prop_assert_eq!(table.holding(word), ids);
    }
    Ok(())
}

// The table `add_entity` maintains equals one rebuilt from the nodes, after
// every insertion and after `from_parts` reassembles the graph.
prop_check!(entity_table_equals_a_rebuild_from_entities, scripts(), |script| {
    for end in 0..=script.len() {
        check_table(&run(&script[..end]))?;
    }
    let g = run(script);
    let reopened = HetGraph::from_parts(g.nodes().to_vec(), g.edges().to_vec())?;
    check_table(&reopened)?;
    prop_assert_eq!(reopened.referential_entities(), g.referential_entities());
    prop_assert_eq!(reopened.approx_bytes(), g.approx_bytes());
    Ok(())
});

/// Edge kinds for the dedup property: every payload-free kind, and the two
/// payload kinds sharing payloads with each other ("purchased" is both a
/// cue verb and an attribute name), so only the kind tells them apart.
fn edge_kinds() -> [EdgeKind; 8] {
    [
        EdgeKind::Mentions,
        EdgeKind::Temporal,
        EdgeKind::BelongsTo,
        EdgeKind::NextChunk,
        EdgeKind::RelatesTo("purchased".into()),
        EdgeKind::RelatesTo("prescribed".into()),
        EdgeKind::HasAttribute("purchased".into()),
        EdgeKind::HasAttribute("price".into()),
    ]
}

/// Table names for the dedup property; "sales" is an entity name too.
const TABLES: &[&str] = &["sales", "orders", "trials"];

/// A script of calls: `(0..4, name, kind)` adds an entity, `(4..8, _, _)` a
/// chunk, `(8..10, t, _)` a table, `(10..14, t, r)` a record of one of four
/// rows (so (table, row) pairs repeat), and `(op >= 14, x, k)` an edge of
/// the `k`-th kind. The edge's endpoints come from `op` and `x`: even
/// values pick one of the first two nodes, so those two grow into hubs,
/// and odd values any node, so pairs repeat.
fn dedup_scripts() -> Gen<Vec<(usize, usize, usize)>> {
    vec_of(&zip3(&usizes(0, 63), &usizes(0, 63), &usizes(0, 63)), 0, 160)
}

fn endpoint(pick: usize, nodes: usize) -> NodeId {
    let i = if pick % 2 == 0 { pick / 2 % nodes.min(2) } else { pick / 2 % nodes };
    NodeId(i as u32)
}

// `add_edge`'s scan of the lower-degree endpoint's adjacency returns every
// id, and leaves every edge and every adjacency list, exactly as the
// string-keyed dedup map it replaced: `(lo, hi, kind.label())` → edge.
// Entities dedup as a (canonical name, kind)-keyed map would and resolve by
// name to the first of that name; tables and records dedup as name-keyed
// maps would, and a record names its table's node. A graph reassembled by
// `from_parts` has the same adjacency, resolves every lookup to the same
// id, and dedups every re-added entity, table, record and edge to the id
// it had.
prop_check!(edge_dedup_equals_a_label_keyed_map, dedup_scripts(), |script| {
    let kinds = edge_kinds();
    let mut g = HetGraph::new();
    let mut oracle: BTreeMap<(NodeId, NodeId, String), EdgeId> = BTreeMap::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut calls = Vec::new();
    let mut tables: BTreeMap<&str, NodeId> = BTreeMap::new();
    let mut records: BTreeMap<(&str, usize), NodeId> = BTreeMap::new();
    let mut chunks = Vec::new();
    let mut entities: BTreeMap<(String, &str), (&str, EntityKind, NodeId)> = BTreeMap::new();
    let mut by_name: BTreeMap<String, NodeId> = BTreeMap::new();
    for (i, &(op, x, k)) in script.iter().enumerate() {
        match op {
            0..4 => {
                let (name, kind) = (NAMES[x % NAMES.len()], KINDS[k % KINDS.len()]);
                let id = g.add_entity(name, kind);
                let canon = unisem_slm::ner::canonical_phrase(name);
                let first = *by_name.entry(canon.clone()).or_insert(id);
                let want = *entities.entry((canon, kind.label())).or_insert((name, kind, id));
                prop_assert_eq!(id, want.2, "call {}", i);
                prop_assert_eq!(g.entity_by_name(name), Some(first), "call {}", i);
            }
            4..8 => {
                chunks.push((i, g.add_chunk(i)));
            }
            8..10 => {
                let name = TABLES[x % TABLES.len()];
                let id = g.add_table(name);
                prop_assert_eq!(*tables.entry(name).or_insert(id), id, "call {}", i);
            }
            10..14 => {
                let (name, row) = (TABLES[x % TABLES.len()], k % 4);
                let id = g.add_record(name, row);
                // A new table's node is added just before its first record.
                let table = *tables.entry(name).or_insert(NodeId(id.0.wrapping_sub(1)));
                prop_assert_eq!(*records.entry((name, row)).or_insert(id), id, "call {}", i);
                prop_assert_eq!(g.node(id), &NodeKind::Record { table, row });
                prop_assert_eq!(g.node(table), &NodeKind::Table { name: name.to_string() });
            }
            _ if g.num_nodes() > 1 => {
                let (a, b) = (endpoint(op, g.num_nodes()), endpoint(x, g.num_nodes()));
                if a == b {
                    continue;
                }
                let kind = kinds[k % kinds.len()].clone();
                let key = (a.min(b), a.max(b), kind.label());
                let want = *oracle.entry(key).or_insert_with(|| {
                    edges.push(Edge { a, b, kind: kind.clone() });
                    EdgeId(edges.len() as u32 - 1)
                });
                prop_assert_eq!(g.add_edge(a, b, kind.clone()), want, "call {}", i);
                calls.push((a, b, kind, want));
            }
            _ => {}
        }
    }
    // Each edge joins both endpoints' lists as it is added, so in id order.
    let mut adjacency = vec![Vec::new(); g.num_nodes()];
    for (i, e) in edges.iter().enumerate() {
        adjacency[e.a.0 as usize].push((e.b, EdgeId(i as u32)));
        adjacency[e.b.0 as usize].push((e.a, EdgeId(i as u32)));
    }
    prop_assert_eq!(g.edges(), &edges[..]);
    for (i, want) in adjacency.iter().enumerate() {
        prop_assert_eq!(g.neighbors(NodeId(i as u32)), &want[..], "node {}", i);
    }

    let counts = (g.num_chunks(), g.num_entities(), g.num_records());
    prop_assert_eq!(counts, (chunks.len(), entities.len(), records.len()));
    let mut reopened = HetGraph::from_parts(g.nodes().to_vec(), g.edges().to_vec())?;
    prop_assert_eq!(
        (reopened.num_chunks(), reopened.num_entities(), reopened.num_records()),
        counts
    );
    for i in 0..g.num_nodes() {
        let id = NodeId(i as u32);
        prop_assert_eq!(reopened.neighbors(id), g.neighbors(id), "node {}", i);
    }
    for (chunk, id) in chunks {
        prop_assert_eq!(reopened.chunk_node(chunk), Some(id));
    }
    for name in NAMES.iter().chain(TABLES) {
        prop_assert_eq!(reopened.entity_by_name(name), g.entity_by_name(name), "{}", name);
    }
    for (name, kind, id) in entities.into_values() {
        prop_assert_eq!(reopened.add_entity(name, kind), id, "{}", name);
    }
    for (name, id) in tables {
        prop_assert_eq!(reopened.add_table(name), id);
    }
    for ((name, row), id) in records {
        prop_assert_eq!(reopened.add_record(name, row), id);
    }
    for (a, b, kind, want) in calls {
        prop_assert_eq!(reopened.add_edge(b, a, kind), want);
    }
    prop_assert_eq!(reopened.nodes(), g.nodes());
    prop_assert_eq!(reopened.edges(), g.edges());
    Ok(())
});
