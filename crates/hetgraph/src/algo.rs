//! Topology algorithms over the heterogeneous graph.
//!
//! These implement the "graph properties, including centrality and
//! connectivity" that §III.B uses "to efficiently prioritize nodes and edges
//! that are most relevant to a given query".

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};

use parkit::Pool;

use crate::graph::{HetGraph, NodeId};

/// Fixed chunk size for parallel node sweeps. A constant (never derived
/// from the thread count) so chunk boundaries — and the association order
/// of floating-point partial sums — are identical at every
/// `UNISEM_THREADS` setting (parkit determinism contract, DESIGN.md §6).
const NODE_CHUNK: usize = 256;

/// Breadth-first traversal up to `max_hops`, returning each reached node
/// with its hop distance (the start node has distance 0).
pub fn bfs_within(graph: &HetGraph, start: NodeId, max_hops: usize) -> Vec<(NodeId, usize)> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut out = Vec::new();
    let mut queue = VecDeque::new();
    seen.insert(start);
    queue.push_back((start, 0usize));
    while let Some((node, d)) = queue.pop_front() {
        out.push((node, d));
        if d == max_hops {
            continue;
        }
        for &(next, _) in graph.neighbors(node) {
            if seen.insert(next) {
                queue.push_back((next, d + 1));
            }
        }
    }
    out
}

/// Multi-source BFS: hop distance to the nearest of `sources` for every
/// reachable node.
pub fn multi_source_hops(graph: &HetGraph, sources: &[NodeId]) -> BTreeMap<NodeId, usize> {
    let mut dist = BTreeMap::new();
    let mut queue = VecDeque::new();
    for &s in sources {
        if !dist.contains_key(&s) {
            dist.insert(s, 0);
            queue.push_back(s);
        }
    }
    while let Some(node) = queue.pop_front() {
        let d = dist[&node];
        for &(next, _) in graph.neighbors(node) {
            if !dist.contains_key(&next) {
                dist.insert(next, d + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by cost (reverse), ties by node id for determinism.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Weighted single-source shortest distances using edge traversal costs
/// (see [`crate::graph::EdgeKind::traversal_cost`]), cut off at `max_cost`.
pub fn dijkstra_within(graph: &HetGraph, start: NodeId, max_cost: f64) -> BTreeMap<NodeId, f64> {
    let mut dist: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(start, 0.0);
    heap.push(HeapItem { cost: 0.0, node: start });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > *dist.get(&node).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for &(next, edge) in graph.neighbors(node) {
            let c = cost + graph.edge(edge).kind.traversal_cost();
            if c <= max_cost && c < *dist.get(&next).unwrap_or(&f64::INFINITY) {
                dist.insert(next, c);
                heap.push(HeapItem { cost: c, node: next });
            }
        }
    }
    dist
}

/// Unweighted shortest path between two nodes (inclusive of endpoints), or
/// `None` when disconnected.
pub fn shortest_path(graph: &HetGraph, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
    let mut queue = VecDeque::new();
    prev.insert(from, from);
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        for &(next, _) in graph.neighbors(node) {
            if !prev.contains_key(&next) {
                prev.insert(next, node);
                if next == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = prev[&cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
    }
    None
}

/// Connected components; returns a component id per node (dense, 0-based)
/// and the number of components.
pub fn connected_components(graph: &HetGraph) -> (Vec<usize>, usize) {
    let n = graph.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[start] = next;
        queue.push_back(NodeId(start as u32));
        while let Some(node) = queue.pop_front() {
            for &(nb, _) in graph.neighbors(node) {
                if comp[nb.0 as usize] == usize::MAX {
                    comp[nb.0 as usize] = next;
                    queue.push_back(nb);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// Degree centrality, normalized by `n - 1` (0 for a singleton graph).
pub fn degree_centrality(graph: &HetGraph) -> Vec<f64> {
    let n = graph.num_nodes();
    if n <= 1 {
        return vec![0.0; n];
    }
    (0..n).map(|i| graph.degree(NodeId(i as u32)) as f64 / (n - 1) as f64).collect()
}

/// PageRank with uniform teleport. Returns one score per node, summing
/// to ~1 over each connected graph.
pub fn pagerank(graph: &HetGraph, damping: f64, iterations: usize) -> Vec<f64> {
    personalized_pagerank(graph, &[], damping, iterations)
}

/// Personalized PageRank: teleport mass concentrates on `seeds` (uniform
/// over all nodes when `seeds` is empty).
///
/// This is the topology-enhanced retrieval scorer: seeding with the query's
/// anchor entities makes scores measure "relevance reachable through the
/// graph structure" — the sparse traversal §III.B contrasts with dense
/// retrieval.
pub fn personalized_pagerank(
    graph: &HetGraph,
    seeds: &[NodeId],
    damping: f64,
    iterations: usize,
) -> Vec<f64> {
    personalized_pagerank_pool(graph, seeds, damping, iterations, parkit::global())
}

/// [`personalized_pagerank`] on an explicit [`Pool`]. Output is
/// bit-identical for any pool width: each power iteration is a *gather*
/// (`next[i] = Σ rank[nb] / deg(nb)`, valid because adjacency is stored
/// symmetrically), so every `next[i]` sums its neighbors in adjacency
/// order regardless of scheduling, and the dangling mass reduces over
/// fixed-size chunks combined in chunk order.
pub fn personalized_pagerank_pool(
    graph: &HetGraph,
    seeds: &[NodeId],
    damping: f64,
    iterations: usize,
    pool: Pool,
) -> Vec<f64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let teleport: Vec<f64> = if seeds.is_empty() {
        vec![1.0 / n as f64; n]
    } else {
        let mut t = vec![0.0; n];
        let w = 1.0 / seeds.len() as f64;
        for s in seeds {
            t[s.0 as usize] += w;
        }
        t
    };
    let inv_deg: Vec<f64> = (0..n)
        .map(|i| {
            let deg = graph.degree(NodeId(i as u32));
            if deg == 0 {
                0.0
            } else {
                1.0 / deg as f64
            }
        })
        .collect();
    let mut rank = teleport.clone();
    for _ in 0..iterations {
        // Dangling mass redistributes along the teleport vector.
        let dangling = pool
            .par_reduce_range(
                n,
                NODE_CHUNK,
                |r| r.filter(|&i| inv_deg[i] == 0.0).map(|i| rank[i]).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap_or(0.0);
        rank = pool.par_map_range_chunked(n, NODE_CHUNK, |i| {
            let mut inflow = 0.0;
            for &(nb, _) in graph.neighbors(NodeId(i as u32)) {
                let j = nb.0 as usize;
                inflow += rank[j] * inv_deg[j];
            }
            (1.0 - damping) * teleport[i] + damping * (inflow + dangling * teleport[i])
        });
    }
    rank
}

/// Closeness centrality of one node: `(reachable - 1) / total_distance`,
/// scaled by reachable fraction (Wasserman-Faust). 0 for isolated nodes.
pub fn closeness(graph: &HetGraph, node: NodeId) -> f64 {
    let reached = bfs_within(graph, node, usize::MAX);
    let n = graph.num_nodes();
    if reached.len() <= 1 || n <= 1 {
        return 0.0;
    }
    let total: usize = reached.iter().map(|&(_, d)| d).sum();
    if total == 0 {
        return 0.0;
    }
    let r = reached.len() as f64;
    ((r - 1.0) / total as f64) * ((r - 1.0) / (n as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;
    use unisem_slm::EntityKind;

    /// Path graph: e0 - e1 - e2 - e3, plus isolated e4.
    fn path_graph() -> (HetGraph, Vec<NodeId>) {
        let mut g = HetGraph::new();
        let ids: Vec<NodeId> =
            (0..5).map(|i| g.add_entity(&format!("n{i}"), EntityKind::Other)).collect();
        for w in ids[..4].windows(2) {
            g.add_edge(w[0], w[1], EdgeKind::Mentions);
        }
        (g, ids)
    }

    /// Star graph: hub connected to 4 leaves.
    fn star_graph() -> (HetGraph, NodeId, Vec<NodeId>) {
        let mut g = HetGraph::new();
        let hub = g.add_entity("hub", EntityKind::Other);
        let leaves: Vec<NodeId> = (0..4)
            .map(|i| {
                let l = g.add_entity(&format!("leaf{i}"), EntityKind::Other);
                g.add_edge(hub, l, EdgeKind::Mentions);
                l
            })
            .collect();
        (g, hub, leaves)
    }

    #[test]
    fn bfs_respects_hops() {
        let (g, ids) = path_graph();
        let r1 = bfs_within(&g, ids[0], 1);
        assert_eq!(r1.len(), 2);
        let r2 = bfs_within(&g, ids[0], 2);
        assert_eq!(r2.len(), 3);
        let all = bfs_within(&g, ids[0], 10);
        assert_eq!(all.len(), 4, "isolated node unreachable");
        assert_eq!(all.iter().find(|&&(n, _)| n == ids[3]).unwrap().1, 3);
    }

    #[test]
    fn multi_source_takes_min() {
        let (g, ids) = path_graph();
        let d = multi_source_hops(&g, &[ids[0], ids[3]]);
        assert_eq!(d[&ids[1]], 1);
        assert_eq!(d[&ids[2]], 1);
        assert!(!d.contains_key(&ids[4]));
    }

    #[test]
    fn dijkstra_uses_costs() {
        let mut g = HetGraph::new();
        let a = g.add_entity("a", EntityKind::Other);
        let b = g.add_entity("b", EntityKind::Other);
        let c = g.add_entity("c", EntityKind::Other);
        g.add_edge(a, b, EdgeKind::Mentions); // cost 1.0
        g.add_edge(b, c, EdgeKind::NextChunk); // cost 2.0
        let d = dijkstra_within(&g, a, 10.0);
        assert_eq!(d[&c], 3.0);
        let cut = dijkstra_within(&g, a, 1.5);
        assert!(!cut.contains_key(&c));
        assert!(cut.contains_key(&b));
    }

    #[test]
    fn shortest_path_found_and_missing() {
        let (g, ids) = path_graph();
        let p = shortest_path(&g, ids[0], ids[3]).unwrap();
        assert_eq!(p, vec![ids[0], ids[1], ids[2], ids[3]]);
        assert!(shortest_path(&g, ids[0], ids[4]).is_none());
        assert_eq!(shortest_path(&g, ids[2], ids[2]).unwrap(), vec![ids[2]]);
    }

    #[test]
    fn components_counted() {
        let (g, ids) = path_graph();
        let (comp, n) = connected_components(&g);
        assert_eq!(n, 2);
        assert_eq!(comp[ids[0].0 as usize], comp[ids[3].0 as usize]);
        assert_ne!(comp[ids[0].0 as usize], comp[ids[4].0 as usize]);
    }

    #[test]
    fn degree_centrality_star() {
        let (g, hub, leaves) = star_graph();
        let c = degree_centrality(&g);
        assert!((c[hub.0 as usize] - 1.0).abs() < 1e-9);
        for l in leaves {
            assert!((c[l.0 as usize] - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_hub_highest() {
        let (g, hub, _) = star_graph();
        let pr = pagerank(&g, 0.85, 50);
        let hub_score = pr[hub.0 as usize];
        assert!(pr.iter().enumerate().all(|(i, &s)| i == hub.0 as usize || s <= hub_score));
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "mass conserved, got {total}");
    }

    #[test]
    fn personalized_pagerank_concentrates_near_seed() {
        let (g, ids) = path_graph();
        let ppr = personalized_pagerank(&g, &[ids[0]], 0.85, 60);
        // Mass decays with distance from the seed end of the path.
        let near = ppr[ids[0].0 as usize] + ppr[ids[1].0 as usize];
        let far = ppr[ids[2].0 as usize] + ppr[ids[3].0 as usize];
        assert!(near > far, "near={near} far={far}");
        assert!(ppr[ids[1].0 as usize] > ppr[ids[3].0 as usize]);
        assert_eq!(ppr[ids[4].0 as usize], 0.0, "unreachable from seed");
    }

    #[test]
    fn pagerank_empty_graph() {
        let g = HetGraph::new();
        assert!(pagerank(&g, 0.85, 10).is_empty());
    }

    #[test]
    fn closeness_center_beats_ends() {
        let (g, ids) = path_graph();
        let center = closeness(&g, ids[1]);
        let end = closeness(&g, ids[0]);
        assert!(center > end);
        assert_eq!(closeness(&g, ids[4]), 0.0);
    }

    #[test]
    fn pagerank_bit_identical_across_pool_widths() {
        let (g, _) = path_graph();
        let reference = personalized_pagerank_pool(&g, &[], 0.85, 50, Pool::sequential());
        for threads in [2, 4, 8] {
            let got = personalized_pagerank_pool(&g, &[], 0.85, 50, Pool::new(threads));
            let same = reference.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads}: {got:?} != {reference:?}");
        }
    }

    #[test]
    fn dangling_mass_redistributed() {
        // Node with no edges still gets teleport mass; total conserved.
        let mut g = HetGraph::new();
        let a = g.add_entity("a", EntityKind::Other);
        let b = g.add_entity("b", EntityKind::Other);
        g.add_edge(a, b, EdgeKind::Mentions);
        g.add_entity("isolated", EntityKind::Other);
        let pr = pagerank(&g, 0.85, 80);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(pr[2] > 0.0);
    }
}
