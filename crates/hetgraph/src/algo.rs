//! Topology algorithms over the heterogeneous graph.
//!
//! These implement the "graph properties, including centrality and
//! connectivity" that §III.B uses "to efficiently prioritize nodes and edges
//! that are most relevant to a given query".

use std::collections::{HashMap, VecDeque};

use parkit::Pool;

use crate::graph::{HetGraph, NodeId};

/// Fixed chunk size for parallel node sweeps. A constant (never derived
/// from the thread count) so chunk boundaries — and the association order
/// of floating-point partial sums — are identical at every
/// `UNISEM_THREADS` setting (parkit determinism contract, DESIGN.md §6).
const NODE_CHUNK: usize = 256;

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
    fn star_graph() -> (HetGraph, NodeId) {
        let mut g = HetGraph::new();
        let hub = g.add_entity("hub", EntityKind::Other);
        for i in 0..4 {
            let l = g.add_entity(&format!("leaf{i}"), EntityKind::Other);
            g.add_edge(hub, l, EdgeKind::Mentions);
        }
        (g, hub)
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
    fn pagerank_hub_highest() {
        let (g, hub) = star_graph();
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
