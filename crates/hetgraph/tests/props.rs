//! Property-based tests: graph invariants and algorithm laws (detkit
//! harness).

use detkit::prop::{usizes, vec_of, zip, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_hetgraph::algo::{pagerank, personalized_pagerank};
use unisem_hetgraph::{EdgeKind, HetGraph, NodeId};
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
