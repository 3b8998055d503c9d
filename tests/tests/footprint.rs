//! Footprint gate for the substrates (ROADMAP item 27): the bytes and
//! allocations a deep `clone()` of the graph, the document store and the
//! tables requests, pinned exactly at a fixed corpus, an edge re-add that
//! allocates nothing and an entity re-add that allocates once. Counted by
//! the allocator (`counting/mod.rs`), never by an estimator such as
//! `approx_bytes`.
//!
//! A clone counts what the structure owns, not everything it holds:
//! - capacity slack is not counted: a cloned `Vec` or `String` requests its
//!   length, not the capacity the original grew to (a cloned hash map does
//!   request the original's bucket count);
//! - the BM25 term texts are not counted: clones share them through an
//!   `Arc`, so cloning the document store copies only the pointers.
//!
//! The counters are per thread and a `clone()` spawns nothing. One
//! `#[test]`, like the allocs gate: the process-wide allocator is this
//! binary's. The pins hold at any pool width the engine was built with.
//! A change that lowers them updates the table and names the cause in
//! CHANGES.md; one that raises them says why.

use unisem_core::{EngineBuilder, EngineConfig, FaultPlan, ParallelConfig, UnifiedEngine};
use unisem_hetgraph::{EdgeId, EdgeKind, NodeId, NodeKind};
use unisem_workloads::{EcommerceWorkload, ScaleConfig, ScaleWorkload};

mod counting;
use counting::counted;

fn build(w: &EcommerceWorkload, threads: usize) -> UnifiedEngine {
    // Pinned, whatever UNISEM_FAULTS and UNISEM_THREADS say outside.
    let config = EngineConfig {
        faults: FaultPlan::disabled(),
        parallel: ParallelConfig::with_threads(threads),
        ..EngineConfig::default()
    };
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
    for name in w.db.table_names() {
        b.add_table(name, w.db.table(name).expect("listed").clone()).expect("fresh");
    }
    for coll in w.semi.collections() {
        for doc in w.semi.docs(coll) {
            b.add_json(coll, doc.clone());
        }
    }
    for d in &w.documents {
        b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
    }
    b.build().0
}

#[test]
fn substrate_clones_allocate_as_pinned_and_edge_re_adds_allocate_nothing() {
    let w = ScaleWorkload::generate(ScaleConfig {
        products: 64,
        quarters: 4,
        queries: 1,
        seed: 0x5CA1E,
    })
    .data;
    // (substrate, allocations, bytes) one clone requests.
    let pinned: [(&str, u64, u64); 3] =
        [("graph", 4286, 407797), ("docs", 2607, 369619), ("db", 5937, 421661)];
    for threads in [1, 4] {
        let engine = build(&w, threads);
        assert_eq!(engine.docs().num_chunks(), 448, "the pinned corpus moved");
        let (mut graph, ga, gb) = counted(|| engine.graph().clone());
        let (_, da, db) = counted(|| engine.docs().clone());
        let (_, ta, tb) = counted(|| engine.db().clone());
        let got = [("graph", ga, gb), ("docs", da, db), ("db", ta, tb)];
        for (name, allocs, bytes) in got {
            println!("{threads} threads: {name} clone: {allocs} allocations, {bytes} bytes");
        }
        assert_eq!(got, pinned, "{threads} threads: a clone's allocations moved");

        // Re-adding an existing edge, from either end, finds it without
        // building a key.
        let at = graph
            .edges()
            .iter()
            .position(|e| e.kind == EdgeKind::Mentions)
            .expect("the corpus has a mention");
        let (edge, id) = (graph.edges()[at].clone(), EdgeId(at as u32));
        let edges = graph.num_edges();
        for (a, b) in [(edge.a, edge.b), (edge.b, edge.a)] {
            let (got, allocs, _) = counted(|| graph.add_edge(a, b, EdgeKind::Mentions));
            assert_eq!(got, id, "a re-add returns the existing edge");
            assert_eq!(allocs, 0, "{threads} threads: re-adding an existing edge allocated");
        }
        assert_eq!(graph.num_edges(), edges);

        // Re-adding an existing entity allocates its canonical name alone,
        // once even for a name of several words: the lookup borrows it.
        let (at, name, kind) = graph
            .nodes()
            .iter()
            .enumerate()
            .find_map(|(i, n)| match n {
                NodeKind::Entity { name, kind } if name.len() > 8 && name.contains(' ') => {
                    Some((i, name.to_uppercase(), *kind))
                }
                _ => None,
            })
            .expect("the corpus has an entity of several words");
        let nodes = graph.num_nodes();
        let (got, allocs, _) = counted(|| graph.add_entity(&name, kind));
        assert_eq!(got, NodeId(at as u32), "a re-add returns the existing entity");
        assert_eq!(allocs, 1, "{threads} threads: re-adding an existing entity");
        assert_eq!(graph.num_nodes(), nodes);
    }
}
