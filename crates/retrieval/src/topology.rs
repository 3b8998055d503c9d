//! Topology-enhanced retrieval (§III.B of the paper).
//!
//! Pipeline per query:
//!
//! 1. **Anchor extraction** — the SLM tags entities in the query; each
//!    mention is linked to a graph entity node (exact canonical match,
//!    falling back to fuzzy Jaro-Winkler linking, falling back to token
//!    containment). Both fallbacks read the graph's referential-entity
//!    table instead of walking the nodes: fuzzy linking skips every label
//!    length the similarity bound rules out and scores only the labels a
//!    unit-count bound cannot rule out, and containment looks each query
//!    word up in the table's word index.
//! 2. **Bounded traversal** — cost-bounded Dijkstra from the anchors
//!    limits scoring to a sparse frontier (this is the efficiency claim:
//!    far-away chunks are *never touched*, unlike a dense scan that must
//!    visit every vector).
//! 3. **Topological scoring** — proximity decay along the traversal,
//!    modulated by a **static PageRank prior** ("centrality measures help
//!    identify influential nodes") computed once per graph version, on the
//!    first traversal that needs it; every other traversal's work stays
//!    proportional to the frontier.
//! 4. **Hybrid scoring** — each candidate chunk's topological score fuses
//!    with its BM25 score, computed for the candidates alone
//!    ([`unisem_text::Bm25Index::score_docs`]), so the lexical half also
//!    reads only what the frontier names. A query with no anchor is a
//!    plain BM25 search.
//!
//! The per-node tables a traversal fills are lent from a pool on the
//! retriever and cleaned by walking the frontier before they go back, so
//! no per-query work is sized by the graph or the chunk store.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use unisem_docstore::DocStore;
use unisem_hetgraph::algo::pagerank;
use unisem_hetgraph::{HetGraph, NodeId, NodeKind};
use unisem_slm::ner::EntityKind;
use unisem_slm::Slm;
use unisem_text::normalize::{is_stopword, lower_into};
use unisem_text::similarity::JaroWinklerAtLeast;
use unisem_text::tokenize::{tokenize, TokenKind};

use crate::{ChunkRetriever, RetrievalResult};

/// Tuning parameters for the topology retriever.
#[derive(Debug, Clone, Copy)]
pub struct TopologyConfig {
    /// Candidate set radius in hops from the anchors (edge costs make this
    /// a weighted radius: `max_hops × 2.0` traversal cost).
    pub max_hops: usize,
    /// Damping for the *static* PageRank prior (computed once per graph
    /// version).
    pub damping: f64,
    /// Iterations for the static PageRank prior.
    pub iterations: usize,
    /// Per-unit-cost decay of traversal proximity.
    pub decay: f64,
    /// Hub cap: traversal never expands *through* a non-anchor node with
    /// degree above this. Hubs (quarter/date entities touching every
    /// document) carry little routing information and would otherwise pull
    /// the whole graph into every frontier.
    pub hub_cap: usize,
    /// Weight of the topological score in the fusion.
    pub alpha: f64,
    /// Weight of the lexical (BM25) score in the fusion.
    pub beta: f64,
    /// Minimum Jaro-Winkler similarity for fuzzy anchor linking. A label
    /// whose similarity provably cannot reach it is never scored
    /// ([`JaroWinklerAtLeast`]), so a high threshold also makes the
    /// fallback cheaper.
    pub fuzzy_threshold: f64,
    /// Resource governor: maximum distinct nodes a single traversal may
    /// discover. Expansion order is deterministic (cost, then node id), so
    /// the cap truncates the same frontier on every run; hitting it sets
    /// [`TraversalStats::frontier_capped`] instead of doing unbounded work.
    pub max_frontier: usize,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            max_hops: 2,
            damping: 0.85,
            iterations: 20,
            decay: 0.6,
            hub_cap: 16,
            alpha: 0.65,
            beta: 0.35,
            fuzzy_threshold: 0.88,
            max_frontier: usize::MAX,
        }
    }
}

/// Per-query traversal statistics (experiment E3's efficiency evidence).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraversalStats {
    /// Anchor entity nodes the query linked to.
    pub anchors: usize,
    /// Nodes within the hop bound (the candidate frontier).
    pub nodes_touched: usize,
    /// Heap expansions performed across all anchor traversals (the
    /// traversal's actual work, as opposed to the frontier it settled on).
    pub nodes_popped: usize,
    /// Chunk candidates actually scored.
    pub chunks_scored: usize,
    /// Whether the query fell back to pure lexical retrieval.
    pub lexical_fallback: bool,
    /// Whether any anchor's traversal hit [`TopologyConfig::max_frontier`]
    /// and was truncated (a degradation signal for the engine).
    pub frontier_capped: bool,
    /// Posting entries the lexical component read: the whole posting
    /// list of every query term for the lexical fallback, and for a
    /// traversal the entries scoring its candidate chunks read, which is
    /// never more. Either way a pure function of query and corpus.
    pub postings_scanned: usize,
    /// Entity labels anchor linking read: the fuzzy candidates handed to
    /// the similarity bound (those in a label length the bound admits),
    /// plus the entity ids read from the containment word index.
    pub labels_examined: usize,
}

/// One traversal's per-node tables, indexed by node id: all clean (`dist`
/// infinite, `proximity` 0, `in_frontier` false) whenever no traversal
/// holds them.
#[derive(Debug, Default)]
struct Scratch {
    dist: Vec<f64>,
    proximity: Vec<f64>,
    in_frontier: Vec<bool>,
}

impl Scratch {
    /// Grows the tables, clean, to `n_nodes` slots.
    fn fit(&mut self, n_nodes: usize) {
        self.dist.resize(n_nodes.max(self.dist.len()), f64::INFINITY);
        self.proximity.resize(n_nodes.max(self.proximity.len()), 0.0);
        self.in_frontier.resize(n_nodes.max(self.in_frontier.len()), false);
    }

    /// Cleans what a traversal over `frontier` set: the traversal resets
    /// `dist` itself, node by node.
    fn clear(&mut self, frontier: &[NodeId]) {
        for node in frontier {
            self.proximity[node.0 as usize] = 0.0;
            self.in_frontier[node.0 as usize] = false;
        }
    }
}

/// The topology-enhanced retriever.
#[derive(Debug)]
pub struct TopologyRetriever {
    slm: Slm,
    graph: Arc<HetGraph>,
    docs: Arc<DocStore>,
    config: TopologyConfig,
    /// Static centrality prior, max-normalized: a pure function of
    /// `graph`, filled by [`Self::ensure_prior`] and emptied whenever
    /// [`Self::rebind`] changes the graph.
    static_prior: OnceLock<Vec<f64>>,
    /// Clean per-node tables, one lent to each traversal in flight (so at
    /// most one per concurrent traversal), locked only to pop or push. A
    /// traversal that unwinds never returns its tables, so every one here
    /// is clean. [`Self::rebind`] drops them.
    scratch: Mutex<Vec<Scratch>>,
}

impl Clone for TopologyRetriever {
    /// A clone shares the substrates and the prior, and starts its own
    /// scratch pool.
    fn clone(&self) -> Self {
        Self {
            slm: self.slm.clone(),
            graph: self.graph.clone(),
            docs: self.docs.clone(),
            config: self.config,
            static_prior: self.static_prior.clone(),
            scratch: Mutex::default(),
        }
    }
}

impl TopologyRetriever {
    /// Creates a retriever over a pre-built graph and document store.
    ///
    /// The static PageRank prior is not computed here: the first traversal
    /// pays for it, or [`Self::ensure_prior`] up front for a caller that
    /// wants the index-build cost out of its first query.
    pub fn new(
        slm: Slm,
        graph: Arc<HetGraph>,
        docs: Arc<DocStore>,
        config: TopologyConfig,
    ) -> Self {
        Self { slm, graph, docs, config, static_prior: OnceLock::new(), scratch: Mutex::default() }
    }

    /// Points the retriever at new versions of its substrates and drops
    /// the static prior, which the next traversal recomputes, and the
    /// scratch tables sized by the old graph. Rebinding to empty
    /// substrates releases the retriever's handles, so the owner of the
    /// only other handle can mutate in place (`Arc::make_mut`).
    pub fn rebind(&mut self, graph: Arc<HetGraph>, docs: Arc<DocStore>) {
        self.graph = graph;
        self.docs = docs;
        self.static_prior = OnceLock::new();
        self.scratch = Mutex::default();
    }

    /// Computes the static prior for the current graph version unless it
    /// is already there; `true` when this call ran PageRank.
    pub fn ensure_prior(&self) -> bool {
        self.prior().1
    }

    /// The static prior, and whether this call had to compute it.
    fn prior(&self) -> (&[f64], bool) {
        let mut ran = false;
        let prior = self.static_prior.get_or_init(|| {
            ran = true;
            let mut prior = pagerank(&self.graph, self.config.damping, self.config.iterations);
            let max = prior.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
            for p in prior.iter_mut() {
                *p /= max;
            }
            prior
        });
        (prior, ran)
    }

    /// The config in effect.
    pub fn config(&self) -> TopologyConfig {
        self.config
    }

    /// Links query mentions to graph nodes, split by role:
    ///
    /// - **primary** anchors are referential entities (products, drugs,
    ///   people, organizations) — traversal *expands* from these;
    /// - **constraint** anchors are value entities (quarters, dates) — they
    ///   boost directly-adjacent nodes but never seed expansion, because a
    ///   temporal hub touches every contemporaneous document in the lake
    ///   and would drag the whole corpus into the frontier.
    pub fn anchor_sets(&self, query: &str) -> (Vec<NodeId>, Vec<NodeId>) {
        let (primary, constraints, _) = self.link(query);
        (primary, constraints)
    }

    /// [`Self::anchor_sets`], and the labels linking examined.
    fn link(&self, query: &str) -> (Vec<NodeId>, Vec<NodeId>, usize) {
        let mut examined = 0;
        let mentions = self.slm.tag_entities(query);
        let mut primary: Vec<NodeId> = Vec::new();
        let mut constraints: Vec<NodeId> = Vec::new();
        for m in &mentions {
            // Quantities/percents are filter values; metrics ("sales",
            // "rating") are predicates over whatever entity the query names
            // — neither identifies a location in the graph, and metric
            // entities are the highest-degree hubs of all.
            if matches!(m.kind, EntityKind::Quantity | EntityKind::Percent | EntityKind::Metric) {
                continue;
            }
            let name = m.canonical();
            match self.graph.entity_by_name(&name) {
                Some(id) if m.kind.is_value() => constraints.push(id),
                Some(id) => primary.push(id),
                // Fuzzy fallback for an unmatched referential mention.
                None if !m.kind.is_value() => {
                    primary.extend(self.link_fuzzy(&name, &mut examined));
                }
                None => {}
            }
        }
        // Last resort: content-word containment against referential entity
        // labels (a metric or value hub such as "sales" would pull the
        // entire corpus into the frontier), the highest-degree entity per
        // word, then the highest id.
        if primary.is_empty() {
            let table = self.graph.referential_entities();
            let mut lower = String::new();
            for t in tokenize(query).filter(|t| t.kind != TokenKind::Punct) {
                lower_into(t.text, &mut lower);
                if is_stopword(&lower) || lower.len() <= 2 {
                    continue;
                }
                let holding = table.holding(&lower);
                examined += holding.len();
                // Ids ascend, so `max_by_key` keeps the last of equals.
                primary.extend(holding.iter().copied().max_by_key(|&id| self.graph.degree(id)));
            }
        }
        primary.sort();
        primary.dedup();
        constraints.sort();
        constraints.dedup();
        (primary, constraints, examined)
    }

    /// The referential entity most similar to `name` at or above
    /// `fuzzy_threshold`, the highest id among equals. A label length the
    /// bound rules out is skipped whole, and of the rest only labels whose
    /// similarity can reach the threshold are scored
    /// ([`JaroWinklerAtLeast`]); `examined` counts the labels handed to it.
    fn link_fuzzy(&self, name: &str, examined: &mut usize) -> Option<NodeId> {
        let table = self.graph.referential_entities();
        let similar = JaroWinklerAtLeast::new(name, self.config.fuzzy_threshold);
        let mut best: Option<(NodeId, f64)> = None;
        for chars in table.lengths().filter(|&n| similar.may_reach_length(n)) {
            for (id, label) in table.labels_of_length(chars) {
                *examined += 1;
                if let Some(s) = similar.score(label) {
                    if best.is_none_or(|(top_id, top)| s > top || (s == top && id > top_id)) {
                        best = Some((id, s));
                    }
                }
            }
        }
        best.map(|(id, _)| id)
    }

    /// Hub-damped Dijkstra over edge traversal costs, cut off at
    /// `max_cost`: a non-start node whose degree exceeds `hub_cap` is
    /// *reached* (it can score) without being *expanded* (it never fans
    /// the frontier out).
    ///
    /// `dist` is indexed by node id and all `INFINITY` on entry; on return
    /// it holds the cost of every reached node. Returns the reached nodes
    /// in discovery order, whether the `max_frontier` governor truncated
    /// the expansion, and how many non-stale heap pops the search
    /// performed (its actual work).
    fn bounded_traversal(
        &self,
        start: NodeId,
        max_cost: f64,
        dist: &mut [f64],
    ) -> (Vec<NodeId>, bool, usize) {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Item {
            cost: f64,
            node: NodeId,
        }
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .unwrap_or(Ordering::Equal)
                    .then(other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut reached = vec![start];
        let mut heap = BinaryHeap::new();
        let mut capped = false;
        let mut popped = 0usize;
        dist[start.0 as usize] = 0.0;
        heap.push(Item { cost: 0.0, node: start });
        while let Some(Item { cost, node }) = heap.pop() {
            if cost > dist[node.0 as usize] {
                continue;
            }
            popped += 1;
            // Hub damping: only the anchor itself may expand past the cap.
            if node != start && self.graph.degree(node) > self.config.hub_cap {
                continue;
            }
            for &(next, edge) in self.graph.neighbors(node) {
                let c = cost + self.graph.edge(edge).kind.traversal_cost();
                let known = dist[next.0 as usize];
                if c <= max_cost && c < known {
                    // Frontier governor: already-reached nodes may still
                    // relax to a cheaper cost, but no *new* node joins a
                    // full frontier. Pop order is (cost, node id), so the
                    // surviving set is identical on every run.
                    if known == f64::INFINITY {
                        if reached.len() >= self.config.max_frontier {
                            capped = true;
                            continue;
                        }
                        reached.push(next);
                    }
                    dist[next.0 as usize] = c;
                    heap.push(Item { cost: c, node: next });
                }
            }
        }
        (reached, capped, popped)
    }

    /// Retrieval with traversal statistics.
    ///
    /// Node and chunk ids are dense, so the traversal's per-node tables
    /// are `Vec`s indexed by id (lent from the scratch pool) beside a list
    /// of the ids in use, and the candidate chunks are one list sorted by
    /// chunk id; both lists are walked in ascending id order, which is what
    /// makes the result a pure function of the inputs (DESIGN.md §5b).
    pub fn retrieve_with_stats(
        &self,
        query: &str,
        k: usize,
    ) -> (Vec<RetrievalResult>, TraversalStats) {
        let (primary, constraints, labels_examined) = self.link(query);
        // Traverse from referential anchors; fall back to constraint
        // anchors when the query names only values ("what happened in Q3?").
        let anchors: &[NodeId] = if primary.is_empty() { &constraints } else { &primary };
        let mut stats = TraversalStats {
            anchors: primary.len() + constraints.len(),
            lexical_fallback: anchors.is_empty(),
            labels_examined,
            ..TraversalStats::default()
        };
        // Without anchors the lexical search is the whole answer.
        if stats.lexical_fallback {
            let (hits, scanned) = self.docs.search_counted(query, k);
            stats.postings_scanned = scanned;
            let hits = hits
                .into_iter()
                .map(|h| RetrievalResult { chunk_id: h.chunk_id, score: h.score })
                .collect();
            return (hits, stats);
        }

        // Sparse frontier: cost-bounded Dijkstra from each anchor; the
        // proximity of a node is the sum of per-anchor decays, so nodes
        // reachable from *several* anchors (the "connects Products A and B"
        // case of §III.B) rank highest.
        // Value-only queries ("which products grew in Q2?") scope to the
        // documents directly carrying the period — depth 1 — because a
        // temporal anchor's multi-hop neighborhood is the entire
        // contemporaneous corpus.
        let max_cost = if primary.is_empty() { 1.0 } else { self.config.max_hops as f64 * 2.0 };
        let mut scratch =
            self.scratch.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default();
        scratch.fit(self.graph.num_nodes());
        let Scratch { dist, proximity, in_frontier } = &mut scratch;
        let mut frontier: Vec<NodeId> = Vec::new();
        for &a in anchors {
            let (reached, capped, popped) = self.bounded_traversal(a, max_cost, dist);
            stats.frontier_capped |= capped;
            stats.nodes_popped += popped;
            for node in reached {
                let i = node.0 as usize;
                proximity[i] += self.config.decay.powf(dist[i]);
                // The next anchor's traversal starts from a clean table.
                dist[i] = f64::INFINITY;
                if !in_frontier[i] {
                    in_frontier[i] = true;
                    frontier.push(node);
                }
            }
        }
        // Constraint anchors boost their direct neighbors *within the
        // frontier* — a chunk matching both the entity and the period
        // outranks the entity-only chunks — without expanding the frontier.
        if !primary.is_empty() {
            for &c in &constraints {
                for &(nb, _) in self.graph.neighbors(c) {
                    if in_frontier[nb.0 as usize] {
                        proximity[nb.0 as usize] += self.config.decay;
                    }
                }
            }
        }
        stats.nodes_touched = frontier.len();
        frontier.sort_unstable();

        // Candidate chunks: traversal proximity × static centrality prior,
        // by chunk id (a graph has one node per chunk id). A chunk node
        // naming no chunk of the store cannot be a hit.
        let (static_prior, _) = self.prior();
        let n_chunks = self.docs.num_chunks();
        let mut candidates: Vec<(usize, f64)> = Vec::with_capacity(frontier.len());
        for &node in &frontier {
            if let NodeKind::Chunk { chunk_id } = *self.graph.node(node) {
                if chunk_id < n_chunks {
                    let i = node.0 as usize;
                    candidates.push((chunk_id, proximity[i] * (0.5 + 0.5 * static_prior[i])));
                }
            }
        }
        scratch.clear(&frontier);
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner).push(scratch);
        candidates.sort_unstable_by_key(|&(chunk_id, _)| chunk_id);
        stats.chunks_scored = candidates.len();

        // The lexical half, for the candidates alone.
        let ids: Vec<usize> = candidates.iter().map(|&(chunk_id, _)| chunk_id).collect();
        let (lex, read) = self.docs.index().score_docs(query, &ids);
        stats.postings_scanned = read;
        let topo_max = candidates.iter().map(|&(_, t)| t).fold(0.0f64, f64::max).max(1e-12);
        let lex_max = lex.iter().copied().fold(0.0f64, f64::max).max(1e-12);

        let (alpha, beta) = (self.config.alpha, self.config.beta);
        let mut results: Vec<RetrievalResult> = candidates
            .iter()
            .zip(&lex)
            .map(|(&(chunk_id, topo), &lex)| RetrievalResult {
                chunk_id,
                score: alpha * topo / topo_max + beta * lex / lex_max,
            })
            .collect();
        // Chunk ids are distinct, so this is a total order.
        results.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.chunk_id.cmp(&b.chunk_id))
        });
        results.truncate(k);
        (results, stats)
    }
}

impl ChunkRetriever for TopologyRetriever {
    fn name(&self) -> &'static str {
        "topology"
    }

    fn retrieve(&self, query: &str, k: usize) -> Vec<RetrievalResult> {
        self.retrieve_with_stats(query, k).0
    }

    fn index_bytes(&self) -> usize {
        // The graph IS the index; BM25 postings are shared with the lexical
        // baseline and charged here too since fusion uses them.
        self.graph.approx_bytes() + self.docs.index_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_hetgraph::GraphBuilder;
    use unisem_slm::{Lexicon, SlmConfig};

    fn setup() -> (Slm, Arc<HetGraph>, Arc<DocStore>) {
        let lexicon = Lexicon::new().with_entries([
            ("Drug A", EntityKind::Drug),
            ("Drug B", EntityKind::Drug),
            ("Product Alpha", EntityKind::Product),
            ("Patient X", EntityKind::Person),
            ("headache", EntityKind::Condition),
        ]);
        let slm = Slm::new(SlmConfig { lexicon, ..SlmConfig::default() });
        let mut docs = DocStore::default();
        docs.add_document(
            "trial",
            "Patient X received Drug A during the trial. The headache resolved quickly.",
            "clinical",
        );
        docs.add_document(
            "forum",
            "Drug B made my symptoms worse. I stopped taking Drug B after a week.",
            "forum",
        );
        docs.add_document(
            "review",
            "Product Alpha is reliable. The battery of Product Alpha lasts days.",
            "review",
        );
        let docs = Arc::new(docs);
        let mut b = GraphBuilder::new(slm.clone());
        b.add_docstore(&docs);
        let (g, _) = b.finish();
        (slm, Arc::new(g), docs)
    }

    fn retriever() -> TopologyRetriever {
        let (slm, g, d) = setup();
        TopologyRetriever::new(slm, g, d, TopologyConfig::default())
    }

    #[test]
    fn anchors_link_exact() {
        let r = retriever();
        let (primary, _) = r.anchor_sets("What happened to Patient X after Drug A?");
        assert!(primary.len() >= 2);
    }

    #[test]
    fn anchors_fuzzy_fallback() {
        let r = retriever();
        // "Druga" is a typo; fuzzy linking should still find drug a.
        let (primary, _) = r.anchor_sets("side effects of Druga");
        assert!(!primary.is_empty());
    }

    #[test]
    fn fuzzy_linking_never_lands_on_a_value_or_metric() {
        let mut g = HetGraph::new();
        let metric = g.add_entity("revenue", EntityKind::Metric);
        let quarter = g.add_entity("q2 2024", EntityKind::Quarter);
        let money = g.add_entity("$1200", EntityKind::Money);
        let product = g.add_entity("widget pro", EntityKind::Product);
        let chunk = g.add_chunk(0);
        g.add_edge(chunk, metric, unisem_hetgraph::EdgeKind::Mentions);
        let (slm, _, docs) = setup();
        let r = TopologyRetriever::new(slm, Arc::new(g), docs, TopologyConfig::default());
        let mut examined = 0;
        for (near_miss, of) in [("revenu", metric), ("q2 2025", quarter), ("$12000", money)] {
            let NodeKind::Entity { name, .. } = r.graph.node(of) else { panic!("{of:?}") };
            assert!(unisem_text::jaro_winkler(name, near_miss) >= 0.88, "{near_miss} is near");
            assert_eq!(r.link_fuzzy(near_miss, &mut examined), None, "{near_miss}");
        }
        assert_eq!(r.link_fuzzy("widget pr", &mut examined), Some(product));
        assert_eq!(r.graph.referential_entities().len(), 1, "only the product is a candidate");
    }

    #[test]
    fn anchors_token_containment_fallback() {
        let r = retriever();
        let (primary, _) = r.anchor_sets("tell me about the headache cases");
        assert!(!primary.is_empty());
    }

    #[test]
    fn retrieves_entity_relevant_chunks() {
        let r = retriever();
        let (hits, stats) = r.retrieve_with_stats("How did Drug A affect Patient X?", 2);
        assert!(!hits.is_empty());
        assert!(!stats.lexical_fallback);
        assert!(stats.nodes_touched > 0);
        assert!(
            stats.nodes_popped >= stats.nodes_touched.min(1),
            "a non-lexical traversal performs at least one expansion"
        );
        // Top hit should be from the trial document (chunk of doc 0).
        let (_, _, docs) = setup();
        let top_doc = docs.chunk(hits[0].chunk_id).unwrap().doc_id;
        assert_eq!(top_doc, 0);
    }

    #[test]
    fn distinguishes_drugs() {
        let r = retriever();
        let (_, _, docs) = setup();
        let hits = r.retrieve("experiences with Drug B", 1);
        assert_eq!(docs.chunk(hits[0].chunk_id).unwrap().doc_id, 1);
    }

    #[test]
    fn no_anchor_falls_back_to_lexical() {
        let r = retriever();
        let (hits, stats) = r.retrieve_with_stats("reliable battery lasts", 2);
        assert!(stats.lexical_fallback || !hits.is_empty());
    }

    #[test]
    fn hop_bound_limits_frontier() {
        let (slm, g, d) = setup();
        let narrow = TopologyRetriever::new(
            slm.clone(),
            g.clone(),
            d.clone(),
            TopologyConfig { max_hops: 1, ..TopologyConfig::default() },
        );
        let wide = TopologyRetriever::new(
            slm,
            g,
            d,
            TopologyConfig { max_hops: 4, ..TopologyConfig::default() },
        );
        let (_, s1) = narrow.retrieve_with_stats("Drug A results", 3);
        let (_, s4) = wide.retrieve_with_stats("Drug A results", 3);
        assert!(s1.nodes_touched <= s4.nodes_touched);
        assert!(s1.nodes_touched > 0);
    }

    #[test]
    fn frontier_cap_truncates_and_reports() {
        let (slm, g, d) = setup();
        let capped = TopologyRetriever::new(
            slm.clone(),
            g.clone(),
            d.clone(),
            TopologyConfig { max_frontier: 2, ..TopologyConfig::default() },
        );
        let uncapped = TopologyRetriever::new(slm, g, d, TopologyConfig::default());
        let q = "How did Drug A affect Patient X?";
        let (_, sc) = capped.retrieve_with_stats(q, 3);
        let (_, su) = uncapped.retrieve_with_stats(q, 3);
        assert!(sc.frontier_capped);
        assert!(!su.frontier_capped);
        assert!(sc.nodes_touched <= su.nodes_touched);
        // The truncated frontier is deterministic, too.
        assert_eq!(capped.retrieve(q, 3), capped.retrieve(q, 3));
    }

    #[test]
    fn prior_is_computed_once_per_graph_version_on_first_use() {
        let (slm, g, d) = setup();
        let mut r = TopologyRetriever::new(slm, g.clone(), d.clone(), TopologyConfig::default());
        let q = "How did Drug A affect Patient X?";
        let lazy = r.retrieve(q, 3);
        assert!(!r.ensure_prior(), "the first traversal computed the prior");
        let eager = retriever();
        assert!(eager.ensure_prior(), "nothing computes it before first use");
        assert!(!eager.ensure_prior());
        assert_eq!(lazy, eager.retrieve(q, 3), "when the prior is computed changes no score");

        // A new graph version drops the prior; releasing the handles lets
        // the owner mutate in place.
        r.rebind(Arc::default(), Arc::default());
        let (mut g, mut d) = (g, d);
        assert!(Arc::get_mut(&mut g).is_some() && Arc::get_mut(&mut d).is_some());
        r.rebind(g, d);
        assert!(r.ensure_prior());
        assert_eq!(r.retrieve(q, 3), lazy);
    }

    #[test]
    fn deterministic() {
        let r = retriever();
        assert_eq!(r.retrieve("Drug A for Patient X", 3), r.retrieve("Drug A for Patient X", 3));
    }

    #[test]
    fn index_bytes_positive_and_name() {
        let r = retriever();
        assert!(r.index_bytes() > 0);
        assert_eq!(r.name(), "topology");
    }
}
