//! Differential properties for the topology retriever (detkit harness):
//! the dense-id `Vec` form against the tree-map form it replaced, over
//! generated corpora, graphs and queries.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use detkit::prop::{usizes, vec_of, zip3, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_docstore::DocStore;
use unisem_hetgraph::algo::pagerank;
use unisem_hetgraph::{GraphBuilder, HetGraph, NodeId, NodeKind};
use unisem_retrieval::{RetrievalResult, TopologyConfig, TopologyRetriever, TraversalStats};
use unisem_slm::{EntityKind, Lexicon, Slm, SlmConfig};
use unisem_text::normalize::is_stopword;
use unisem_text::similarity::{jaro_winkler, JaroWinklerAtLeast};
use unisem_text::tokenize::tokenize_words;

/// Phrases documents are made of: lexicon entities of referential, value
/// and metric kinds (one label non-ASCII, one holding a word twice), then
/// plain words.
const DOC_PHRASES: &[&str] = &[
    "Drug A",
    "Drug B",
    "Drug C",
    "Product Alpha",
    "Product Beta",
    "Patient X",
    "Patient Y",
    "headache",
    "nausea",
    "Café Crème",
    "Bora Bora",
    "Q1 2024",
    "Q2 2024",
    "sales",
    "improved",
    "reported",
    "trial",
    "battery",
    "reliable",
    "symptoms",
    "worse",
    "week",
];

/// What only queries say: near misses for the fuzzy fallback (several
/// entities are equally close to "Drug X"; "Cafe Creme" is an ASCII miss
/// of a non-ASCII label) and unindexed capitalized names.
const NEAR_MISSES: &[&str] = &[
    "Drug X",
    "Druga",
    "Produkt Alpha",
    "Patient Z",
    "Product",
    "Zebra",
    "Cafe Creme",
    "Bora Borra",
];

/// Words no tagger rule fires on: stopwords, and bare label words for the
/// containment fallback ("patient" is in two labels of often equal degree,
/// "bora" twice in one label).
const UNTAGGED_WORDS: &[&str] =
    &["patient", "drug", "product", "alpha", "what happened to", "the", "trial", "bora", "crème"];

fn lexicon() -> Lexicon {
    Lexicon::new().with_entries([
        ("Drug A", EntityKind::Drug),
        ("Drug B", EntityKind::Drug),
        ("Drug C", EntityKind::Drug),
        ("Product Alpha", EntityKind::Product),
        ("Product Beta", EntityKind::Product),
        ("Patient X", EntityKind::Person),
        ("Patient Y", EntityKind::Person),
        ("headache", EntityKind::Condition),
        ("nausea", EntityKind::Condition),
        ("Café Crème", EntityKind::Product),
        ("Bora Bora", EntityKind::Location),
        ("sales", EntityKind::Metric),
    ])
}

/// A corpus (documents → sentences → indices into `DOC_PHRASES`), a query
/// and `k`.
type Case = (Vec<Vec<Vec<usize>>>, String, usize);

/// Corpora of one to `max_docs` documents.
fn corpora(max_docs: usize) -> Gen<Vec<Vec<Vec<usize>>>> {
    let sentence = vec_of(&usizes(0, DOC_PHRASES.len() - 1), 2, 6);
    vec_of(&vec_of(&sentence, 1, 4), 1, max_docs)
}

/// Queries of one to five phrases from `pools`.
fn queries(pools: &'static [&'static [&'static str]]) -> Gen<String> {
    let pool = pools.concat();
    vec_of(&usizes(0, pool.len() - 1), 1, 5)
        .map(move |ix| ix.iter().map(|&i| pool[i]).collect::<Vec<_>>().join(" "))
}

/// Cases whose queries are one to five phrases from `pools`.
fn cases(pools: &'static [&'static [&'static str]]) -> Gen<Case> {
    zip3(&corpora(10), &queries(pools), &usizes(0, 4))
}

/// Queries that name entities, miss them narrowly, or name none.
fn mixed_cases() -> Gen<Case> {
    cases(&[DOC_PHRASES, NEAR_MISSES, UNTAGGED_WORDS])
}

fn text_of(phrases: &[usize]) -> String {
    phrases.iter().map(|&i| DOC_PHRASES[i]).collect::<Vec<_>>().join(" ")
}

fn substrates(corpus: &[Vec<Vec<usize>>]) -> (Slm, Arc<HetGraph>, Arc<DocStore>) {
    let slm = Slm::new(SlmConfig { lexicon: lexicon(), ..SlmConfig::default() });
    let mut docs = DocStore::default();
    for (i, doc) in corpus.iter().enumerate() {
        let text: String = doc.iter().map(|s| format!("The {}. ", text_of(s))).collect();
        docs.add_document(format!("doc {i}"), text, "generated");
    }
    let docs = Arc::new(docs);
    let mut builder = GraphBuilder::new(slm.clone());
    builder.add_docstore(&docs);
    (slm, Arc::new(builder.finish().0), docs)
}

/// The retriever as it was before the dense-id rewrite: per-mention and
/// per-word walks over the referential entities in id order, and a
/// `BTreeMap` for every id-keyed table. Its lexical half is an unbounded
/// BM25 search looked up per candidate chunk.
struct Reference {
    slm: Slm,
    graph: Arc<HetGraph>,
    docs: Arc<DocStore>,
    config: TopologyConfig,
}

/// The graph's referential entities with their names, in id order.
fn referential(graph: &HetGraph) -> impl Iterator<Item = (NodeId, &str)> + '_ {
    graph.nodes().iter().enumerate().filter_map(|(i, n)| match n {
        NodeKind::Entity { name, kind } if kind.is_referential() => {
            Some((NodeId(i as u32), name.as_str()))
        }
        _ => None,
    })
}

impl Reference {
    /// The anchor sets, and the labels the linker examines: for fuzzy
    /// linking, the referential labels in a char length the bound admits;
    /// for containment, the referential entities holding each word.
    fn anchor_sets(&self, query: &str) -> (Vec<NodeId>, Vec<NodeId>, usize) {
        let mut examined = 0;
        let mentions = self.slm.tag_entities(query);
        let mut primary: Vec<NodeId> = Vec::new();
        let mut constraints: Vec<NodeId> = Vec::new();
        let mut unmatched: Vec<String> = Vec::new();
        for m in &mentions {
            if matches!(m.kind, EntityKind::Quantity | EntityKind::Percent | EntityKind::Metric) {
                continue;
            }
            match self.graph.entity_by_name(&m.canonical()) {
                Some(id) if m.kind.is_value() => constraints.push(id),
                Some(id) => primary.push(id),
                None if !m.kind.is_value() => unmatched.push(m.canonical()),
                None => {}
            }
        }
        for name in unmatched {
            let bound = JaroWinklerAtLeast::new(&name, self.config.fuzzy_threshold);
            examined += referential(&self.graph)
                .filter(|(_, label)| bound.may_reach_length(label.chars().count()))
                .count();
            let best = referential(&self.graph)
                .map(|(id, label)| (id, jaro_winkler(label, &name)))
                .filter(|(_, s)| *s >= self.config.fuzzy_threshold)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
            if let Some((id, _)) = best {
                primary.push(id);
            }
        }
        if primary.is_empty() {
            let words: Vec<String> = tokenize_words(query)
                .into_iter()
                .filter(|w| !is_stopword(w) && w.len() > 2)
                .collect();
            for w in &words {
                let holding = || {
                    referential(&self.graph)
                        .filter(|(_, label)| label.split_whitespace().any(|part| part == w))
                };
                examined += holding().count();
                if let Some((id, _)) = holding().max_by_key(|&(id, _)| self.graph.degree(id)) {
                    primary.push(id);
                }
            }
        }
        primary.sort();
        primary.dedup();
        constraints.sort();
        constraints.dedup();
        (primary, constraints, examined)
    }

    fn bounded_traversal(
        &self,
        start: NodeId,
        max_cost: f64,
    ) -> (BTreeMap<NodeId, f64>, bool, usize) {
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

        let mut dist: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut heap = BinaryHeap::new();
        let mut capped = false;
        let mut popped = 0usize;
        dist.insert(start, 0.0);
        heap.push(Item { cost: 0.0, node: start });
        while let Some(Item { cost, node }) = heap.pop() {
            if cost > *dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue;
            }
            popped += 1;
            if node != start && self.graph.degree(node) > self.config.hub_cap {
                continue;
            }
            for &(next, edge) in self.graph.neighbors(node) {
                let c = cost + self.graph.edge(edge).kind.traversal_cost();
                if c <= max_cost && c < *dist.get(&next).unwrap_or(&f64::INFINITY) {
                    if !dist.contains_key(&next) && dist.len() >= self.config.max_frontier {
                        capped = true;
                        continue;
                    }
                    dist.insert(next, c);
                    heap.push(Item { cost: c, node: next });
                }
            }
        }
        (dist, capped, popped)
    }

    fn retrieve_with_stats(&self, query: &str, k: usize) -> (Vec<RetrievalResult>, TraversalStats) {
        let (primary, constraints, labels_examined) = self.anchor_sets(query);
        let anchors: &[NodeId] = if primary.is_empty() { &constraints } else { &primary };
        let mut stats = TraversalStats {
            anchors: primary.len() + constraints.len(),
            labels_examined,
            ..TraversalStats::default()
        };
        if anchors.is_empty() {
            stats.lexical_fallback = true;
            stats.postings_scanned = self.docs.index().postings_scanned(query);
            let hits = self
                .docs
                .search(query, k)
                .into_iter()
                .map(|h| RetrievalResult { chunk_id: h.chunk_id, score: h.score })
                .collect();
            return (hits, stats);
        }

        let max_cost = if primary.is_empty() { 1.0 } else { self.config.max_hops as f64 * 2.0 };
        let mut proximity: BTreeMap<NodeId, f64> = BTreeMap::new();
        for &a in anchors {
            let (reached, capped, popped) = self.bounded_traversal(a, max_cost);
            stats.frontier_capped |= capped;
            stats.nodes_popped += popped;
            for (node, cost) in reached {
                *proximity.entry(node).or_insert(0.0) += self.config.decay.powf(cost);
            }
        }
        if !primary.is_empty() {
            for &c in &constraints {
                for &(nb, _) in self.graph.neighbors(c) {
                    if let Some(p) = proximity.get_mut(&nb) {
                        *p += self.config.decay;
                    }
                }
            }
        }
        stats.nodes_touched = proximity.len();

        let mut prior = pagerank(&self.graph, self.config.damping, self.config.iterations);
        let max = prior.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        for p in prior.iter_mut() {
            *p /= max;
        }
        let mut topo: BTreeMap<usize, f64> = BTreeMap::new();
        for (&node, &prox) in &proximity {
            if let NodeKind::Chunk { chunk_id } = *self.graph.node(node) {
                topo.insert(chunk_id, prox * (0.5 + 0.5 * prior[node.0 as usize]));
            }
        }
        stats.chunks_scored = topo.len();

        // What the candidate scorer reads is its own count; the text props
        // bound it by the index count.
        let ids: Vec<usize> = topo.keys().copied().collect();
        stats.postings_scanned = self.docs.index().score_docs(query, &ids).1;
        let all: BTreeMap<usize, f64> = self
            .docs
            .search(query, usize::MAX)
            .into_iter()
            .map(|h| (h.chunk_id, h.score))
            .collect();
        let lex = |c: &usize| all.get(c).copied().unwrap_or(0.0);
        let topo_max = topo.values().cloned().fold(0.0f64, f64::max).max(1e-12);
        let lex_max = topo.keys().map(lex).fold(0.0f64, f64::max).max(1e-12);

        let mut fused: BTreeMap<usize, f64> = BTreeMap::new();
        for (c, &t) in &topo {
            let l = lex(c);
            fused.insert(*c, self.config.alpha * t / topo_max + self.config.beta * l / lex_max);
        }
        let mut results: Vec<RetrievalResult> = fused
            .into_iter()
            .map(|(chunk_id, score)| RetrievalResult { chunk_id, score })
            .collect();
        results.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then(a.chunk_id.cmp(&b.chunk_id))
        });
        results.truncate(k);
        (results, stats)
    }
}

fn bits(hits: &[RetrievalResult]) -> Vec<(usize, u64)> {
    hits.iter().map(|h| (h.chunk_id, h.score.to_bits())).collect()
}

/// Hits (bit for bit), every `TraversalStats` field and the anchor sets of
/// both forms under `config`; returns the stats for the caller to inspect.
fn check_against_reference(case: &Case, config: TopologyConfig) -> Result<TraversalStats, String> {
    let (corpus, query, k) = case;
    let (slm, graph, docs) = substrates(corpus);
    let reference =
        Reference { slm: slm.clone(), graph: graph.clone(), docs: docs.clone(), config };
    let retriever = TopologyRetriever::new(slm, graph, docs.clone(), config);
    let (primary, constraints, _) = reference.anchor_sets(query);
    prop_assert_eq!(retriever.anchor_sets(query), (primary, constraints), "{query:?}");
    let (got, got_stats) = retriever.retrieve_with_stats(query, *k);
    let (want, want_stats) = reference.retrieve_with_stats(query, *k);
    prop_assert_eq!(bits(&got), bits(&want), "{query:?} k = {k}");
    prop_assert_eq!(got_stats, want_stats, "{query:?} k = {k}");
    let scanned = docs.index().postings_scanned(query);
    if got_stats.lexical_fallback {
        prop_assert_eq!(got_stats.postings_scanned, scanned);
    } else {
        prop_assert!(got_stats.postings_scanned <= scanned, "{query:?}");
        prop_assert!(got.len() <= got_stats.chunks_scored, "only candidates are hits");
    }
    Ok(got_stats)
}

prop_check!(retrieve_with_stats_matches_tree_map_reference, mixed_cases(), |case| {
    check_against_reference(case, TopologyConfig::default()).map(|_| ())
});

// A frontier of at most three nodes caps every traversal that leaves its
// anchor's immediate neighbourhood; the truncated set must be the same one.
prop_check!(capped_frontier_matches_tree_map_reference, mixed_cases(), |case| {
    let config = TopologyConfig { max_frontier: 3, ..TopologyConfig::default() };
    let stats = check_against_reference(case, config)?;
    prop_assert!(stats.nodes_touched <= 3 * stats.anchors.max(1));
    Ok(())
});

// One hop, no hub damping to speak of, and a threshold loose enough that
// most unmatched mentions link fuzzily to the last of several equals.
prop_check!(loose_linking_matches_tree_map_reference, mixed_cases(), |case| {
    let config = TopologyConfig {
        max_hops: 1,
        hub_cap: 2,
        fuzzy_threshold: 0.7,
        ..TopologyConfig::default()
    };
    check_against_reference(case, config).map(|_| ())
});

// With no mention to link, each content word anchors at the highest-degree
// entity whose label holds it: the last of several equals.
prop_check!(containment_fallback_matches_tree_map_reference, cases(&[UNTAGGED_WORDS]), |case| {
    check_against_reference(case, TopologyConfig::default()).map(|_| ())
});

/// The referential mentions of `query` no entity is named exactly: the
/// ones fuzzy linking scores labels for.
fn unmatched_mentions(slm: &Slm, graph: &HetGraph, query: &str) -> Vec<String> {
    slm.tag_entities(query)
        .iter()
        .filter(|m| m.kind.is_referential())
        .map(|m| m.canonical())
        .filter(|name| graph.entity_by_name(name).is_none())
        .collect()
}

/// How many entities share the best of `scores`.
fn ties<T: PartialOrd>(scores: impl Iterator<Item = T>) -> usize {
    let scores: Vec<T> = scores.collect();
    let best = scores.iter().fold(None, |top: Option<&T>, s| match top {
        Some(t) if t >= s => Some(t),
        _ => Some(s),
    });
    best.map_or(0, |best| scores.iter().filter(|&s| s == best).count())
}

// The generator reaches every branch the properties above are about,
// including both sides of the fuzzy linker's bound (a mention the bound
// rules out against every label, and mentions that link at 0.7 and at
// 0.88), the ties both fallbacks break by id (equal fuzzy scores, equal
// degrees), a non-ASCII anchor, and a label holding its word twice.
#[test]
fn generated_cases_cover_the_branches() {
    let (mut capped, mut fallback, mut traversed, mut multi_anchor) = (0, 0, 0, 0);
    let (mut ruled_out, mut linked_loose, mut linked_default) = (0, 0, 0);
    let (mut fuzzy_ties, mut degree_ties, mut non_ascii, mut twice) = (0, 0, 0, 0);
    let mut rng = detkit::Rng::new(7);
    for _ in 0..64 {
        let case = mixed_cases().generate(&mut rng).value().clone();
        let config = TopologyConfig { max_frontier: 3, ..TopologyConfig::default() };
        let stats = check_against_reference(&case, config).expect("forms agree");
        capped += usize::from(stats.frontier_capped);
        fallback += usize::from(stats.lexical_fallback);
        traversed += usize::from(stats.chunks_scored > 0);
        multi_anchor += usize::from(stats.anchors > 1);

        let (slm, graph, docs) = substrates(&case.0);
        for name in unmatched_mentions(&slm, &graph, &case.1) {
            let loose = JaroWinklerAtLeast::new(&name, 0.7);
            let default = JaroWinklerAtLeast::new(&name, 0.88);
            let labels = || referential(&graph).map(|(_, label)| label);
            ruled_out += usize::from(labels().all(|l| !loose.may_reach(l)));
            linked_loose += usize::from(labels().any(|l| loose.score(l).is_some()));
            linked_default += usize::from(labels().any(|l| default.score(l).is_some()));
            fuzzy_ties += usize::from(ties(labels().filter_map(|l| loose.score(l))) > 1);
        }
        let retriever = TopologyRetriever::new(slm, graph.clone(), docs, config);
        let (primary, _) = retriever.anchor_sets(&case.1);
        let name_of = |id| match graph.node(id) {
            NodeKind::Entity { name, .. } => name.as_str(),
            _ => "",
        };
        non_ascii += usize::from(primary.iter().any(|&id| !name_of(id).is_ascii()));
    }
    for _ in 0..64 {
        let (corpus, query, _) = cases(&[UNTAGGED_WORDS]).generate(&mut rng).value().clone();
        let (_, graph, _) = substrates(&corpus);
        for word in tokenize_words(&query) {
            let holding =
                || referential(&graph).filter(|(_, l)| l.split_whitespace().any(|p| p == word));
            degree_ties += usize::from(ties(holding().map(|(id, _)| graph.degree(id))) > 1);
            twice += usize::from(holding().any(|(_, l)| l.matches(word.as_str()).count() > 1));
        }
    }
    assert!(capped > 0 && fallback > 0 && traversed > 0 && multi_anchor > 0);
    assert!(
        ruled_out > 0 && linked_loose > 0 && linked_default > 0,
        "{ruled_out} ruled out, {linked_loose} linked at 0.7, {linked_default} at 0.88"
    );
    assert!(
        fuzzy_ties > 0 && degree_ties > 0 && non_ascii > 0 && twice > 0,
        "{fuzzy_ties} fuzzy ties, {degree_ties} degree ties, {non_ascii} non-ASCII anchors, \
         {twice} words held twice"
    );
}

/// A corpus, the documents its next version adds, and a run of queries,
/// each with the retriever that answers it (see
/// `reused_scratch_answers_like_a_fresh_retriever`) and its `k`.
type ReuseCase = (Vec<Vec<Vec<usize>>>, Vec<Vec<Vec<usize>>>, Vec<(String, usize, usize)>);

fn reuse_cases() -> Gen<ReuseCase> {
    let question =
        zip3(&queries(&[DOC_PHRASES, NEAR_MISSES, UNTAGGED_WORDS]), &usizes(0, 2), &usizes(0, 4));
    zip3(&corpora(6), &corpora(6), &vec_of(&question, 1, 10))
}

/// A retriever over `substrates` that has answered nothing.
fn fresh(
    substrates: &(Slm, Arc<HetGraph>, Arc<DocStore>),
    config: TopologyConfig,
) -> TopologyRetriever {
    let (slm, graph, docs) = substrates;
    TopologyRetriever::new(slm.clone(), graph.clone(), docs.clone(), config)
}

// The scratch tables a traversal borrows are clean when it returns them:
// any interleaving of questions on one retriever, on its clones, and on
// it after a rebind to a grown graph (while a clone taken before still
// reads the old one) answers bit for bit what a retriever that has
// answered nothing does. Every question is asked under the frontier cap
// too, which truncates mid-expansion.
prop_check!(reused_scratch_answers_like_a_fresh_retriever, reuse_cases(), |case| {
    let (corpus, added, questions) = case;
    let grown: Vec<_> = corpus.iter().chain(added).cloned().collect();
    let (old, new) = (substrates(corpus), substrates(&grown));
    prop_assert!(new.1.num_nodes() > old.1.num_nodes(), "the graph grew");
    for config in
        [TopologyConfig::default(), TopologyConfig { max_frontier: 3, ..TopologyConfig::default() }]
    {
        let mut reused = fresh(&old, config);
        let first = reused.clone();
        let mut before_rebind = None;
        for (i, (query, who, k)) in questions.iter().enumerate() {
            if i == questions.len() / 2 {
                before_rebind = Some(reused.clone());
                reused.rebind(new.1.clone(), new.2.clone());
            }
            // The retriever itself, the clone taken before anything was
            // asked, or the clone taken just before the rebind.
            let (answering, substrate) = match (who, &before_rebind) {
                (0, None) => (&reused, &old),
                (0, Some(_)) => (&reused, &new),
                (1, _) | (_, None) => (&first, &old),
                (_, Some(before)) => (before, &old),
            };
            let (got, got_stats) = answering.retrieve_with_stats(query, *k);
            let (want, want_stats) = fresh(substrate, config).retrieve_with_stats(query, *k);
            prop_assert_eq!(bits(&got), bits(&want), "{query:?} k = {k}, question {i}");
            prop_assert_eq!(got_stats, want_stats, "{query:?} k = {k}, question {i}");
        }
    }
    Ok(())
});

// Traversals in flight at once each hold their own tables: two threads
// sharing one retriever answer what a fresh retriever does.
#[test]
fn concurrent_traversals_answer_like_a_fresh_retriever() {
    let mut rng = detkit::Rng::new(11);
    for _ in 0..16 {
        let (corpus, _, questions) = reuse_cases().generate(&mut rng).value().clone();
        let subs = substrates(&corpus);
        let config = TopologyConfig::default();
        let shared = fresh(&subs, config);
        let want: Vec<_> = questions
            .iter()
            .map(|(q, _, k)| fresh(&subs, config).retrieve_with_stats(q, *k))
            .map(|(hits, stats)| (bits(&hits), stats))
            .collect();
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        questions
                            .iter()
                            .map(|(q, _, k)| shared.retrieve_with_stats(q, *k))
                            .map(|(hits, stats)| (bits(&hits), stats))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for run in runs {
                assert_eq!(run.join().expect("no panic"), want);
            }
        });
    }
}
