//! Benchmark inputs, all generated from the `--seed` argument: the corpus,
//! the question draws, the delta stream, and the input-byte accounting the
//! space metrics divide by. The engine receives only what is generated here.

use detkit::Rng;
use unisem_core::{Delta, EngineBuilder, EngineConfig, FaultPlan, ParallelConfig, UnifiedEngine};
use unisem_hetgraph::EdgeKind;
use unisem_relstore::Value;
use unisem_slm::EntityKind;
use unisem_workloads::{
    names, EcommerceWorkload, GoldAnswer, QaCategory, QaItem, ScaleConfig, ScaleWorkload,
};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5CA1E;

/// Quarters of sales history in every corpus (the `scalebench` tiers' value).
const QUARTERS: usize = 4;

/// Engine pool width: this machine's `nproc`, pinned so a run never depends
/// on `UNISEM_THREADS`.
pub const THREADS: usize = 2;

/// The corpus of one `ScaleWorkload` tier (relational tables, JSON
/// collections, documents, lexicon and gold QA) for a product count and seed.
pub fn corpus(products: usize, seed: u64) -> EcommerceWorkload {
    ScaleWorkload::generate(ScaleConfig { products, quarters: QUARTERS, queries: 1, seed }).data
}

/// The engine configuration every run uses: faults pinned off, the pool
/// pinned to [`THREADS`], explain traces only where a run measures them.
pub fn engine_config(trace: bool) -> EngineConfig {
    EngineConfig {
        faults: FaultPlan::disabled(),
        parallel: ParallelConfig::with_threads(THREADS),
        trace,
        ..EngineConfig::default()
    }
}

/// Feeds every modality of the corpus to a builder and builds the engine.
pub fn build_engine(w: &EcommerceWorkload, config: EngineConfig) -> UnifiedEngine {
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
    for name in w.db.table_names() {
        let table = w.db.table(name).expect("listed table exists").clone();
        b.add_table(name, table).expect("table names are unique");
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

/// UTF-8 bytes of everything the corpus hands the engine: document titles,
/// texts and sources, JSON sources as rendered text, and rendered table
/// cells. The denominator of `index_bytes_per_input_byte`.
pub fn corpus_bytes(w: &EcommerceWorkload) -> u64 {
    let docs: usize =
        w.documents.iter().map(|d| d.title.len() + d.text.len() + d.source.len()).sum();
    let json: usize = w
        .semi
        .collections()
        .iter()
        .flat_map(|coll| w.semi.docs(coll))
        .map(|doc| doc.to_json().len())
        .sum();
    let cells: usize =
        w.db.table_names()
            .iter()
            .map(|name| w.db.table(name).expect("listed table exists"))
            .flat_map(|t| t.rows())
            .flatten()
            .map(|v| v.to_string().len())
            .sum();
    (docs + json + cells) as u64
}

/// UTF-8 bytes of a delta's user-supplied fields. The denominator of
/// `wal_bytes_per_input_byte`.
pub fn delta_bytes(delta: &Delta) -> u64 {
    let n = match delta {
        Delta::DocAdd { title, text, source } => title.len() + text.len() + source.len(),
        Delta::TableRow { table, values } => {
            table.len() + values.iter().map(|v| v.to_string().len()).sum::<usize>()
        }
        Delta::SemiFragment { collection, json } => collection.len() + json.len(),
        Delta::GraphEntity { name, kind } => name.len() + kind.label().len(),
        Delta::GraphEdge { a, b, kind } => a.len() + b.len() + kind.label().len(),
    };
    n as u64
}

/// Largest answer set of a generated multi-entity question.
const MAX_QUALIFYING: usize = 8;

/// Multi-entity questions ("which products grew more than t % in Q?") made
/// here from the gold sales, because the corpus's own are too few to rely
/// on: it asks at most three distinct ones, and on seeds where its rounded
/// threshold excludes every product it asks none. The threshold sits
/// midway between two adjacent distinct growth figures, so the qualifying
/// set is exact.
pub fn multi_entity_questions(w: &EcommerceWorkload) -> Vec<QaItem> {
    let mut out = Vec::new();
    for quarter in 1..QUARTERS {
        let mut changes: Vec<(usize, f64)> = w
            .gold_sales
            .iter()
            .enumerate()
            .filter_map(|(product, rows)| rows[quarter].1.map(|pct| (product, pct)))
            .collect();
        changes.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for take in 1..=MAX_QUALIFYING.min(changes.len() - 1) {
            let (above, below) = (changes[take - 1].1, changes[take].1);
            if above <= below {
                continue;
            }
            let threshold = ((above + below) / 2.0 * 100.0).round() / 100.0;
            let qualifying: Vec<String> =
                changes[..take].iter().map(|(product, _)| names::product(*product)).collect();
            out.push(QaItem {
                id: out.len(),
                question: format!(
                    "Which products had a sales increase of more than {threshold}% in {}?",
                    names::quarter(quarter)
                ),
                entities: qualifying.iter().map(|name| name.to_lowercase()).collect(),
                gold: GoldAnswer::AllOf(qualifying),
                category: QaCategory::MultiEntityFilter,
                gold_doc_ids: Vec::new(),
            });
        }
    }
    out
}

/// Draws `n` questions: categories cycle through `mix` in order (so shares
/// are exact), the question within a category is drawn with replacement.
pub fn draw_questions(
    w: &EcommerceWorkload,
    mix: &[QaCategory],
    n: usize,
    rng: &mut Rng,
) -> Vec<QaItem> {
    let multi_entity = multi_entity_questions(w);
    let pools: Vec<Vec<&QaItem>> = mix
        .iter()
        .map(|&cat| match cat {
            QaCategory::MultiEntityFilter => multi_entity.iter().collect(),
            _ => w.qa.iter().filter(|q| q.category == cat).collect(),
        })
        .collect();
    for (cat, pool) in mix.iter().zip(&pools) {
        assert!(!pool.is_empty(), "corpus has no {} questions", cat.label());
    }
    (0..n)
        .map(|i| {
            let pool = &pools[i % mix.len()];
            pool[rng.gen_range(0..pool.len())].clone()
        })
        .collect()
}

/// One rotation of the ingest stream: the five delta kinds, all about one
/// product's next quarter, and the read that must reflect them.
#[derive(Debug, Clone)]
pub struct Rotation {
    /// doc_add, table_row, semi_fragment, graph_entity, graph_edge — in
    /// that order (the edge's endpoints exist when it arrives).
    pub deltas: [Delta; 5],
    /// Question about the touched product, asked after the five deltas.
    pub read: String,
    /// Its answer once the deltas are visible (the new all-quarter total).
    pub gold: GoldAnswer,
    /// Its answer before them; a read that matches this missed its writes.
    pub stale: GoldAnswer,
}

/// The `r`-th rotation over the corpus: product `r` sells a fifth quarter.
/// The new amount is a quarter of the old total, far outside the 2 %
/// tolerance of the gold check, so a stale read cannot pass as fresh.
pub fn rotation(w: &EcommerceWorkload, r: usize, rng: &mut Rng) -> Rotation {
    assert!(r < w.config.products, "rotation {r} would touch a product twice");
    let product = names::product(r);
    let quarter = names::quarter(QUARTERS);
    let total: f64 = w.gold_sales[r].iter().map(|(amount, _)| amount).sum();
    let amount = ((total * 0.25 / 10.0).round() + rng.gen_range(0..50) as f64) * 10.0;
    let units = (amount / 10.0) as i64;
    let last = w.gold_sales[r][QUARTERS - 1].0;
    let pct = ((amount - last) / last * 1000.0).round() / 10.0;
    let supplier = format!("Supplier {r} Works");
    let numeric = |value| GoldAnswer::Numeric { value, tolerance: 0.02 };
    Rotation {
        deltas: [
            Delta::DocAdd {
                title: format!("{product} {quarter} report"),
                text: format!(
                    "In {quarter}, {product} sales changed {pct}% to ${amount}. \
                     Customers purchased {units} units of {product}."
                ),
                source: "report".to_string(),
            },
            Delta::TableRow {
                table: "sales".to_string(),
                values: vec![
                    Value::str(product.clone()),
                    Value::str(quarter.clone()),
                    Value::float(amount),
                    Value::Int(units),
                    Value::float(pct),
                ],
            },
            Delta::SemiFragment {
                collection: "orders".to_string(),
                json: format!(
                    "{{\"order_id\": {}, \"product\": \"{product}\", \"quarter\": \"{quarter}\", \
                     \"units\": {units}, \"amount\": {amount}}}",
                    100_000 + r
                ),
            },
            Delta::GraphEntity { name: supplier.clone(), kind: EntityKind::Organization },
            Delta::GraphEdge {
                a: supplier,
                b: product.clone(),
                kind: EdgeKind::RelatesTo("supplies".to_string()),
            },
        ],
        read: format!("What was the total sales amount of {product} across all quarters?"),
        gold: numeric(total + amount),
        stale: numeric(total),
    }
}

/// Rotations `from..from + n` of the ingest stream.
pub fn rotations(w: &EcommerceWorkload, from: usize, n: usize, rng: &mut Rng) -> Vec<Rotation> {
    (from..from + n).map(|r| rotation(w, r, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_bytes_counts_every_modality_of_a_four_product_corpus() {
        let w = corpus(4, 7);
        // 4 products × 4 quarters of reports, 4 news, 4 × 2 reviews.
        assert_eq!(w.documents.len(), 28);
        let docs: u64 = w
            .documents
            .iter()
            .map(|d| (d.title.len() + d.text.len() + d.source.len()) as u64)
            .sum();
        let total = corpus_bytes(&w);
        assert!(total > docs, "JSON and table bytes are counted on top of documents");

        // Counted by hand for one row of each structured source.
        let first_order = w.semi.docs("orders")[0].to_json();
        assert!(first_order.contains("\"order_id\":1000"), "{first_order}");
        let sales = w.db.table("sales").expect("sales");
        let row: u64 = sales.row(0).iter().map(|v| v.to_string().len() as u64).sum();
        let name = names::product(0);
        assert!(row > name.len() as u64 + "Q1 2023".len() as u64);

        // Dropping a document lowers the count by exactly its bytes.
        let mut fewer = w.clone();
        let gone = fewer.documents.pop().expect("documents");
        let gone_bytes = (gone.title.len() + gone.text.len() + gone.source.len()) as u64;
        assert_eq!(corpus_bytes(&fewer), total - gone_bytes);

        // Same seed, same bytes; another seed, other amounts.
        assert_eq!(corpus_bytes(&corpus(4, 7)), total);
        assert_ne!(corpus_bytes(&corpus(4, 8)), total);
    }

    #[test]
    fn delta_bytes_counts_user_fields() {
        let d = Delta::DocAdd { title: "ab".into(), text: "cdé".into(), source: "f".into() };
        assert_eq!(delta_bytes(&d), 2 + 4 + 1);
        let row = Delta::TableRow {
            table: "t".into(),
            values: vec![Value::str("xy"), Value::Int(123), Value::float(1.5)],
        };
        assert_eq!(delta_bytes(&row), 1 + 2 + 3 + 3);
        let frag = Delta::SemiFragment { collection: "c".into(), json: "{}".into() };
        assert_eq!(delta_bytes(&frag), 3);
    }

    #[test]
    fn question_draws_cycle_categories_and_follow_the_seed() {
        let w = corpus(8, 1);
        let mix = [QaCategory::Aggregate, QaCategory::Comparative];
        let a = draw_questions(&w, &mix, 10, &mut Rng::new(5));
        let b = draw_questions(&w, &mix, 10, &mut Rng::new(5));
        assert_eq!(a, b);
        for (i, q) in a.iter().enumerate() {
            assert_eq!(q.category, mix[i % 2]);
        }
    }

    #[test]
    fn multi_entity_thresholds_separate_the_qualifying_set() {
        let w = corpus(16, 11);
        let questions = multi_entity_questions(&w);
        assert!(!questions.is_empty());
        for q in &questions {
            let GoldAnswer::AllOf(names) = &q.gold else { panic!("entity-list gold") };
            let threshold: f64 = q
                .question
                .split("more than ")
                .nth(1)
                .and_then(|rest| rest.split('%').next())
                .and_then(|t| t.parse().ok())
                .expect("threshold in the question");
            let quarter = (1..QUARTERS)
                .find(|j| q.question.contains(&names::quarter(*j)))
                .expect("quarter in the question");
            let above: Vec<String> = (0..16)
                .filter(|p| w.gold_sales[*p][quarter].1.is_some_and(|pct| pct > threshold))
                .map(names::product)
                .collect();
            let mut want = names.clone();
            want.sort();
            let mut got = above;
            got.sort();
            assert_eq!(got, want, "{}", q.question);
        }
    }

    #[test]
    fn rotation_gold_separates_fresh_from_stale() {
        let w = corpus(4, 3);
        let rot = rotation(&w, 2, &mut Rng::new(9));
        let (GoldAnswer::Numeric { value: fresh, .. }, GoldAnswer::Numeric { value: stale, .. }) =
            (&rot.gold, &rot.stale)
        else {
            panic!("numeric golds");
        };
        assert!(fresh > &(stale * 1.2), "new quarter adds about a quarter of the total");
        assert_eq!(
            rot.deltas.iter().map(Delta::label).collect::<Vec<_>>(),
            ["doc_add", "table_row", "semi_fragment", "graph_entity", "graph_edge"]
        );
    }
}
