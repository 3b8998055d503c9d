//! E-commerce data-lake workload (the paper's §III.C motivating scenario:
//! "a large-scale e-commerce data lake with unstructured customer reviews,
//! product descriptions, and sales records").
//!
//! Modalities generated from one set of gold facts:
//!
//! - `products` / `sales` relational tables,
//! - `orders` JSON collection (semi-structured),
//! - quarterly report documents, product news documents, and customer
//!   review documents (unstructured),
//! - a QA benchmark spanning all six [`QaCategory`]s.

use detkit::Rng;

use unisem_docstore::DocStore;
use unisem_relstore::{DataType, Database, Schema, Table, Value};
use unisem_semistore::{JsonValue, SemiStore};
use unisem_slm::ner::EntityKind;
use unisem_slm::Lexicon;

use crate::names;
use crate::qa::{GoldAnswer, QaCategory, QaItem};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct EcommerceConfig {
    /// Number of products.
    pub products: usize,
    /// Number of quarters of sales history.
    pub quarters: usize,
    /// Reviews per product.
    pub reviews_per_product: usize,
    /// QA items per category.
    pub qa_per_category: usize,
    /// Master seed.
    pub seed: u64,
    /// Offset into the product-name pool: lets multiple workload instances
    /// coexist in one corpus with (mostly) disjoint entity inventories —
    /// the multi-domain data-lake setting of experiment E3.
    pub name_offset: usize,
}

impl Default for EcommerceConfig {
    fn default() -> Self {
        Self {
            products: 12,
            quarters: 4,
            reviews_per_product: 4,
            qa_per_category: 5,
            seed: 0xEC0,
            name_offset: 0,
        }
    }
}

/// A document destined for the docstore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocSpec {
    /// Title.
    pub title: String,
    /// Body text.
    pub text: String,
    /// Source tag.
    pub source: String,
}

/// The generated workload.
#[derive(Debug, Clone)]
pub struct EcommerceWorkload {
    /// Parameters used.
    pub config: EcommerceConfig,
    /// Relational substrate: `products`, `sales`.
    pub db: Database,
    /// Semi-structured substrate: `orders`, `reviews` collections.
    pub semi: SemiStore,
    /// Unstructured documents, in docstore insertion order.
    pub documents: Vec<DocSpec>,
    /// Domain lexicon for the SLM.
    pub lexicon: Lexicon,
    /// QA benchmark.
    pub qa: Vec<QaItem>,
    /// Gold: per product per quarter (amount, change_pct).
    pub gold_sales: Vec<Vec<(f64, Option<f64>)>>,
    /// Gold: manufacturer per product.
    pub gold_maker: Vec<String>,
    /// Gold: average rating per product.
    pub gold_rating: Vec<f64>,
}

impl EcommerceWorkload {
    /// Generates the workload deterministically from the config.
    pub fn generate(config: EcommerceConfig) -> Self {
        assert!(config.products >= 4, "need at least 4 products for comparative QA");
        assert!(config.quarters >= 2, "need at least 2 quarters for change_pct");
        let mut rng = Rng::new(config.seed);
        let pname = |n: usize| names::product(n + config.name_offset);
        let p = config.products;
        let q = config.quarters;
        let n_makers = (p / 3).clamp(2, 10);

        // ---- gold facts ----
        let gold_maker: Vec<String> =
            (0..p).map(|i| names::manufacturer(i % n_makers + config.name_offset)).collect();
        let mut gold_sales: Vec<Vec<(f64, Option<f64>)>> = Vec::with_capacity(p);
        for _ in 0..p {
            let mut rows = Vec::with_capacity(q);
            let mut prev = (rng.gen_range(200..900) * 10) as f64;
            rows.push((prev, None));
            for _ in 1..q {
                // Change between -30% and +40%, one decimal.
                let pct = (rng.gen_range(-300..400) as f64) / 10.0;
                let amount = (prev * (1.0 + pct / 100.0) / 10.0).round() * 10.0;
                let actual_pct = ((amount - prev) / prev * 1000.0).round() / 10.0;
                rows.push((amount, Some(actual_pct)));
                prev = amount;
            }
            gold_sales.push(rows);
        }
        let gold_rating: Vec<f64> = (0..p)
            .map(|_| (rng.gen_range(20..50) as f64) / 10.0) // 2.0..5.0
            .collect();

        // ---- relational tables ----
        let mut db = Database::new();
        let mut products_t = Table::empty(Schema::of(&[
            ("product", DataType::Str),
            ("manufacturer", DataType::Str),
            ("category", DataType::Str),
            ("price", DataType::Float),
        ]));
        for i in 0..p {
            products_t
                .push_row(vec![
                    Value::str(pname(i)),
                    Value::str(gold_maker[i].clone()),
                    Value::str(names::category(i + config.name_offset)),
                    Value::float((rng.gen_range(100..5000) as f64) / 10.0),
                ])
                .expect("schema fixed");
        }
        db.create_table("products", products_t).expect("fresh db");

        let mut sales_t = Table::empty(Schema::of(&[
            ("product", DataType::Str),
            ("quarter", DataType::Str),
            ("amount", DataType::Float),
            ("units", DataType::Int),
            ("change_pct", DataType::Float),
        ]));
        let mut units: Vec<Vec<i64>> = vec![vec![0; q]; p];
        for i in 0..p {
            for j in 0..q {
                let (amount, pct) = gold_sales[i][j];
                units[i][j] = (amount / 10.0).round() as i64;
                sales_t
                    .push_row(vec![
                        Value::str(pname(i)),
                        Value::str(names::quarter(j)),
                        Value::float(amount),
                        Value::Int(units[i][j]),
                        pct.map_or(Value::Null, Value::float),
                    ])
                    .expect("schema fixed");
            }
        }
        db.create_table("sales", sales_t).expect("fresh db");

        // ---- semi-structured: orders + review records ----
        let mut semi = SemiStore::new();
        for i in 0..p {
            for j in 0..q {
                semi.insert(
                    "orders",
                    JsonValue::object([
                        ("order_id", JsonValue::Number((i * q + j) as f64 + 1000.0)),
                        ("product", JsonValue::String(pname(i))),
                        ("quarter", JsonValue::String(names::quarter(j))),
                        ("units", JsonValue::Number(units[i][j] as f64)),
                        ("amount", JsonValue::Number(gold_sales[i][j].0)),
                    ]),
                );
            }
        }

        // ---- documents ----
        let mut documents = Vec::new();
        // Quarterly reports: doc id = i * q + j.
        let report_doc = |i: usize, j: usize| i * q + j;
        for i in 0..p {
            for j in 0..q {
                let product = pname(i);
                let quarter = names::quarter(j);
                let (amount, pct) = gold_sales[i][j];
                let text = match pct {
                    Some(pct) if pct >= 0.0 => format!(
                        "In {quarter}, {product} sales increased {pct}% to ${amount}. \
                         Customers purchased {} units of {product}.",
                        units[i][j]
                    ),
                    Some(pct) => format!(
                        "In {quarter}, {product} sales decreased {}% to ${amount}. \
                         Customers purchased {} units of {product}.",
                        -pct, units[i][j]
                    ),
                    None => format!(
                        "{product} sales reached ${amount} in {quarter}. \
                         Customers purchased {} units of {product}.",
                        units[i][j]
                    ),
                };
                documents.push(DocSpec {
                    title: format!("{product} {quarter} report"),
                    text,
                    source: "report".to_string(),
                });
            }
        }
        // News docs: doc id = p*q + i.
        let news_doc = |i: usize| p * q + i;
        for i in 0..p {
            let product = pname(i);
            let maker = &gold_maker[i];
            documents.push(DocSpec {
                title: format!("{product} launch"),
                text: format!(
                    "{maker} launched the {product} this year. The {product} is \
                     manufactured by {maker} and targets the {} segment.",
                    names::category(i + config.name_offset)
                ),
                source: "news".to_string(),
            });
        }
        // Review docs: doc id = p*q + p + i*reviews + r.
        const GOOD: &[&str] = &[
            "The build quality is excellent and it works flawlessly.",
            "Battery life is outstanding and setup was easy.",
            "Performs beyond expectations, highly recommended.",
        ];
        const BAD: &[&str] = &[
            "It stopped working after a week and support was unhelpful.",
            "The build feels cheap and the manual is confusing.",
            "Constant glitches made it unusable, very disappointing.",
        ];
        for i in 0..p {
            let product = pname(i);
            for r in 0..config.reviews_per_product {
                // Individual ratings centered on the gold average.
                let jitter = rng.gen_range(-10..=10) as f64 / 10.0;
                let rating = (gold_rating[i] + jitter).clamp(1.0, 5.0);
                let rating = (rating * 2.0).round() / 2.0;
                let body = if rating >= 3.5 { GOOD[r % GOOD.len()] } else { BAD[r % BAD.len()] };
                documents.push(DocSpec {
                    title: format!("{product} review {r}"),
                    text: format!("{product} review: {body} Rating: {rating} out of 5."),
                    source: "review".to_string(),
                });
                semi.insert(
                    "reviews",
                    JsonValue::object([
                        ("product", JsonValue::String(product.clone())),
                        ("rating", JsonValue::Number(rating)),
                    ]),
                );
            }
        }

        // ---- lexicon ----
        let mut lexicon = Lexicon::new();
        for i in 0..p {
            lexicon.add(&pname(i), EntityKind::Product);
        }
        for m in gold_maker.iter() {
            lexicon.add(m, EntityKind::Organization);
        }
        for i in 0..6 {
            lexicon.add(&names::category(i + config.name_offset), EntityKind::Category);
        }

        // ---- QA ----
        let mut qa = Vec::new();
        let mut next_id = 0usize;
        let mut push = |qa: &mut Vec<QaItem>,
                        question: String,
                        gold,
                        category,
                        docs: Vec<usize>,
                        ents: Vec<String>| {
            qa.push(QaItem {
                id: {
                    let id = next_id;
                    next_id += 1;
                    id
                },
                question,
                gold,
                category,
                gold_doc_ids: docs,
                entities: ents,
            });
        };

        for k in 0..config.qa_per_category {
            let i = (k * 3 + 1) % p;
            let product = pname(i);

            // Lookup: manufacturer.
            push(
                &mut qa,
                format!("Which manufacturer makes the {product}?"),
                GoldAnswer::AnyOf(vec![gold_maker[i].clone()]),
                QaCategory::SingleEntityLookup,
                vec![news_doc(i)],
                vec![product.to_lowercase()],
            );

            // Aggregate: total sales across quarters.
            let total: f64 = gold_sales[i].iter().map(|(a, _)| a).sum();
            push(
                &mut qa,
                format!("What was the total sales amount of {product} across all quarters?"),
                GoldAnswer::Numeric { value: total, tolerance: 0.02 },
                QaCategory::Aggregate,
                (0..q).map(|j| report_doc(i, j)).collect(),
                vec![product.to_lowercase()],
            );

            // Multi-entity filter: growth above threshold in a quarter.
            let j = 1 + k % (q - 1);
            let quarter = names::quarter(j);
            let mut changes: Vec<(usize, f64)> =
                (0..p).filter_map(|x| gold_sales[x][j].1.map(|c| (x, c))).collect();
            changes.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let take = 1 + k % 3.min(p - 1);
            // Threshold halfway between the take-th and (take+1)-th change.
            let threshold = if take < changes.len() {
                ((changes[take - 1].1 + changes[take].1) / 2.0).round()
            } else {
                0.0
            };
            let qualifying: Vec<String> =
                changes.iter().filter(|(_, c)| *c > threshold).map(|(x, _)| pname(*x)).collect();
            if !qualifying.is_empty() && qualifying.len() < p {
                push(
                    &mut qa,
                    format!(
                        "Which products had a sales increase of more than {threshold}% in {quarter}?"
                    ),
                    GoldAnswer::AllOf(qualifying.clone()),
                    QaCategory::MultiEntityFilter,
                    changes
                        .iter()
                        .filter(|(_, c)| *c > threshold)
                        .map(|(x, _)| report_doc(*x, j))
                        .collect(),
                    qualifying.iter().map(|s| s.to_lowercase()).collect(),
                );
            }

            // Comparative: total sales of two products.
            let a = (k * 5) % p;
            let b = (k * 5 + 2) % p;
            if a != b {
                let ta: f64 = gold_sales[a].iter().map(|(x, _)| x).sum();
                let tb: f64 = gold_sales[b].iter().map(|(x, _)| x).sum();
                let (pa, pb) = (pname(a), pname(b));
                let winner = if ta >= tb { pa.clone() } else { pb.clone() };
                push(
                    &mut qa,
                    format!("Compare the total sales of {pa} and {pb}: which product sold more?"),
                    GoldAnswer::AnyOf(vec![winner]),
                    QaCategory::Comparative,
                    (0..q).flat_map(|j| [report_doc(a, j), report_doc(b, j)]).collect(),
                    vec![pa.to_lowercase(), pb.to_lowercase()],
                );
            }

            // Cross-modal: the change stated in a specific report.
            let j2 = 1 + (k + 1) % (q - 1);
            if let Some(pct) = gold_sales[i][j2].1 {
                push(
                    &mut qa,
                    format!(
                        "By what percentage did {product} sales change in {} according to the quarterly report?",
                        names::quarter(j2)
                    ),
                    GoldAnswer::Numeric { value: pct.abs(), tolerance: 0.02 },
                    QaCategory::CrossModal,
                    vec![report_doc(i, j2)],
                    vec![product.to_lowercase()],
                );
            }

            // Unanswerable: a product that does not exist.
            push(
                &mut qa,
                format!("What was the total sales of the Phantom Gizmo {k} in Q2 2024?"),
                GoldAnswer::Abstain,
                QaCategory::Unanswerable,
                vec![],
                vec![format!("phantom gizmo {k}")],
            );
        }

        Self { config, db, semi, documents, lexicon, qa, gold_sales, gold_maker, gold_rating }
    }

    /// Builds a [`DocStore`] containing the workload documents in order.
    pub fn docstore(&self) -> DocStore {
        let mut d = DocStore::default();
        for spec in &self.documents {
            d.add_document(spec.title.clone(), spec.text.clone(), spec.source.clone());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qa::answer_matches;
    use unisem_relstore::{AggExpr, AggFunc, Expr, LogicalPlan};

    /// `SUM(column)` over the rows of `table` that `predicate` keeps.
    fn sum_where(db: &Database, table: &str, column: &str, predicate: Expr) -> Table {
        let sum = AggExpr { func: AggFunc::Sum, input: Expr::col(column), output_name: "t".into() };
        let plan = LogicalPlan::scan(table).filter(predicate).aggregate(vec![], vec![sum]);
        db.run_plan(&plan).unwrap()
    }

    fn small() -> EcommerceWorkload {
        EcommerceWorkload::generate(EcommerceConfig {
            products: 6,
            quarters: 3,
            reviews_per_product: 2,
            qa_per_category: 2,
            seed: 42,
            name_offset: 0,
        })
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.qa, b.qa);
        assert_eq!(a.gold_sales, b.gold_sales);
    }

    #[test]
    fn tables_consistent_with_gold() {
        let w = small();
        let sales = w.db.table("sales").unwrap();
        assert_eq!(sales.num_rows(), 6 * 3);
        // Cross-check one gold total against SQL.
        let p0 = names::product(0);
        let out = sum_where(&w.db, "sales", "amount", Expr::col("product").eq(Expr::lit(p0)));
        let expected: f64 = w.gold_sales[0].iter().map(|(a, _)| a).sum();
        assert_eq!(out.cell(0, 0), &Value::Float(expected));
    }

    #[test]
    fn change_pct_consistent() {
        let w = small();
        // change_pct in table for q>=1 equals gold.
        let sales = w.db.table("sales").unwrap();
        let pidx = sales.schema().index_of("product").unwrap();
        let qidx = sales.schema().index_of("quarter").unwrap();
        let cidx = sales.schema().index_of("change_pct").unwrap();
        for r in 0..sales.num_rows() {
            let product = sales.cell(r, pidx).as_str().unwrap().to_string();
            let quarter = sales.cell(r, qidx).as_str().unwrap();
            let i = (0..6).find(|&i| names::product(i) == product).unwrap();
            let j = (0..3).find(|&j| names::quarter(j) == quarter).unwrap();
            match w.gold_sales[i][j].1 {
                Some(pct) => assert_eq!(sales.cell(r, cidx), &Value::Float(pct)),
                None => assert!(sales.cell(r, cidx).is_null()),
            }
        }
    }

    #[test]
    fn report_text_contains_gold_numbers() {
        let w = small();
        for (i, per_q) in w.gold_sales.iter().enumerate() {
            for (j, (amount, pct)) in per_q.iter().enumerate() {
                let doc = &w.documents[i * 3 + j];
                assert!(doc.text.contains(&format!("${amount}")), "{}", doc.text);
                if let Some(pct) = pct {
                    assert!(
                        doc.text.contains(&format!("{}%", pct.abs())),
                        "{} missing {}%",
                        doc.text,
                        pct.abs()
                    );
                }
            }
        }
    }

    #[test]
    fn qa_gold_docs_valid_and_text_supports_answers() {
        let w = small();
        for item in &w.qa {
            for &d in &item.gold_doc_ids {
                assert!(d < w.documents.len());
            }
            // Lookup answers literally appear in their gold documents.
            if item.category == QaCategory::SingleEntityLookup {
                if let GoldAnswer::AnyOf(opts) = &item.gold {
                    let doc_text = &w.documents[item.gold_doc_ids[0]].text;
                    assert!(opts.iter().any(|o| doc_text.contains(o)));
                }
            }
        }
    }

    #[test]
    fn qa_categories_all_present() {
        let w = small();
        for cat in QaCategory::ALL {
            assert!(w.qa.iter().any(|i| i.category == cat), "missing category {:?}", cat);
        }
    }

    #[test]
    fn aggregate_gold_matches_sql() {
        let w = small();
        for item in w.qa.iter().filter(|i| i.category == QaCategory::Aggregate) {
            let GoldAnswer::Numeric { value, .. } = &item.gold else { panic!() };
            // The entity is a product; SQL total must match the gold value.
            let product = &item.entities[0];
            let like =
                Expr::Like { expr: Box::new(Expr::col("product")), pattern: product.clone() };
            let out = sum_where(&w.db, "sales", "amount", like);
            let total = out.cell(0, 0).as_f64().unwrap();
            assert!(answer_matches(&item.gold, &format!("{total}")), "{total} vs {value}");
        }
    }

    #[test]
    fn orders_flatten_to_queryable_table() {
        let w = small();
        let t = w.semi.to_table("orders").unwrap();
        assert_eq!(t.num_rows(), 6 * 3);
        assert!(t.schema().index_of("amount").is_some());
    }

    #[test]
    fn docstore_roundtrip() {
        let w = small();
        let d = w.docstore();
        assert_eq!(d.num_documents(), w.documents.len());
        assert!(d.num_chunks() >= d.num_documents());
    }

    #[test]
    fn lexicon_knows_products_and_makers() {
        let w = small();
        assert!(w.lexicon.get("aero widget").is_some());
        assert!(w.lexicon.get(&w.gold_maker[0].to_lowercase()).is_some());
    }

    #[test]
    #[should_panic(expected = "at least 4 products")]
    fn too_small_config_panics() {
        EcommerceWorkload::generate(EcommerceConfig { products: 2, ..EcommerceConfig::default() });
    }
}
