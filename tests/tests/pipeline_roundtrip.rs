//! Cross-crate pipelines: each modality flows end-to-end into queryable
//! form, and the modalities interconnect through the graph.

use unisem_extract::TableGenerator;
use unisem_hetgraph::{GraphBuilder, NodeId, NodeKind};
use unisem_relstore::{AggExpr, AggFunc, Database, Expr, LogicalPlan, SortKey, Value};
use unisem_semistore::{parse_json, SemiStore};
use unisem_slm::{EntityKind, Lexicon, Slm, SlmConfig};

fn slm() -> Slm {
    Slm::new(SlmConfig {
        lexicon: Lexicon::new().with_entries([
            ("Aero Widget", EntityKind::Product),
            ("Acme Corp", EntityKind::Organization),
        ]),
        ..SlmConfig::default()
    })
}

/// JSON logs → flattened table → aggregate plan.
#[test]
fn json_to_plan_roundtrip() {
    let mut store = SemiStore::new();
    for (p, u) in [("a", 3.0), ("a", 5.0), ("b", 2.0)] {
        store.insert(
            "orders",
            parse_json(&format!(r#"{{"product": "{p}", "units": {u}}}"#)).unwrap(),
        );
    }
    let table = store.to_table("orders").unwrap();
    let mut db = Database::new();
    db.create_table("orders", table).unwrap();
    let total =
        AggExpr { func: AggFunc::Sum, input: Expr::col("units"), output_name: "total".into() };
    let plan = LogicalPlan::scan("orders")
        .aggregate(vec![(Expr::col("product"), "product".into())], vec![total])
        .sort(vec![SortKey { expr: Expr::col("product"), ascending: true }]);
    let out = db.run_plan(&plan).unwrap();
    assert_eq!(out.num_rows(), 2);
    assert_eq!(out.cell(0, 1), &Value::Int(8));
    assert_eq!(out.cell(1, 1), &Value::Int(2));
}

/// Free text → extracted table → aggregate plan (§III.C hybrid pipeline,
/// steps 1+2).
#[test]
fn text_to_extraction_to_plan() {
    let gen = TableGenerator::new(slm());
    let (table, stats) = gen
        .generate_table(&[
            "Aero Widget sales increased 20% in Q1 2024.",
            "Aero Widget sales decreased 10% in Q2 2024.",
        ])
        .unwrap();
    assert_eq!(stats.records, 2);
    let mut db = Database::new();
    db.create_table("extracted", table).unwrap();
    let avg = AggExpr {
        func: AggFunc::Avg,
        input: Expr::col("change_pct"),
        output_name: "avg_change".into(),
    };
    let out = db.run_plan(&LogicalPlan::scan("extracted").aggregate(vec![], vec![avg])).unwrap();
    assert_eq!(out.cell(0, 0), &Value::Float(5.0));
}

/// Text chunk + relational record about the same entity are connected in
/// the graph (the cross-modal context of §I).
#[test]
fn graph_connects_modalities() {
    use unisem_docstore::DocStore;
    use unisem_relstore::{DataType, Schema, Table};

    let mut docs = DocStore::default();
    docs.add_document("news", "Acme Corp launched the Aero Widget today.", "news");
    let table = Table::from_rows(
        Schema::of(&[("product", DataType::Str), ("price", DataType::Float)]),
        vec![vec![Value::str("Aero Widget"), Value::Float(99.0)]],
    )
    .unwrap();

    let mut gb = GraphBuilder::new(slm());
    gb.add_docstore(&docs);
    gb.add_table("catalog", &table);
    let (graph, _) = gb.finish();

    let catalog =
        |t: NodeId| matches!(graph.node(t), NodeKind::Table { name } if name == "catalog");
    let is_record =
        |k: &NodeKind| matches!(*k, NodeKind::Record { table, row: 0 } if catalog(table));
    let record = NodeId(graph.nodes().iter().position(is_record).expect("record node") as u32);
    let chunk = graph.chunk_node(0).expect("chunk node");
    let linked = |n| graph.neighbors(n).iter().map(|&(m, _)| m).collect::<Vec<_>>();
    let (from_record, from_chunk) = (linked(record), linked(chunk));
    assert!(
        from_record.iter().any(|n| from_chunk.contains(n)),
        "record → entity → chunk: {from_record:?} / {from_chunk:?}"
    );
}

/// Retrieval → evidence → entropy: weak retrieval produces measurably
/// higher uncertainty than strong retrieval.
#[test]
fn retrieval_strength_drives_entropy() {
    use unisem_entropy::EntropyEstimator;
    use unisem_slm::SupportedAnswer;

    let est = EntropyEstimator::new(slm());
    let strong = est.estimate(
        "Who makes the Aero Widget?",
        &[SupportedAnswer::new("Acme Corp makes the Aero Widget", 8.0)],
    );
    let weak = est.estimate("Who makes the Aero Widget?", &[]);
    assert!(strong.discrete_semantic_entropy < weak.discrete_semantic_entropy);
    assert!(weak.n_clusters >= 2);
}
