//! Observability tour (DESIGN.md §9, §14): per-query explain traces — the
//! costed plan with its actuals, and the resource meter — the closed
//! metric registry with its histograms, and a trace rendered as one JSON
//! line.
//!
//! Run with:
//! ```sh
//! cargo run -p unisem-core --example observability
//! ```

use unisem_core::{EngineBuilder, EngineConfig, EntityKind, Lexicon};
use unisem_relstore::{DataType, Schema, Table, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lexicon = Lexicon::new().with_entries([
        ("Aero Widget", EntityKind::Product),
        ("Nova Speaker", EntityKind::Product),
        ("Acme Corp", EntityKind::Organization),
    ]);
    // Opt in to per-query explain traces: every Answer now carries
    // `answer.trace` (deterministic — byte-identical across runs and
    // thread counts). With `trace: false` (the default) the hot path
    // performs zero trace allocations.
    let config = EngineConfig { trace: true, ..EngineConfig::default() };
    let mut builder = EngineBuilder::with_config(lexicon, config);

    let sales = Table::from_rows(
        Schema::of(&[
            ("product", DataType::Str),
            ("quarter", DataType::Str),
            ("amount", DataType::Float),
        ]),
        vec![
            vec![Value::str("Aero Widget"), Value::str("Q1 2024"), Value::Float(1200.0)],
            vec![Value::str("Aero Widget"), Value::str("Q2 2024"), Value::Float(1500.0)],
            vec![Value::str("Nova Speaker"), Value::str("Q1 2024"), Value::Float(900.0)],
        ],
    )?;
    builder.add_table("sales", sales)?;
    builder.add_document(
        "press release",
        "Acme Corp launched the Aero Widget in January. The Aero Widget is \
         manufactured by Acme Corp at its Hamburg plant.",
        "news",
    );

    let (engine, _report) = builder.build();

    let questions = [
        "What was the total sales amount of Aero Widget across all quarters?",
        "Which manufacturer makes the Aero Widget?",
        "What was the total sales of the Phantom Gizmo in Q2 2024?",
    ];
    // Running totals of the per-query meters, cross-checked against the
    // registry at the end: the trace-level and registry-level views of
    // resource consumption must agree exactly.
    let mut total_nodes_popped = 0u64;
    let mut total_slm_samples = 0u64;

    for question in questions {
        let answer = engine.answer(question);
        println!("Q: {question}");
        println!("A: {answer}");
        // The explain trace: the costed physical plan, with what actually
        // happened on every operator that ran, and the resource meter.
        let trace = answer.trace.as_ref().expect("EngineConfig::trace attaches one");
        println!("  route taken: {}", trace.route);
        for line in trace.plan.as_deref().unwrap_or("").lines() {
            println!("  {line}");
        }
        // The resource meter: work performed, as pure functions of query
        // + corpus (deterministic at every thread count).
        let meter = trace.meter.as_ref().expect("traced answers carry a meter");
        let fields = meter
            .fields()
            .iter()
            .map(|(name, v)| format!("{name}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("  meter: {fields}");
        total_nodes_popped += meter.nodes_popped;
        total_slm_samples += meter.slm_samples;
        // A caller who wants JSON lines renders the trace itself.
        if question == questions[1] {
            print!("  as one JSON line: {}", trace.to_jsonl());
        }
        println!();
    }

    // The closed metric registry: every counter/gauge/histogram has a
    // compile-time name; the snapshot is deterministic for a given
    // workload.
    let metrics = engine.metrics_report();
    println!("\nmetrics snapshot (deterministic):");
    for name in ["query.answered", "query.abstained", "traverse.queries", "relstore.plans_executed"]
    {
        println!("  {name} = {}", metrics.get(name).unwrap_or(0));
    }
    println!(
        "  meter.slm_calls histogram: {} observations, p50<= {}",
        metrics.hist_total("meter.slm_calls").unwrap_or(0),
        metrics.hist_quantile("meter.slm_calls", 0.5).unwrap_or(0),
    );

    // Cross-check: the per-query meters and the registry are two views of
    // the same work and must agree exactly.
    assert_eq!(metrics.hist_total("meter.slm_calls"), Some(questions.len() as u64));
    assert_eq!(metrics.get("traverse.nodes_popped"), Some(total_nodes_popped));
    assert_eq!(metrics.get("entropy.samples"), Some(total_slm_samples));

    // Wall-clock stage timings live in a *separate* report, so determinism
    // checks never see them.
    let timings = engine.timing_report();
    println!("\nstage timings (wall-clock, non-deterministic):\n{timings}");
    Ok(())
}
