//! The metric names and units this benchmark prints. `BENCHMARK.json` lists
//! the same names; a unit test below keeps the two from drifting apart.

/// A metric as declared in `BENCHMARK.json`: name, unit, and whether
/// `lower` or `higher` is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the engine sees. Printed by every `--trace 0` run.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("answer_accuracy", "share", "higher"),
    ("index_bytes_per_input_byte", "B/B", "lower"),
];

/// Single layers. Printed by every `--trace 1` run.
pub const PER_LAYER: &[MetricDef] = &[
    // Question → intent → relational plan.
    ("semops.parse_us", "us", "lower"),
    ("semops.synthesize_us", "us", "lower"),
    ("semops.synth_success_share", "share", "higher"),
    ("relstore.exec_us", "us", "lower"),
    ("relstore.rows_scanned_per_result_row", "count", "lower"),
    // Retrieval rung.
    ("retrieval.bm25_us", "us", "lower"),
    ("retrieval.topology_us", "us", "lower"),
    ("retrieval.postings_scanned_per_op", "count", "lower"),
    ("retrieval.nodes_popped_per_op", "count", "lower"),
    ("retrieval.frontier_capped_share", "share", "lower"),
    ("retrieval.dense_us", "us", "lower"),
    ("retrieval.dense_compared_per_op", "count", "lower"),
    ("core.evidence_us", "us", "lower"),
    // Uncertainty.
    ("entropy.estimate_us", "us", "lower"),
    ("entropy.samples_per_op", "count", "lower"),
    ("entropy.abstain_share", "share", "lower"),
    ("slm.generate_us_per_sample", "us", "lower"),
    ("slm.calls_per_op", "count", "lower"),
    // The engine's own stage clocks and counters.
    ("core.answer_structured_us", "us", "lower"),
    ("core.answer_retrieval_us", "us", "lower"),
    ("core.answer_entropy_us", "us", "lower"),
    ("core.structured_hit_share", "share", "higher"),
    ("core.degradations_per_op", "count", "lower"),
    // Batch answering.
    ("core.batch_queries_per_s", "1/s", "higher"),
    ("core.batch_speedup_vs_serial", "ratio", "higher"),
    ("parkit.fork_join_us", "us", "lower"),
    // Build.
    ("core.build_extract_ms", "ms", "lower"),
    ("core.build_graph_ms", "ms", "lower"),
    ("core.build_dense_ms", "ms", "lower"),
    ("core.build_stats_ms", "ms", "lower"),
    ("extract.tablegen_ms", "ms", "lower"),
    ("extract.rows_per_doc", "count", "higher"),
    ("hetgraph.build_ms", "ms", "lower"),
    ("hetgraph.pagerank_ms", "ms", "lower"),
    ("hetgraph.nodes", "count", "lower"),
    ("hetgraph.edges", "count", "lower"),
    ("text.bm25_build_ms", "ms", "lower"),
    ("docstore.chunk_ms", "ms", "lower"),
    ("docstore.chunks", "count", "lower"),
    ("semistore.flatten_ms", "ms", "lower"),
    ("slm.embed_us_per_chunk", "us", "lower"),
    ("slm.ner_us_per_doc", "us", "lower"),
    // Incremental ingest.
    ("core.ingest_us.doc_add", "us", "lower"),
    ("core.ingest_us.table_row", "us", "lower"),
    ("core.ingest_us.semi_fragment", "us", "lower"),
    ("core.ingest_us.graph_entity", "us", "lower"),
    ("core.ingest_us.graph_edge", "us", "lower"),
    ("core.ingest_last_over_first_round", "ratio", "lower"),
    ("semistore.parse_json_us", "us", "lower"),
    ("storekit.wal_append_flush_us", "us", "lower"),
    ("storekit.wal_bytes_per_delta", "B", "lower"),
    ("storekit.wal_bytes_per_input_byte", "B/B", "lower"),
    // Cost of observing.
    ("tracekit.trace_overhead_share", "share", "lower"),
    ("unibench.span_overhead_share", "share", "lower"),
];

/// Measured values keyed by metric name, in the order they were set.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in declaration order with their units, or the first
    /// declared metric that is missing or not a finite number.
    pub fn in_order(
        &self,
        defs: &[MetricDef],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        assert_eq!(self.0.len(), defs.len(), "a run sets exactly the declared metrics");
        defs.iter()
            .map(|&(name, unit, _)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_semistore::{parse_json, JsonValue};

    fn declared(json: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        let JsonValue::Array(items) = json.get(key).expect("key present") else {
            panic!("{key} is an array");
        };
        let field = |item: &JsonValue, f: &str| {
            item.get(f).and_then(JsonValue::as_str).expect("string field").to_string()
        };
        items.iter().map(|i| (field(i, "name"), field(i, "unit"), field(i, "better"))).collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String, String)> = defs
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(declared(&json, key), want, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn values_come_back_in_declared_order_and_must_be_finite() {
        let defs: &[MetricDef] = &[("a", "ms", "lower"), ("b", "s", "lower")];
        let mut v = Values::default();
        v.set("b", 2.0);
        v.set("a", 1.0);
        assert_eq!(v.in_order(defs), Ok(vec![("a", 1.0, "ms"), ("b", 2.0, "s")]));
        let mut nan = Values::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.in_order(defs).is_err());
    }
}
