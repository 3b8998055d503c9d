//! `BENCH_baseline.json` is what `./bench-baseline.sh` last wrote: one line
//! per unibench workload × mode, in `BENCHMARK.json` order. This keeps the two
//! files in step: a metric declared without a committed row, or a baseline
//! committed from a failing run, fails tier-1.

use unisem_semistore::{parse_json, JsonValue};

fn read(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names<'a>(declared: &'a JsonValue, key: &str) -> Vec<&'a str> {
    let Some(JsonValue::Array(items)) = declared.get(key) else {
        panic!("BENCHMARK.json: {key} is not an array");
    };
    let name = |item: &'a JsonValue| item.get("name").and_then(JsonValue::as_str);
    items.iter().map(|item| name(item).expect("every entry has a name")).collect()
}

#[test]
fn baseline_has_every_declared_metric_from_passing_runs() {
    let declared = parse_json(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let mut expected = Vec::new();
    for workload in names(&declared, "workloads") {
        for (trace, key) in [(0.0, "end_to_end"), (1.0, "per_layer")] {
            expected.push((workload, trace, key));
        }
    }
    let baseline = read("BENCH_baseline.json");
    let lines: Vec<JsonValue> =
        baseline.lines().map(|l| parse_json(l).expect("one JSON object per line")).collect();
    assert_eq!(lines.len(), expected.len(), "one line per workload × mode");

    for (line, (workload, trace, key)) in lines.iter().zip(&expected) {
        let what = format!("{workload} --trace {trace}");
        let field = |name: &str| line.get(name).unwrap_or_else(|| panic!("{what}: no {name}"));
        assert_eq!(field("workload").as_str(), Some(*workload), "{what}");
        assert_eq!(field("trace").as_f64(), Some(*trace), "{what}");
        assert!(field("nproc").as_f64().is_some_and(|n| n >= 1.0), "{what}: nproc");
        let result = field("result");
        assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true), "{what}");
        assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0), "{what}");
        for name in names(&declared, key) {
            let value = result.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64());
            assert!(value.is_some(), "{what}: no value for {name}");
        }
    }
}
