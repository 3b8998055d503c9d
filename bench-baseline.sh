#!/usr/bin/env bash
# Regenerates BENCH_baseline.json, the committed layer-by-layer record: every
# unibench workload (BENCHMARK.json) at the default seed and seconds, end to
# end (--trace 0) and per layer (--trace 1). One line per run: the workload,
# the mode, this machine's nproc and the JSON object unibench prints last.
# Takes no arguments and a few minutes; a failed run leaves the
# committed file as it was. tests/tests/bench_baseline.rs checks the result.
set -euo pipefail
cd "$(dirname "$0")"
out=$(mktemp)
for workload in structured_qa retrieval_qa mixed_batch ingest_stream; do
    for trace in 0 1; do
        result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --trace "$trace" | tail -n 1)
        printf '{"workload": "%s", "trace": %s, "nproc": %s, "result": %s}\n' \
            "$workload" "$trace" "$(nproc)" "$result" >>"$out"
    done
done
mv "$out" BENCH_baseline.json
