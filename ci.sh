#!/usr/bin/env bash
# Hermetic CI gate for the unisem workspace.
#
# Verifies the zero-dependency policy (DESIGN.md §7): the whole workspace
# must format-check, build, and test with the network hard-disabled (the
# tier-1 hermetic test rejects any Cargo.lock package with a source) — and
# the determinism contract must hold statically: udlint (crates/lintkit)
# lexes every engine source and audits panics, hash-order iteration,
# wall-clock reads, raw threads, env reads and uncovered storage I/O. See
# DESIGN.md §10.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> offline release build"
CARGO_NET_OFFLINE=true cargo build --release

echo "==> rustdoc builds without warnings"
# An intra-doc link to a deleted or private item, or an ambiguous one, is
# an error: the API docs cannot point at code that is gone.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> no fork-join below string- or row-sized work"
# Entropy sampling and the relational sweeps lost their fan-outs to
# measurement (DESIGN.md §6): the crates whose unit of work is a string or
# a table row must not regain a parkit edge.
if grep -l parkit crates/{slm,entropy,semops,text,extract,relstore}/Cargo.toml; then
    echo "ERROR: the manifests above name parkit: a string or a row is too little work to fork for (see DESIGN.md §6 before adding a fan-out)"
    exit 1
fi

echo "==> no tree map over dense ids on the retrieval query path"
# Chunk and node ids are dense, so per-query tables keyed by them are Vecs
# indexed by id, deterministic by ascending fold (DESIGN.md §5b); the tree-map
# forms live on only as oracles in the crates' tests/props.rs.
for f in crates/text/src/bm25.rs crates/retrieval/src/topology.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'BTreeMap<(usize|NodeId),'; then
        echo "ERROR: $f keys a BTreeMap by a dense id outside #[cfg(test)] (see DESIGN.md §5b: index a Vec by the id instead)"
        exit 1
    fi
done

echo "==> no hash set in the entropy stage"
# An answer's content words and tokens are sorted, deduplicated slices, set
# algebra over them is one merge, and each is built once per distinct sample
# (DESIGN.md §5b); the hash-set forms live on only as oracles in
# crates/entropy/tests/props.rs.
for f in crates/entropy/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'Hash(Set|Map)'; then
        echo "ERROR: $f uses a HashSet or HashMap outside #[cfg(test)] (see DESIGN.md §5b, \"Entropy over distinct samples\": merge the sorted slices instead)"
        exit 1
    fi
done

echo "==> the engine answers without a vector index"
# A faulted traversal falls back to the BM25 scan the traversal already runs,
# and topology off is BM25 only (DESIGN.md §13b); dense retrieval lives on in
# core only as the naive-RAG baseline, baselines.rs.
if grep -rn --exclude=baselines.rs DenseRetriever crates/core/src; then
    echo "ERROR: crates/core/src names DenseRetriever outside baselines.rs (see DESIGN.md §13b: the engine's retrieval fallback is the lexical scan)"
    exit 1
fi

echo "==> one checksum and one frame format in storekit"
# A snapshot and the write-ahead log are each one file of the same frames
# (DESIGN.md §12d, §13a): one frame writer, one scanner, one FNV-1a. A second
# copy of the offset basis is a second checksum, and so a second format.
if [ "$(grep -ro '0xcbf2_9ce4_8422_2325' crates/storekit/src | wc -l)" -ne 1 ]; then
    grep -rn '0xcbf2_9ce4_8422_2325' crates/storekit/src
    echo "ERROR: the FNV-1a offset basis must occur exactly once in crates/storekit/src (see DESIGN.md §12d: frame.rs holds the one checksum)"
    exit 1
fi

echo "==> offline test suite (UNISEM_THREADS=1)"
CARGO_NET_OFFLINE=true UNISEM_THREADS=1 cargo test -q

echo "==> offline test suite (UNISEM_THREADS=4)"
# Same suite on a 4-wide parkit pool: any nondeterminism under parallelism
# (merge order, float association, RNG sharing) diverges here and fails.
CARGO_NET_OFFLINE=true UNISEM_THREADS=4 cargo test -q

echo "==> relstore probe == scan, 16x deeper than tier-1"
# A filter over a base table reads only the rows its value-index probe names
# (DESIGN.md §11f); the differential property holding it to a full scan —
# same rows, same order, same error — runs 1024 cases here, 64 in tier-1.
CARGO_NET_OFFLINE=true DETKIT_CASES=1024 cargo test -q -p unisem-relstore --test props

echo "==> every example runs"
# The README calls every example runnable, and several cross-check the
# engine's own views against each other with assert_eq!: run them all.
for example in examples/*.rs; do
    CARGO_NET_OFFLINE=true cargo run -q --release -p unisem-core \
        --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> integration suites under a pinned ambient fault plan"
# The robustness and determinism integration suites must hold with
# deterministic fault injection armed from the environment: faults
# quarantine or degrade (never panic), every downgrade is recorded, and
# answers replay byte-identically at any thread count. The spec pins the
# replay seed plus probabilistic faults at the executor and traversal
# sites, so both the structured and retrieval rungs get exercised.
CARGO_NET_OFFLINE=true UNISEM_FAULTS="seed:0xC1,relstore.exec@64,hetgraph.traverse@96" \
    cargo test -q -p unisem-tests --test robustness --test determinism

echo "==> planner gate: golden answers + golden plans (DESIGN.md §11)"
# Every workload query's full Answer must match the committed golden
# answers — the frozen output of the degradation ladder the executor
# replaced — at 1 and 4 threads, through answer and answer_batch, with and
# without the pinned fault plan; and the rendered physical plans must match
# the committed golden plans byte-for-byte, fault-free and faulted (bless
# intentional changes with UNISEM_BLESS=1). The suite pins its fault plans
# programmatically, so arming the ambient plan here only widens the
# build-time surface it runs under.
CARGO_NET_OFFLINE=true UNISEM_FAULTS="seed:0xC1,relstore.exec@64,hetgraph.traverse@96" \
    cargo test -q -p unisem-tests --test planner_golden

echo "==> observability gates (DESIGN.md §9)"
# Tracing must be zero-cost when disabled: the observability suite runs
# with the sink explicitly off and asserts — via the sink's own write
# counter, which counts every write_block call including no-ops — that the
# hot path makes zero trace-sink writes. Trace/metrics determinism across
# thread counts is covered by the determinism suite above.
CARGO_NET_OFFLINE=true UNISEM_TRACE=off \
    cargo test -q -p unisem-tests --test observability

echo "==> storage gate: snapshot round-trip + golden frame table (DESIGN.md §12)"
# The persistent-storage suite must hold with an ambient store-site fault
# plan armed: every test pins its own plan programmatically (disabled for
# the byte-identity checks, explicit matrices for crash consistency), so
# the ambient plan proves independence, not behavior. Covers: reopened
# engines answering byte-identically at 1/2/4/8 threads, byte-stable
# snapshot files across build thread counts, the golden frame table (one
# line per section frame and one for the closing frame: seq, name, payload
# length, checksum; bless with UNISEM_BLESS=1), the torn-write/failed-flush
# fault matrix, a torn temp file that is never opened, and typed rejection
# of corrupt or truncated snapshots and of counts larger than their bytes.
CARGO_NET_OFFLINE=true UNISEM_FAULTS="seed:0xC1,store.write@64,store.flush@64" \
    cargo test -q -p unisem-tests --test storage
CARGO_NET_OFFLINE=true cargo test -q -p storekit

echo "==> recovery gate: WAL crash matrix (DESIGN.md §13)"
# The crash-recovery suite must hold with an ambient wal-site fault plan
# armed: every scenario pins its own plan programmatically (disabled for
# references and recoveries, single-site arms for the crash boundaries),
# so the ambient plan proves independence. Covers: torn-append and
# lost-flush crashes at every WAL record boundary recovering to
# byte-identical answers at 1/2/4/8 threads, both mid-checkpoint crash
# windows, byte-identical WAL files across thread counts, and
# post-delta planner statistics freshness. The ingest suite rides along:
# rejected deltas and log faults leave no mark, incrementally maintained
# statistics and gauges equal a recount, and — counted by the closed
# registry, not a clock — a single delta runs no PageRank, re-collects at
# most its own table's statistics and copies no substrate. So does the
# spawns suite, the same kind of count for threads: an answer forks nothing,
# fault-free or with its traversal faulted, and an answer_batch forks once,
# whatever the ambient plan and UNISEM_THREADS say.
CARGO_NET_OFFLINE=true UNISEM_FAULTS="seed:0xC1,wal.append@64,wal.flush@64" \
    cargo test -q -p unisem-tests --test recovery --test ingest --test spawns
CARGO_NET_OFFLINE=true cargo test -q -p faultkit

echo "==> unibench --check (benchmark output checks, BENCHMARK.json)"
# The standalone benchmark package builds offline against this tree and
# runs all four workloads, plain and traced, on a small corpus: reads see
# their writes, a rebuild + log replay reproduces the live engine, every
# round writes the same log bytes, batch equals serial. An engine change
# that breaks one of those fails here, not later in the bench pipeline.
# It writes only under its own ignored directories. unibench is the only
# benchmark; BENCH_baseline.json is its output through bench-baseline.sh
# (minutes, so only parsed here) and tier-1's bench_baseline test checks
# the committed rows against BENCHMARK.json.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check >/dev/null
bash -n bench-baseline.sh

echo "==> udlint --deny all (static determinism-contract audit)"
# udlint keeps only the rules nothing else enforces: the compiler closes the
# metric and component namespaces, Cargo.lock records path-only
# dependencies, and a tier-1 liveness test catches a registry series the
# engine never records. Every lint is a pass over one file's token stream:
# the unwrap audit, hash-order iteration, wall-clock reads outside
# tracekit::wall — not suppressible, raw thread spawns, env reads outside
# the UNISEM_* surface, and the per-function uncovered-io-site rule on
# storekit. `udlint --list` names every lint, `udlint --explain <lint>`
# documents each one; suppressions need
# `// udlint: allow(<lint>) -- <reason>`. That the JSON
# report is byte-identical across runs and that the suppression count
# stays within lint-budget.txt are tier-1 tests
# (crates/lintkit/tests/selfcheck.rs), not gates here.
CARGO_NET_OFFLINE=true cargo run -q --release -p lintkit --bin udlint -- --deny all

echo "==> OK: workspace is hermetic"
