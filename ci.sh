#!/usr/bin/env bash
# Hermetic CI gate for the unisem workspace.
#
# Verifies the zero-dependency policy (DESIGN.md §7): the whole workspace
# must format-check, build, and test with the network hard-disabled (the
# tier-1 hermetic test rejects any Cargo.lock package with a source) — and
# the determinism contract must hold statically: clippy, configured by
# clippy.toml and the manifests' [lints] tables, rejects panics in the
# panic-free crates, hash collections, clock reads, raw threads, env reads
# and storage I/O outside their sanctioned sites. See DESIGN.md §10.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings (determinism contract, DESIGN.md §10)"
# Each sanctioned site carries #[expect(clippy::…, reason = "…")]; an unused
# one fails here too, and tier-1's hermetic suite pins the set.
CARGO_NET_OFFLINE=true cargo clippy --workspace --offline -- -D warnings

echo "==> no rustc warning in any target"
# clippy above lints the libraries and binaries only; a warning in a test
# module, an integration test or an example would otherwise scroll past in
# every cargo test run. Cargo replays cached warnings, so a warm build
# still reports them.
warnings="$(CARGO_NET_OFFLINE=true cargo check --workspace --all-targets --offline \
    --message-format=short 2>&1)"
if grep -E ': warning: |generated [0-9]+ warnings?' <<<"$warnings"; then
    echo "ERROR: rustc warns above: fix the code rather than allowing the lint"
    exit 1
fi

echo "==> offline release build"
CARGO_NET_OFFLINE=true cargo build --release

echo "==> rustdoc builds without warnings"
# An intra-doc link to a deleted or private item, or an ambiguous one, is
# an error: the API docs cannot point at code that is gone.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> unsafe only in parkit's pool"
# The workspace's one unsafe block erases the lifetime of the closure a
# resident helper runs (DESIGN.md §6); the workspace lints deny unsafe_code
# in every crate that inherits them, with one #[expect] on that block. detkit,
# tests/ and the examples do not inherit those lints, so this grep covers
# them: outside comments, unsafe may appear only in crates/parkit/src/pool.rs
# and in the counting allocator the heap gates share, tests/tests/counting/mod.rs.
if grep -rnw --include='*.rs' unsafe crates tests examples \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    | grep -vE '^(crates/parkit/src/pool\.rs|tests/tests/counting/mod\.rs):'; then
    echo "ERROR: unsafe outside crates/parkit/src/pool.rs and tests/tests/counting/mod.rs (see DESIGN.md §6)"
    exit 1
fi

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

echo "==> no per-question table sized by the graph or the chunk store"
# A traversal borrows its per-node tables from the retriever's scratch pool
# and cleans them by walking its frontier; its candidate chunks are one list
# as long as the frontier (DESIGN.md §5b). A vec![…; n] sized by the graph or
# the store would bring an O(corpus) fill back onto every question.
if sed '/#\[cfg(test)\]/,$d' crates/retrieval/src/topology.rs |
    grep -nE 'vec!\[[^]]*;[^]]*(num_nodes\(\)|num_chunks\(\)|n_nodes|n_chunks)'; then
    echo "ERROR: crates/retrieval/src/topology.rs sizes a vec! by the graph or the chunk store outside #[cfg(test)] (see DESIGN.md §5b: lend the tables from the scratch pool)"
    exit 1
fi

echo "==> one term dictionary per document store"
# BM25 interns each term once and keeps its posting lists in a Vec indexed
# by term id; the sentence analysis keeps only spans and runs of those ids
# (DESIGN.md §5c). A string-keyed postings map, or a map in the analysis,
# would be a second dictionary for the same terms.
if sed '/#\[cfg(test)\]/,$d' crates/text/src/bm25.rs | grep -nE 'Map<String\b'; then
    echo "ERROR: crates/text/src/bm25.rs keys a map by String outside #[cfg(test)] (see DESIGN.md §5c: post by term id)"
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/docstore/src/sentences.rs | grep -nE 'BTreeMap'; then
    echo "ERROR: crates/docstore/src/sentences.rs declares a BTreeMap outside #[cfg(test)] (see DESIGN.md §5c: intern through the BM25 index)"
    exit 1
fi

echo "==> one edge index in hetgraph"
# add_edge dedups against the adjacency lists, scanning the lower-degree
# endpoint's, and a record is found by row in its table's list (DESIGN.md §5b). A
# map keyed by an endpoint pair would index every edge a second time, and
# one keyed by (String, usize) would copy a table name into every record key.
if sed '/#\[cfg(test)\]/,$d' crates/hetgraph/src/graph.rs |
    grep -nE 'Map<\((NodeId|u32), *(NodeId|u32)\b|Map<\(String, *usize\)'; then
    echo "ERROR: crates/hetgraph/src/graph.rs keys a map by an endpoint pair or by (String, usize) outside #[cfg(test)] (see DESIGN.md §5b: dedup edges through the adjacency lists, find records by row)"
    exit 1
fi
# A node's id is its position in the node list and an edge's in the edge
# list, an entity or table node's name is its label, and a record names its
# table by node (DESIGN.md §5b): a stored id, a label field or a table name
# in every record would each hold again what the graph already has.
graph_src=$(sed '/#\[cfg(test)\]/,$d' crates/hetgraph/src/graph.rs)
if grep -nE '^\s*(pub(\([a-z]+\))? )?(id|label): ' <<<"$graph_src"; then
    echo "ERROR: crates/hetgraph/src/graph.rs gives a type an id: or label: field outside #[cfg(test)] (see DESIGN.md §5b: ids are positions, names are labels)"
    exit 1
fi
if sed -n '/^\s*Record {/,/}/p' <<<"$graph_src" | grep -n 'String'; then
    echo "ERROR: crates/hetgraph/src/graph.rs gives NodeKind::Record a String (see DESIGN.md §5b: a record names its table node)"
    exit 1
fi
# Chunk ids and rows are positions: chunks and each table's records are
# found in a Vec indexed by them, and an entity name is one map's key; the
# other kinds of a name are keyed by its first node (DESIGN.md §5b).
if grep -nE 'Map<usize,|Map<\(NodeId, *usize\)|Map<\(String, *EntityKind\)' <<<"$graph_src"; then
    echo "ERROR: crates/hetgraph/src/graph.rs keys a map by a chunk id, a (table node, row) pair or a (String, EntityKind) pair outside #[cfg(test)] (see DESIGN.md §5b: dense ids index a Vec, an entity name keys one map)"
    exit 1
fi

echo "==> the SLM tags sentences, in one place"
# Tagging is one function, Slm::tag_sentence, which reads NER and POS off
# one tokenization of one sentence; a build tags each distinct sentence once
# and the graph builder and the table generator read that one table
# (DESIGN.md §5c). A POS pass anywhere else would tag a text a second time,
# or a whole chunk, whose rules then read across sentence ends.
tagging=0
for f in $(find crates/*/src examples -name '*.rs' -not -path 'crates/slm/src/*' | sort); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'pos_tag('; then
        echo "ERROR: $f calls pos_tag( outside #[cfg(test)]"
        tagging=1
    fi
done
if [ "$tagging" -ne 0 ]; then
    echo "(see DESIGN.md §5c: tag through Slm::tag_sentence or the build's TagTable)"
    exit 1
fi

echo "==> the engine answers without a vector index"
# A faulted traversal falls back to the BM25 scan the traversal already runs,
# and topology off is BM25 only (DESIGN.md §13b); dense retrieval lives on in
# core only as the naive-RAG baseline, baselines.rs.
if grep -rn --exclude=baselines.rs DenseRetriever crates/core/src; then
    echo "ERROR: crates/core/src names DenseRetriever outside baselines.rs (see DESIGN.md §13b: the engine's retrieval fallback is the lexical scan)"
    exit 1
fi

echo "==> one description of the plan's shape"
# The logical plan tree is the one description of a query's shape
# (DESIGN.md §11e): the executor's one recursive eval numbers the nodes it
# runs in pre-order and records each operator's actual against that
# position, and explain walks the same tree. A struct of per-operator
# slots, a second tree built to render, an executor step that takes a whole
# node only to unpack one variant, or a position computed from a parent's
# (`at + 2`, a helper that digs out one shape's branches) would each
# restate it.
shape=0
for f in $(find crates/core/src -name '*.rs' | sort); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nwE 'ExecActuals|PhysNode'; then
        echo "ERROR: $f names ExecActuals or PhysNode outside #[cfg(test)]"
        shape=1
    fi
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '(alternatives|positioned)\('; then
        echo "ERROR: $f defines or calls alternatives( or positioned( outside #[cfg(test)]"
        shape=1
    fi
done
if sed '/#\[cfg(test)\]/,$d' crates/core/src/executor.rs | grep -nE '^[[:space:]]*let LogicalNode::'; then
    echo "ERROR: crates/core/src/executor.rs unpacks a node with let-else; take the variant's fields instead"
    shape=1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/executor.rs | grep -nE '\bat \+ [0-9]'; then
    echo "ERROR: crates/core/src/executor.rs computes a node's position from its parent's; eval numbers the nodes it runs"
    shape=1
fi
if [ "$shape" -ne 0 ]; then
    echo "(see DESIGN.md §11e/§11f: actuals are keyed by pre-order position, eval and explain are one walk each)"
    exit 1
fi

echo "==> one expression evaluator in relstore"
# A bound expression is one tree, expr.rs' Bound (DESIGN.md §5b): a filter
# asks it for a row's three-valued truth, aggregates and sorts for a row's
# value. A second tree type beside it would be a second evaluator to keep
# in step with SQL's three-valued logic and its error order, and a filter
# that compares a computed Value against true is back to building a Value
# per node per row. Tests are skipped; Expr and LogicalPlan are the AST.
evaluators=0
for f in crates/relstore/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
        /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?(enum|struct)[[:space:]]+[A-Za-z_]+/ {
            match($0, /(enum|struct)[[:space:]]+[A-Za-z_]+/)
            name = substr($0, RSTART, RLENGTH)
            sub(/^(enum|struct)[[:space:]]+/, "", name)
            inside = 1; depth = 0
        }
        inside && name !~ /^(Expr|LogicalPlan|Bound)$/ && $0 ~ ("Box<(" name "|Self)[<>]") {
            print f ": " name " is a second expression tree: " $0; found = 1
        }
        inside && name != "Bound" && name ~ /Bound|Compiled|Prepared|Program/ {
            print f ": " name " is a second bound expression: " $0; found = 1; inside = 0
        }
        inside {
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth <= 0 && $0 ~ /[};]/) inside = 0
        }
        END { exit !found }'; then
        evaluators=1
    fi
done
if sed '/#\[cfg(test)\]/,$d' crates/relstore/src/exec.rs | grep -n 'Value::Bool(true)'; then
    echo "crates/relstore/src/exec.rs compares a value against Value::Bool(true) outside #[cfg(test)]"
    evaluators=1
fi
if [ "$evaluators" -ne 0 ]; then
    echo "ERROR: relstore evaluates expressions only through expr.rs' Bound; a filter asks it for a Truth (see DESIGN.md §5b)"
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
# and re-tests only the conjuncts the probe did not prove (DESIGN.md §5b,
# §11f); the differential property holding it to a full scan — same rows,
# same order, same error, and a left-out LIKE key true on every row read —
# runs 1024 cases here, 64 in tier-1. Both sides run the one evaluator, the
# Bound tree that the "one expression evaluator in relstore" step guards.
CARGO_NET_OFFLINE=true DETKIT_CASES=1024 cargo test -q -p unisem-relstore --test props

echo "==> borrowed text analysis, bounded anchor linking, per-core entropy and stored sentence analysis == the reference forms, 16x deeper than tier-1"
# Tokens borrow their text, case folding and stemming write into a reused
# buffer, and the meter counts subword tokens without building them
# (DESIGN.md §5c). The differential properties holding each to the form it
# replaced — the owned tokenizer, to_lowercase, the allocating stemmer,
# BM25's string-keyed tree-map postings over owned terms, the materialized
# subword split — run 1024 cases here, 64 in tier-1, with the rest of the
# crates' suites. So do the
# thresholded Jaro-Winkler's soundness properties (a bound, or its
# per-length test, may reject only what the full score would; the
# copy-free common-byte count equals the copying one), BM25's cached
# length norms against the two-division score, BM25's thresholded top-k
# pass against the fully sorted tree-map reference at every cut (0, 1, a
# tie, all, all + 3 and usize::MAX, with debug overflow checks on), the graph's
# referential-entity table against one rebuilt from its nodes, and the
# retriever's tree-map oracle, which holds table-driven fuzzy linking and
# the word-index containment lookup to the per-mention, per-word walks
# they replaced (DESIGN.md §5b). So do the template boundary (a wrapped
# text's tokens are its prefix's, its core's and its suffix's, and its
# token count their sum) and entropy's whole-text oracles, which hold the
# once-per-distinct-core report to the one from analysing every sampled
# text, over sampler output and over (core, template) generations,
# mislabelled ones included (DESIGN.md §5b). So do the ingest-time sentence
# analysis' properties (DESIGN.md §5c): BM25 fed the analysis' id stream
# equals BM25 over the chunk text, a store rebuilt from its parts has the
# analysis and the BM25 index it had, every sentence's term ids resolve in
# the BM25 index's dictionary and every term there is posted, and evidence
# scored from the stored analysis — and by the text wrapper — equals the
# per-question re-tokenizing oracle, questions with more than 64 content
# terms included. So does the build's one tagging pass (DESIGN.md §5c): an
# engine's extracted table and graph equal the ones the table generator and
# the graph builder make tagging every sentence themselves.
CARGO_NET_OFFLINE=true DETKIT_CASES=1024 cargo test -q -p unisem-text -p unisem-slm -p unisem-hetgraph \
    -p unisem-retrieval -p unisem-entropy -p unisem-docstore
CARGO_NET_OFFLINE=true DETKIT_CASES=1024 cargo test -q -p unisem-core --test evidence_props \
    --test tagging_props

echo "==> totality: hostile questions and corrupted snapshots never panic, 16x deeper than tier-1"
# clippy rules out unwrap and panic! in the panic-free crates; an index, a
# slice or an overflow it cannot see. Workload questions mutated with the
# Kelvin sign, İ, combining marks, NUL, % and _ must answer, and snapshots
# with flipped, zeroed or 0xFF-run section bytes (checksums recomputed) must
# open to a typed error or to an engine that answers.
CARGO_NET_OFFLINE=true DETKIT_CASES=1024 cargo test -q -p unisem-tests --test totality

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
# EXPERIMENTS.md's tables pin their own fault plans, so the ambient one
# must not move a number of them.
CARGO_NET_OFFLINE=true UNISEM_FAULTS="seed:0xC1,relstore.exec@64,hetgraph.traverse@96" \
    cargo test -q -p unisem-tests --test robustness --test determinism
CARGO_NET_OFFLINE=true UNISEM_FAULTS="seed:0xC1,relstore.exec@64,hetgraph.traverse@96" \
    cargo test -q -p unisem-bench --test experiments_golden

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
# EngineConfig::trace is the one trace switch: the observability suite
# checks that answer and answer_batch attach no trace unless it is on, that
# batch traces come back in input order and render to the same JSON lines
# as a sequential loop, and that the engine records every series of the
# closed metric registry. That the disabled path allocates nothing for
# tracing is pinned by the allocs suite and Run::actual's unit test;
# trace/metrics determinism across thread counts by the determinism suite.
CARGO_NET_OFFLINE=true cargo test -q -p unisem-tests --test observability

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
# windows, byte-identical WAL files across thread counts, and a
# post-delta explain plan that estimates the grown table's rows. The
# ingest suite rides along: rejected deltas and log faults leave no mark,
# incrementally maintained value indexes and gauges equal a recount and a
# rebuild + replay, and — counted by the closed registry, not a clock — a
# single delta runs no PageRank and copies no substrate. So does the
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

echo "==> OK: workspace is hermetic"
