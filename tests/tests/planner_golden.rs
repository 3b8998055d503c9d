//! The planner gate (DESIGN.md §11): golden answers and golden explain
//! plans, compared byte-for-byte against committed snapshots in
//! `tests/golden/`, one file per workload and fault plan, twelve queries
//! each (two per QA category).
//!
//! - `<workload>_answers[_faulted].txt` — every `Answer` (text, route,
//!   confidence, entropy report, provenance, degradations, result table)
//!   as `{:#?}`; Rust prints `f64` shortest-round-trip, so the text is
//!   bit-faithful. The files were blessed from the pre-planner degradation
//!   ladder at the commit before it was deleted (command in CHANGES.md,
//!   PR 15): they are the oracle the executor must reproduce, at 1 and 4
//!   threads, through `answer` and `answer_batch`. They are only ever
//!   re-blessed for an intended change to what the engine answers.
//! - `<workload>_plans[_faulted].txt` — the physical plan rendered into
//!   `Answer::trace`, estimates and actuals included.
//! - `ecommerce_plans_ablations.txt` — the e-commerce plans under the four
//!   configurations that change a plan's shape or actuals (topology off,
//!   synthesis off, a capped traversal frontier, samples under the floor).
//!
//! To bless new snapshots after an intentional change:
//!
//! ```text
//! UNISEM_BLESS=1 cargo test -p unisem-tests --test planner_golden
//! ```
//!
//! then commit the rewritten files. The diff IS the review artifact: any
//! cost-model, plan-shape or answer change shows up as text.
//!
//! Also here: the statistics-collection determinism contract and the
//! shape of the estimated-vs-actual explain output.

use std::collections::BTreeMap;

use unisem_core::{Answer, EngineBuilder, EngineConfig, FaultPlan, ParallelConfig, UnifiedEngine};
use unisem_workloads::ecommerce::DocSpec;
use unisem_workloads::{
    EcommerceConfig, EcommerceWorkload, HealthcareConfig, HealthcareWorkload, QaItem,
};

struct Workload {
    name: &'static str,
    lexicon: unisem_slm::Lexicon,
    db: unisem_relstore::Database,
    semi: unisem_semistore::SemiStore,
    documents: Vec<DocSpec>,
    qa: Vec<QaItem>,
}

fn workloads() -> Vec<Workload> {
    corpora(
        EcommerceConfig {
            products: 6,
            quarters: 3,
            reviews_per_product: 2,
            qa_per_category: 2,
            seed: 0xD1FF,
            name_offset: 0,
        },
        HealthcareConfig {
            drugs: 4,
            patients: 6,
            trials_per_drug: 2,
            qa_per_category: 2,
            seed: 0x4EA17,
        },
    )
}

fn corpora(e: EcommerceConfig, h: HealthcareConfig) -> Vec<Workload> {
    let e = EcommerceWorkload::generate(e);
    let h = HealthcareWorkload::generate(h);
    vec![
        Workload {
            name: "ecommerce",
            lexicon: e.lexicon,
            db: e.db,
            semi: e.semi,
            documents: e.documents,
            qa: e.qa,
        },
        Workload {
            name: "healthcare",
            lexicon: h.lexicon,
            db: h.db,
            semi: h.semi,
            documents: h.documents,
            qa: h.qa,
        },
    ]
}

fn build(w: &Workload, config: EngineConfig) -> UnifiedEngine {
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
    for name in w.db.table_names() {
        b.add_table(name, w.db.table(name).expect("listed").clone()).expect("fresh");
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

/// The fault plans every snapshot is taken under, with the file-name
/// suffix of each: none, and the exact plan ci.sh exports for its
/// robustness gates. Passed programmatically so the suite is hermetic
/// even when `UNISEM_FAULTS` is set outside.
fn fault_plans() -> [(&'static str, FaultPlan); 2] {
    [
        ("", FaultPlan::disabled()),
        (
            "_faulted",
            FaultPlan::parse("seed:0xC1,relstore.exec@64,hetgraph.traverse@96")
                .expect("valid spec"),
        ),
    ]
}

fn config(faults: FaultPlan) -> EngineConfig {
    EngineConfig { seed: 0xABCD_1234, faults, ..EngineConfig::default() }
}

/// One section per workload query: the question, then `body`.
fn snapshot(w: &Workload, mut body: impl FnMut(usize, &QaItem) -> String) -> String {
    let mut out = String::new();
    for (i, item) in w.qa.iter().enumerate() {
        let text = body(i, item);
        out.push_str("=== Q: ");
        out.push_str(&item.question);
        out.push('\n');
        out.push_str(&text);
        if !text.ends_with('\n') {
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Compares `actual` with the committed snapshot `file`; with `bless`,
/// rewrites the snapshot instead.
fn check_golden(file: &str, actual: &str, bless: bool, ctx: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(file);
    if bless {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with UNISEM_BLESS=1 to create it", path.display())
    });
    if expected != actual {
        let diverges = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{file} ({ctx}) diverges from golden snapshot at line {} \
             (UNISEM_BLESS=1 to re-bless an intentional change)\n\
             expected: {:?}\n  actual: {:?}",
            diverges + 1,
            expected.lines().nth(diverges).unwrap_or("<eof>"),
            actual.lines().nth(diverges).unwrap_or("<eof>"),
        );
    }
}

/// `{:#?}` of the answer without its trace. The result table is printed
/// as columns and rows rather than through its own `Debug`: that is the
/// form the golden files were blessed in, and printing it this way keeps
/// them byte-identical.
fn render_answer(a: &Answer) -> String {
    let table =
        a.result_table.as_ref().map(|t| (t.schema().columns(), t.rows().collect::<Vec<_>>()));
    let rest = Answer { trace: None, result_table: None, ..a.clone() };
    format!("{rest:#?}\nresult_table: {table:#?}")
}

fn bless_requested() -> bool {
    std::env::var_os("UNISEM_BLESS").is_some()
}

/// The answer oracle: for every workload query, with and without the
/// pinned fault plan, at 1 and 4 threads, through `answer` and through
/// `answer_batch`, the `Answer` is byte-identical to the one the deleted
/// degradation ladder gave — and none of that traffic executes a join.
#[test]
fn answers_match_golden_snapshots() {
    for w in workloads() {
        let questions: Vec<&str> = w.qa.iter().map(|i| i.question.as_str()).collect();
        for (suffix, faults) in fault_plans() {
            let file = format!("{}_answers{suffix}.txt", w.name);
            // Bless from the first rendering only; the other three are
            // then compared with it, so a bless cannot hide a thread or
            // batch divergence.
            let mut bless = bless_requested();
            for threads in [1usize, 4] {
                let engine = build(
                    &w,
                    EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        ..config(faults)
                    },
                );
                let serial = snapshot(&w, |_, item| render_answer(&engine.answer(&item.question)));
                check_golden(&file, &serial, bless, &format!("threads={threads} answer"));
                bless = false;
                let batch = engine.answer_batch(&questions);
                let batched = snapshot(&w, |i, _| render_answer(&batch[i]));
                check_golden(&file, &batched, false, &format!("threads={threads} answer_batch"));
                assert_eq!(
                    engine.metrics_report().get("relstore.rows_joined"),
                    Some(0),
                    "{file} threads={threads}: a join has entered the answer path, so the \
                     join-ordering question reopens (DESIGN.md §11)"
                );
            }
        }
    }
}

/// The physical plan recorded for every workload query — operator tree,
/// estimates, and what each executed operator actually did — fault-free
/// and under the pinned fault plan (the `(fault injected)` candidates and
/// their `fault:` actuals, and a faulted traversal's `fault:` actual beside
/// the actual of the lexical scan that ran in its place).
#[test]
fn explain_plans_match_golden_snapshots() {
    for w in workloads() {
        for (suffix, faults) in fault_plans() {
            let file = format!("{}_plans{suffix}.txt", w.name);
            let engine = build(&w, EngineConfig { trace: true, ..config(faults) });
            let actual = snapshot(&w, |_, item| {
                let answer = engine.answer(&item.question);
                let trace = answer.trace.as_ref().expect("trace opted in");
                trace.plan.clone().unwrap_or_else(|| "(no plan recorded)".to_string())
            });
            assert!(actual.contains("[est rows~"), "{file}: plans carry estimates");
            check_golden(&file, &actual, bless_requested(), "explain plans");
        }
    }
}

/// The e-commerce explain plans under the four configurations that change
/// the plan's shape or its actuals, fault-free: topology off (the lexical
/// scan directly under `SemExtract`), synthesis off (no structured
/// branch), a traversal frontier of 2 (`frontier_capped` actuals), and one
/// entropy sample under the floor of 2 (the degenerate gate plan). One
/// file, one `### <configuration>` section each.
#[test]
fn ablation_plans_match_golden_snapshot() {
    let w = &workloads()[0];
    let base = EngineConfig { trace: true, ..config(FaultPlan::disabled()) };
    let ablations = [
        ("enable_topology: false", EngineConfig { enable_topology: false, ..base }),
        ("enable_synthesis: false", EngineConfig { enable_synthesis: false, ..base }),
        (
            "governors.max_traversal_frontier: 2",
            EngineConfig {
                governors: unisem_core::GovernorConfig {
                    max_traversal_frontier: 2,
                    ..base.governors
                },
                ..base
            },
        ),
        ("entropy_samples: 1", EngineConfig { entropy_samples: 1, ..base }),
    ];
    let mut actual = String::new();
    for (name, config) in ablations {
        let engine = build(w, config);
        actual.push_str(&format!("### {name}\n\n"));
        actual.push_str(&snapshot(w, |_, item| {
            let answer = engine.answer(&item.question);
            let trace = answer.trace.as_ref().expect("trace opted in");
            trace.plan.clone().unwrap_or_else(|| "(no plan recorded)".to_string())
        }));
    }
    check_golden("ecommerce_plans_ablations.txt", &actual, bless_requested(), "ablation plans");
}

/// Tracing records and renders; it never changes what is answered. For
/// every question of both workloads, fault-free and under the pinned fault
/// plan, a traced engine's `Answer`, trace stripped, is byte-identical to
/// an untraced engine's, and only the traced one carries a trace.
#[test]
fn tracing_does_not_change_answers() {
    for w in workloads() {
        for (suffix, faults) in fault_plans() {
            let plain = build(&w, config(faults));
            let traced = build(&w, EngineConfig { trace: true, ..config(faults) });
            for item in &w.qa {
                let (a, t) = (plain.answer(&item.question), traced.answer(&item.question));
                let ctx = format!("{}{suffix}: {}", w.name, item.question);
                assert!(a.trace.is_none() && t.trace.is_some(), "{ctx}");
                assert_eq!(render_answer(&a), render_answer(&t), "{ctx}");
            }
        }
    }
}

/// When the admission gate abstains, the plan is the gate over `Abstain`
/// alone: the gate names why, and `Abstain` the route.
#[test]
fn a_gate_abstention_plans_the_gate_alone() {
    use unisem_core::FaultSite;
    let w = &workloads()[0];
    let engine =
        build(w, EngineConfig { trace: true, ..config(FaultPlan::single(FaultSite::SlmGenerate)) });
    for item in &w.qa {
        let q = &item.question;
        let answer = engine.answer(q);
        let plan = answer.trace.as_ref().and_then(|t| t.plan.as_deref());
        assert_eq!(
            plan,
            Some(
                format!(
                    "EntropyGate: samples=10 floor=2 [est rows~0 cpu=1 io=0 slm=0 total=1] \
                     | actual: failed: injected fault at slm.generate (key: {q})\n  \
                     Abstain [est rows~0 cpu=0 io=0 slm=0 total=0] | actual: abstained\n"
                )
                .as_str()
            ),
        );
    }
}

/// The two workloads per-category work counts are pinned on: 24 products
/// and 8 drugs, eight questions per category.
fn pinned_corpora() -> Vec<Workload> {
    corpora(
        EcommerceConfig {
            products: 24,
            quarters: 4,
            reviews_per_product: 2,
            qa_per_category: 8,
            seed: 0xD1FF,
            name_offset: 0,
        },
        HealthcareConfig {
            drugs: 8,
            patients: 12,
            trials_per_drug: 3,
            qa_per_category: 8,
            seed: 0x4EA17,
        },
    )
}

/// Work counted, not timed (DESIGN.md §11f, §11g): the base-table rows each
/// QA category's answers read (`relstore.rows_scanned`, summed over its
/// questions), on both corpora at eight questions per category. An
/// unanswerable question reads nothing, because the value index prunes
/// every candidate its plan would have run; a filter with a key conjunct
/// reads only the rows its probe names — the subject's rows for an
/// aggregate or comparative question, the period's for an e-commerce
/// multi-entity one — and a scan no such filter sits on (healthcare's
/// multi-entity question groups the whole table, then filters the groups)
/// reads its whole table.
#[test]
fn rows_scanned_per_category_are_pinned() {
    let ws = pinned_corpora();
    // (category, questions, rows scanned)
    let pinned: [[(&str, u64, u64); 6]; 2] = [
        [
            ("aggregate", 8, 32),
            ("comparative", 8, 64),
            ("cross_modal", 8, 0),
            ("lookup", 8, 0),
            ("multi_entity", 5, 120),
            ("unanswerable", 8, 0),
        ],
        [
            ("aggregate", 8, 24),
            ("comparative", 8, 48),
            ("cross_modal", 8, 0),
            ("lookup", 8, 0),
            ("multi_entity", 8, 192),
            ("unanswerable", 8, 0),
        ],
    ];
    for (w, want) in ws.iter().zip(pinned) {
        let engine = build(w, config(FaultPlan::disabled()));
        let scanned = || engine.metrics_report().get("relstore.rows_scanned").expect("registered");
        let mut got: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for item in &w.qa {
            let before = scanned();
            engine.answer(&item.question);
            let (questions, rows) = got.entry(item.category.label()).or_default();
            *questions += 1;
            *rows += scanned() - before;
        }
        let want: BTreeMap<&str, (u64, u64)> = want.map(|(c, q, rows)| (c, (q, rows))).into();
        assert_eq!(got, want, "workload={}", w.name);
        let pruned = engine.metrics_report().get("planner.candidates_pruned");
        assert!(pruned > Some(0), "workload={}: nothing was pruned", w.name);
    }
}

/// Anchor linking's exact work, `TraversalStats::labels_examined`, pinned
/// per QA category (DESIGN.md §5b): the fuzzy candidates in a label length
/// the similarity bound admits plus the entity ids the containment word
/// index lists. A question that names a known entity examines none.
#[test]
fn labels_examined_per_category_are_pinned() {
    use std::sync::Arc;
    use unisem_retrieval::TopologyRetriever;

    // (category, questions, labels examined)
    let pinned: [[(&str, u64, u64); 6]; 2] = [
        [
            ("aggregate", 8, 0),
            ("comparative", 8, 0),
            ("cross_modal", 8, 0),
            ("lookup", 8, 0),
            ("multi_entity", 5, 0),
            ("unanswerable", 8, 296),
        ],
        [
            ("aggregate", 8, 0),
            ("comparative", 8, 0),
            ("cross_modal", 8, 0),
            ("lookup", 8, 0),
            ("multi_entity", 8, 0),
            ("unanswerable", 8, 352),
        ],
    ];
    for (w, want) in pinned_corpora().iter().zip(pinned) {
        let e = build(w, config(FaultPlan::disabled()));
        let retriever = TopologyRetriever::new(
            e.slm().clone(),
            Arc::new(e.graph().clone()),
            Arc::new(e.docs().clone()),
            e.config().topology,
        );
        let mut got: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for item in &w.qa {
            let (_, stats) =
                retriever.retrieve_with_stats(&item.question, e.config().retrieval_top_k);
            let (questions, labels) = got.entry(item.category.label()).or_default();
            *questions += 1;
            *labels += stats.labels_examined as u64;
        }
        for (category, (questions, labels)) in &got {
            println!("{} {category}: {questions} questions, {labels} labels", w.name);
        }
        let want: BTreeMap<&str, (u64, u64)> = want.map(|(c, q, n)| (c, (q, n))).into();
        assert_eq!(got, want, "workload={}", w.name);
    }
}

/// What the cost model reads must not depend on the pool width: builds at
/// 1, 2, 4, and 8 threads produce equal tables and value indexes, equal
/// index footprints and byte-identical build-metrics snapshots.
#[test]
fn estimated_substrates_identical_across_build_threads() {
    for w in workloads() {
        let build_at = |threads: usize| {
            build(
                &w,
                EngineConfig {
                    seed: 0xABCD_1234,
                    faults: FaultPlan::disabled(),
                    parallel: ParallelConfig::with_threads(threads),
                    ..EngineConfig::default()
                },
            )
        };
        let reference = build_at(1);
        let ref_metrics = reference.metrics_report().to_json();
        assert!(!reference.db().is_empty(), "{}: the build has tables", w.name);
        for threads in [2usize, 4, 8] {
            let e = build_at(threads);
            assert_eq!(e.db(), reference.db(), "workload={} threads={threads} tables", w.name);
            assert_eq!(
                e.index_bytes(),
                reference.index_bytes(),
                "workload={} threads={threads} index bytes",
                w.name
            );
            assert_eq!(
                e.metrics_report().to_json().as_bytes(),
                ref_metrics.as_bytes(),
                "workload={} threads={threads} build metrics",
                w.name
            );
        }
    }
}

/// `Answer::trace` in planner mode carries the physical plan
/// with per-node estimated vs actual costs (the ISSUE's acceptance
/// criterion for explain output).
#[test]
fn planner_trace_shows_estimated_and_actual_costs() {
    for w in workloads() {
        let e = build(
            &w,
            EngineConfig {
                seed: 0xABCD_1234,
                trace: true,
                faults: FaultPlan::disabled(),
                ..EngineConfig::default()
            },
        );
        let mut saw_structured_plan = false;
        for item in &w.qa {
            let a = e.answer(&item.question);
            let t = a.trace.as_ref().expect("trace opted in");
            let plan = t.plan.as_deref().unwrap_or_default();
            assert!(
                plan.contains("EntropyGate"),
                "workload={} plan missing root gate: {plan}",
                w.name
            );
            assert!(
                plan.contains("[est rows~"),
                "workload={} plan missing estimates: {plan}",
                w.name
            );
            assert!(plan.contains("| actual:"), "workload={} plan missing actuals: {plan}", w.name);
            if plan.contains("Scan:") {
                saw_structured_plan = true;
            }
        }
        assert!(
            saw_structured_plan,
            "workload={}: no query exercised an embedded relational plan",
            w.name
        );
    }
}

/// The lexical scan counts its postings in the pass that scores them
/// (DESIGN.md §5b), and the count stays the pure function of query and
/// corpus the resource meter promises. For every query of both workloads
/// a traversal without anchors reports exactly
/// `Bm25Index::postings_scanned`; one with anchors reports what scoring
/// its candidate chunks read, which is never more. The meter of every
/// answer the retrieval branch gave carries the traversal's count, or the
/// index count when the traversal faulted into its lexical fallback or is
/// switched off. There is one BM25 path.
#[test]
fn postings_scanned_is_the_index_count_for_every_query() {
    use std::sync::Arc;
    use unisem_core::{FaultSite, Route};
    use unisem_retrieval::TopologyRetriever;

    let traced = EngineConfig { trace: true, ..config(FaultPlan::disabled()) };
    let engines = [
        ("traversal", traced),
        ("faulted", EngineConfig { faults: FaultPlan::single(FaultSite::GraphTraverse), ..traced }),
        ("topology off", EngineConfig { enable_topology: false, ..traced }),
    ];
    for w in workloads() {
        let (mut anchored, mut short, mut read_less) = (0, 0, 0);
        for (label, engine_config) in engines {
            let e = build(&w, engine_config);
            let retriever = TopologyRetriever::new(
                e.slm().clone(),
                Arc::new(e.graph().clone()),
                Arc::new(e.docs().clone()),
                e.config().topology,
            );
            let mut retrieved = 0;
            for item in &w.qa {
                let q = &item.question;
                let scanned = e.docs().index().postings_scanned(q);
                let k = e.config().retrieval_top_k;
                let (hits, stats) = retriever.retrieve_with_stats(q, k);
                if stats.lexical_fallback {
                    assert_eq!(stats.postings_scanned, scanned, "workload={} {q}", w.name);
                } else if label == "traversal" {
                    assert!(stats.postings_scanned <= scanned, "workload={} {q}", w.name);
                    anchored += 1;
                    short += usize::from(hits.len() < k);
                    read_less += usize::from(stats.postings_scanned < scanned);
                }
                let expected = if label == "traversal" { stats.postings_scanned } else { scanned };
                let answer = e.answer(q);
                if matches!(answer.route, Route::Unstructured { .. } | Route::Hybrid { .. }) {
                    retrieved += 1;
                    let metered =
                        answer.trace.and_then(|t| t.meter).expect("metered").postings_scanned;
                    assert_eq!(metered, expected as u64, "workload={} {label}: {q}", w.name);
                }
            }
            assert!(retrieved > 0, "workload={} {label}: no query reached retrieval", w.name);
        }
        assert!(read_less > 0, "workload={}: {anchored} anchored, none read less", w.name);
        // Anchored questions whose frontier holds fewer than `k` chunks:
        // with no lexical fill-ins they return fewer hits (ROADMAP item
        // 24's risk). Pinned so a change to it shows.
        let want = if w.name == "ecommerce" { (10, 0) } else { (8, 7) };
        assert_eq!((anchored, short), want, "workload={}: (anchored, fewer than k)", w.name);
    }
}
