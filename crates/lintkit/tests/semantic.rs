//! Integration suite for the workspace-level semantic lints.
//!
//! Every fixture here is a miniature workspace fed to
//! [`runner::check_tree`] — the same entry point `udlint` uses — so
//! the tests cover the whole pipeline: parse, symbol graph, call
//! graph, semantic passes, and shared suppression resolution.
//!
//! The first test is the acceptance regression for this layer: a
//! violation the old token-level pass *provably misses* (each file is
//! individually clean) that the semantic pass catches across files.

use lintkit::runner::{check_source, check_tree, RunReport};

fn tree(files: &[(&str, &str)]) -> RunReport {
    let inputs: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    check_tree(&inputs, false)
}

fn lints_of(r: &RunReport) -> Vec<(&str, &str, u32)> {
    r.diagnostics.iter().map(|d| (d.lint.as_str(), d.path.as_str(), d.line)).collect()
}

// ---------------------------------------------------------------- wallclock

const CLOCK_HELPER: &str = "pub fn now_ms() -> u64 {\n\
    let _t = std::time::Instant::now();\n    0\n}\n";
const CLOCK_CALLER: &str = "use tracekit::util::now_ms;\n\
    pub fn serve() -> u64 {\n    now_ms()\n}\n";

/// The cross-file violation class the token pass cannot see: the
/// caller's file never mentions a clock, so linting it alone is clean —
/// but the workspace pass follows the call edge into the helper crate.
#[test]
fn transitive_wallclock_catches_what_the_token_pass_misses() {
    // Old token-level view of the caller file: provably clean.
    let solo = check_source("crates/core/src/hot.rs", CLOCK_CALLER, false);
    assert!(
        solo.diagnostics.is_empty(),
        "token pass must miss the cross-file read: {:?}",
        solo.diagnostics
    );

    // Workspace view: the caller is flagged with the call chain.
    let r = tree(&[
        ("crates/tracekit/src/util.rs", CLOCK_HELPER),
        ("crates/core/src/hot.rs", CLOCK_CALLER),
    ]);
    let transitive: Vec<_> =
        r.diagnostics.iter().filter(|d| d.lint == "transitive-wallclock").collect();
    assert_eq!(transitive.len(), 1, "{:?}", lints_of(&r));
    assert_eq!(transitive[0].path, "crates/core/src/hot.rs");
    assert!(transitive[0].message.contains("serve"), "{}", transitive[0].message);
    assert!(transitive[0].message.contains("now_ms"), "chain names the reader");
    // The direct reader stays the token lint's finding, not ours.
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.lint == "wallclock-in-hot-path" && d.path == "crates/tracekit/src/util.rs"),
        "{:?}",
        lints_of(&r)
    );
    assert!(
        !r.diagnostics
            .iter()
            .any(|d| d.lint == "transitive-wallclock" && d.path == "crates/tracekit/src/util.rs"),
        "direct readers are not double-reported"
    );
}

#[test]
fn wall_module_is_a_quarantine_boundary() {
    // A clock read inside tracekit::wall taints nobody.
    let r = tree(&[
        (
            "crates/tracekit/src/wall.rs",
            "pub fn stamp() -> u64 { let _ = std::time::Instant::now(); 0 }\n",
        ),
        (
            "crates/core/src/hot.rs",
            "use tracekit::wall::stamp;\npub fn serve() -> u64 { stamp() }\n",
        ),
    ]);
    assert!(!r.diagnostics.iter().any(|d| d.lint == "transitive-wallclock"), "{:?}", lints_of(&r));
}

#[test]
fn test_functions_do_not_propagate_taint() {
    let r = tree(&[
        ("crates/tracekit/src/util.rs", CLOCK_HELPER),
        (
            "crates/core/src/hot.rs",
            "use tracekit::util::now_ms;\n#[cfg(test)]\nmod tests {\n    \
             fn bench_helper() -> u64 { super::now_ms() }\n}\n",
        ),
    ]);
    assert!(!r.diagnostics.iter().any(|d| d.lint == "transitive-wallclock"), "{:?}", lints_of(&r));
}

// ----------------------------------------------------------------- io sites

#[test]
fn uncovered_io_site_fires_only_outside_the_checked_closure() {
    let src = "\
pub struct Store { faults: FaultPlan }\n\
impl Store {\n\
    pub fn guarded(&self, f: &std::fs::File) -> std::io::Result<()> {\n\
        self.faults.check(Site::StoreFlush, \"k\")?;\n\
        self.raw(f)\n\
    }\n\
    fn raw(&self, f: &std::fs::File) -> std::io::Result<()> {\n\
        f.write_all(&[0])\n\
    }\n\
    pub fn orphan(&self, f: &std::fs::File) -> std::io::Result<()> {\n\
        f.sync_all()\n\
    }\n\
}\n";
    let r = tree(&[("crates/storekit/src/newpath.rs", src)]);
    let hits: Vec<_> = r.diagnostics.iter().filter(|d| d.lint == "uncovered-io-site").collect();
    assert_eq!(hits.len(), 1, "{:?}", lints_of(&r));
    assert!(hits[0].message.contains("orphan"), "{}", hits[0].message);
    assert!(hits[0].message.contains("sync_all"));
    assert!(
        !r.diagnostics.iter().any(|d| d.message.contains("`raw`")),
        "fns below a check are covered: {:?}",
        lints_of(&r)
    );
}

#[test]
fn io_outside_storekit_is_out_of_scope() {
    // tracekit's trace sink writes files too — deliberately outside the
    // durability contract (it is observability plumbing, not state).
    let r = tree(&[(
        "crates/tracekit/src/sink.rs",
        "pub fn dump(f: &std::fs::File) { let _ = f.sync_all(); }\n",
    )]);
    assert!(!r.diagnostics.iter().any(|d| d.lint == "uncovered-io-site"), "{:?}", lints_of(&r));
}

#[test]
fn semantic_findings_accept_suppressions_like_any_other() {
    let src = "\
pub fn orphan(f: &std::fs::File) -> std::io::Result<()> {\n\
    // udlint: allow(uncovered-io-site) -- fixture: documented pre-state window\n\
    f.sync_all()\n\
}\n";
    let r = tree(&[("crates/storekit/src/newpath.rs", src)]);
    assert!(!r.diagnostics.iter().any(|d| d.lint == "uncovered-io-site"), "{:?}", lints_of(&r));
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].diag.lint, "uncovered-io-site");

    // And an unused semantic suppression is flagged, same as token ones.
    let clean = "\
pub fn nothing() {}\n\
// udlint: allow(uncovered-io-site) -- fixture: stale reason\n\
pub fn also_nothing() {}\n";
    let r = tree(&[("crates/storekit/src/newpath.rs", clean)]);
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.lint == "suppression-syntax" && d.message.contains("unused")),
        "{:?}",
        lints_of(&r)
    );
}

// -------------------------------------------------------------- registries

const METRICS_FIXTURE: &str = "\
registry_enum! {\n\
    pub enum Metric {\n\
        Used => \"m.used\",\n\
        Dead => \"m.dead\",\n\
        TestOnly => \"m.test_only\",\n\
    }\n\
}\n";

#[test]
fn dead_registry_entry_finds_unrecorded_variants() {
    let r = tree(&[
        ("crates/tracekit/src/metrics.rs", METRICS_FIXTURE),
        (
            "crates/core/src/ingest.rs",
            "pub fn record(reg: &MetricsRegistry) { reg.add(Metric::Used, 1); }\n\
             #[cfg(test)]\nmod tests {\n    fn t(reg: &MetricsRegistry) { \
             reg.add(Metric::TestOnly, 1); }\n}\n",
        ),
    ]);
    let dead: Vec<_> = r.diagnostics.iter().filter(|d| d.lint == "dead-registry-entry").collect();
    let names: Vec<&str> = dead.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(dead.len(), 2, "{names:?}");
    assert!(names.iter().any(|m| m.contains("Metric::Dead")), "{names:?}");
    assert!(
        names.iter().any(|m| m.contains("Metric::TestOnly")),
        "test-only recording does not count: {names:?}"
    );
    assert!(!names.iter().any(|m| m.contains("Metric::Used")), "{names:?}");
    assert!(dead.iter().all(|d| d.path == "crates/tracekit/src/metrics.rs"));
}

#[test]
fn references_inside_metrics_rs_do_not_count_as_liveness() {
    // The generated ALL/name tables (and a hand-written kind() match)
    // mention every variant; only *recording* sites elsewhere count.
    let with_selfref = format!(
        "{METRICS_FIXTURE}\nimpl Metric {{\n    pub fn kind(self) -> u32 {{\n        \
         match self {{ Metric::Dead => 1, _ => 0 }}\n    }}\n}}\n"
    );
    let r = tree(&[("crates/tracekit/src/metrics.rs", with_selfref.as_str())]);
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.lint == "dead-registry-entry" && d.message.contains("Metric::Dead")),
        "{:?}",
        lints_of(&r)
    );
}

// ------------------------------------------------------------- determinism

#[test]
fn check_tree_output_is_independent_of_input_order() {
    let files = [
        ("crates/tracekit/src/util.rs", CLOCK_HELPER),
        ("crates/core/src/hot.rs", CLOCK_CALLER),
        ("crates/tracekit/src/metrics.rs", METRICS_FIXTURE),
        (
            "crates/storekit/src/newpath.rs",
            "pub fn orphan(f: &std::fs::File) { let _ = f.sync_all(); }\n",
        ),
    ];
    let a = tree(&files).render_json();
    let mut rev = files;
    rev.reverse();
    let b = tree(&rev).render_json();
    assert_eq!(a, b, "sorted, byte-identical reports regardless of walk order");
}
