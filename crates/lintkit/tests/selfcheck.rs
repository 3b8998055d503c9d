//! Self-check: udlint over this very workspace is deterministic and clean.
//!
//! Two full runs must render byte-identical JSON (no timestamps, no
//! absolute paths, no hash-order artifacts in the linter itself), sorted
//! by `(path, line, lint)` — that is what lets CI diff reports across
//! machines and runs.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lintkit -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = lintkit::runner::run(&root, false).expect("walk").render_json();
    let b = lintkit::runner::run(&root, false).expect("walk").render_json();
    assert_eq!(a, b, "two udlint runs over the same tree must render identically");
    assert!(!a.contains(root.to_string_lossy().as_ref()), "no absolute paths in the report");
}

#[test]
fn diagnostics_are_sorted_by_path_line_lint() {
    let root = workspace_root();
    let report = lintkit::runner::run(&root, true).expect("walk");
    let keys: Vec<(String, u32, String)> =
        report.diagnostics.iter().map(|d| (d.path.clone(), d.line, d.lint.clone())).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    let skeys: Vec<(String, u32, String)> = report
        .suppressed
        .iter()
        .map(|s| (s.diag.path.clone(), s.diag.line, s.diag.lint.clone()))
        .collect();
    let mut ssorted = skeys.clone();
    ssorted.sort();
    assert_eq!(skeys, ssorted);
}

#[test]
fn workspace_is_clean_under_default_lints() {
    let root = workspace_root();
    let report = lintkit::runner::run(&root, false).expect("walk");
    assert!(
        report.diagnostics.is_empty(),
        "unsuppressed diagnostics in the tree:\n{}",
        report.render_text()
    );
}

/// The semantic passes run as part of every `run()` — their machinery
/// must be demonstrably *doing work* on the real tree, not silently
/// matching nothing. The symbol graph must know the engine's anchor
/// functions, and the one blessed uncovered-I/O window (WAL recovery
/// truncation) must show up as an exercised suppression.
#[test]
fn semantic_passes_cover_the_real_tree() {
    let root = workspace_root();
    let ws = lintkit::runner::build_workspace(&root).expect("walk");
    assert!(
        ws.fns.iter().any(|f| f.qual() == "core::executor::UnifiedEngine::execute_query"),
        "symbol graph lost the executor root"
    );
    assert!(
        ws.fns.iter().any(|f| f.qual() == "storekit::wal::Wal::append"),
        "symbol graph lost the WAL append path"
    );
    let report = lintkit::runner::run(&root, false).expect("walk");
    assert!(
        report.suppressed.iter().any(|s| s.diag.lint == "uncovered-io-site"),
        "the WAL recovery-truncation suppressions should be live; if the I/O moved \
         under a fault site, delete them and lower lint-budget.txt"
    );
}

#[test]
fn graph_dump_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = lintkit::runner::build_workspace(&root).expect("walk").render_graph();
    let b = lintkit::runner::build_workspace(&root).expect("walk").render_graph();
    assert_eq!(a, b, "`udlint --dump-graph` must be byte-stable");
    assert!(a.contains("core::engine"), "dump names the module tree");
    assert!(a.contains(" -> "), "dump contains call edges");
}

#[test]
fn suppression_count_is_within_committed_budget() {
    let root = workspace_root();
    let budget: usize = std::fs::read_to_string(root.join("lint-budget.txt"))
        .expect("lint-budget.txt")
        .trim()
        .parse()
        .expect("budget is a number");
    let report = lintkit::runner::run(&root, false).expect("walk");
    assert!(
        report.suppressed.len() <= budget,
        "suppression count {} exceeds committed budget {budget}; either fix the code or raise \
         the budget in lint-budget.txt under review",
        report.suppressed.len()
    );
}
