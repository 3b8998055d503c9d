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
    let a = lintkit::runner::run(&root).expect("walk").render_json();
    let b = lintkit::runner::run(&root).expect("walk").render_json();
    assert_eq!(a, b, "two udlint runs over the same tree must render identically");
    assert!(!a.contains(root.to_string_lossy().as_ref()), "no absolute paths in the report");
}

#[test]
fn diagnostics_are_sorted_by_path_line_lint() {
    let root = workspace_root();
    let report = lintkit::runner::run(&root).expect("walk");
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
    let report = lintkit::runner::run(&root).expect("walk");
    assert!(
        report.diagnostics.is_empty(),
        "unsuppressed diagnostics in the tree:\n{}",
        report.render_text()
    );
}

/// The tree's `uncovered-io-site` suppressions must be *live*: the rule
/// is demonstrably matching real code, and each blessed window — the
/// recovery truncation in `Wal::open`, the header write in
/// `Wal::create` — still exists where its reason says it does.
#[test]
fn uncovered_io_suppressions_are_live() {
    let root = workspace_root();
    let report = lintkit::runner::run(&root).expect("walk");
    let live: Vec<&str> = report
        .suppressed
        .iter()
        .filter(|s| s.diag.lint == "uncovered-io-site")
        .map(|s| {
            assert_eq!(s.diag.path, "crates/storekit/src/wal.rs");
            s.diag.message.as_str()
        })
        .collect();
    for (function, primitive) in
        [("open", "set_len"), ("open", "sync_all"), ("create", "write_all"), ("create", "sync_all")]
    {
        assert!(
            live.iter().any(|m| m.contains(&format!("raw `{primitive}` in `{function}`"))),
            "no live suppression for {primitive} in {function}; if the I/O moved beside a \
             fault site, delete the suppression and lower lint-budget.txt: {live:?}"
        );
    }
    assert_eq!(live.len(), 4, "{live:?}");
}

#[test]
fn suppression_count_is_within_committed_budget() {
    let root = workspace_root();
    let budget: usize = std::fs::read_to_string(root.join("lint-budget.txt"))
        .expect("lint-budget.txt")
        .trim()
        .parse()
        .expect("budget is a number");
    let report = lintkit::runner::run(&root).expect("walk");
    assert!(
        report.suppressed.len() <= budget,
        "suppression count {} exceeds committed budget {budget}; either fix the code or raise \
         the budget in lint-budget.txt under review",
        report.suppressed.len()
    );
}
