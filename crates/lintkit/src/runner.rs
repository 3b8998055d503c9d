//! Workspace walk, suppression resolution, and report rendering.
//!
//! The walk is deterministic: directory entries are sorted by name,
//! `target/` and dot-directories are skipped, and every emitted path is
//! workspace-relative with `/` separators — so the JSON report for a
//! given tree is byte-identical across runs and machines.

use std::fs;
use std::path::Path;

use crate::diag::{Diagnostic, Suppressed};
use crate::manifest::lint_manifest;
use crate::passes::{dead_registry, file_scope, registry, FileScope};
use crate::source::{SourceFile, Suppression};

/// The outcome of linting a tree (or a single source, in tests).
#[derive(Default)]
pub struct RunReport {
    /// Unsuppressed findings, sorted by `(path, line, lint, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a suppression comment, same order.
    pub suppressed: Vec<Suppressed>,
}

impl RunReport {
    fn finish(mut self) -> RunReport {
        self.diagnostics.sort();
        self.diagnostics.dedup();
        self.suppressed.sort_by(|a, b| a.diag.cmp(&b.diag));
        self
    }

    /// Human-readable rendering (one line per finding, summary last).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_text());
            out.push('\n');
        }
        for s in &self.suppressed {
            out.push_str(&format!(
                "{}:{}: [{}] suppressed -- {}\n",
                s.diag.path, s.diag.line, s.diag.lint, s.reason
            ));
        }
        out.push_str(&format!(
            "udlint: {} diagnostic(s), {} suppressed\n",
            self.diagnostics.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Machine-readable rendering: stable field order, sorted entries,
    /// no timestamps or absolute paths — byte-identical across runs.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&d.to_json());
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let mut j = s.diag.to_json();
            j.pop(); // replace trailing `}` with the reason field
            j.push_str(&format!(",\"reason\":\"{}\"}}", crate::diag::json_escape(&s.reason)));
            out.push_str(&j);
        }
        if !self.suppressed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"counts\": {{\"diagnostics\": {}, \"suppressed\": {}}}\n}}\n",
            self.diagnostics.len(),
            self.suppressed.len()
        ));
        out
    }
}

/// Whether `lint` is a registered lint name.
fn known_lint(lint: &str) -> bool {
    crate::LINTS.iter().any(|(name, _)| *name == lint)
}

/// Whether `lint` is one no comment may silence.
fn unsuppressible(lint: &str) -> bool {
    crate::UNSUPPRESSIBLE.contains(&lint)
}

/// Applies suppressions to raw findings: matching `(line, lint)` pairs
/// move to `suppressed`; malformed, unknown-lint, and unused suppressions
/// become `suppression-syntax` diagnostics (an unused suppression is a
/// stale reason waiting to mislead someone), and so does one naming a
/// lint of [`crate::UNSUPPRESSIBLE`], which silences nothing.
fn resolve(
    rel_path: &str,
    raw: Vec<Diagnostic>,
    suppressions: &[Suppression],
    bad: &[(u32, String)],
    line_in_test: impl Fn(u32) -> bool,
    active: impl Fn(&str) -> bool,
    report: &mut RunReport,
) {
    let mut used = vec![false; suppressions.len()];
    for d in raw {
        let hit = suppressions
            .iter()
            .position(|s| s.target_line == d.line && s.lint == d.lint && !unsuppressible(&s.lint));
        match hit {
            Some(i) => {
                used[i] = true;
                report
                    .suppressed
                    .push(Suppressed { diag: d, reason: suppressions[i].reason.clone() });
            }
            None => report.diagnostics.push(d),
        }
    }
    for (line, problem) in bad {
        report.diagnostics.push(Diagnostic {
            path: rel_path.to_string(),
            line: *line,
            lint: "suppression-syntax".into(),
            message: problem.clone(),
        });
    }
    for (i, s) in suppressions.iter().enumerate() {
        if !known_lint(&s.lint) {
            report.diagnostics.push(Diagnostic {
                path: rel_path.to_string(),
                line: s.comment_line,
                lint: "suppression-syntax".into(),
                message: format!("suppression names unknown lint `{}`", s.lint),
            });
        } else if unsuppressible(&s.lint) {
            report.diagnostics.push(Diagnostic {
                path: rel_path.to_string(),
                line: s.comment_line,
                lint: "suppression-syntax".into(),
                message: format!("`{}` cannot be suppressed: fix the finding", s.lint),
            });
        } else if !used[i] && active(&s.lint) && !line_in_test(s.comment_line) {
            report.diagnostics.push(Diagnostic {
                path: rel_path.to_string(),
                line: s.comment_line,
                lint: "suppression-syntax".into(),
                message: format!(
                    "unused suppression: no `{}` diagnostic on line {}",
                    s.lint, s.target_line
                ),
            });
        }
    }
}

/// Lints one manifest (every `Cargo.toml` is in scope — the hermetic
/// policy binds tooling crates too).
pub fn check_manifest_source(rel_path: &str, src: &str, report: &mut RunReport) {
    let (raw, suppressions) = lint_manifest(rel_path, src);
    resolve(rel_path, raw, &suppressions, &[], |_| false, |_| true, report);
}

/// Lints a whole workspace given in memory as `(rel_path, source)`
/// pairs. Every file is lexed once; the one pass that needs all of them
/// at once (`dead-registry-entry`) runs first, and its findings join the
/// per-file passes' under one suppression resolution per file — so a
/// suppression can silence either kind and an unused one is detected
/// across both.
pub fn check_tree(inputs: &[(String, String)], pedantic: bool) -> RunReport {
    let mut report = RunReport::default();
    let mut engine: Vec<(String, SourceFile)> = Vec::new();
    let mut usage: Vec<SourceFile> = Vec::new();
    for (rel_path, src) in inputs {
        if !rel_path.ends_with(".rs") {
            check_manifest_source(rel_path, src, &mut report);
        } else if let FileScope::Engine { krate } = file_scope(rel_path) {
            engine.push((krate, SourceFile::parse(rel_path, src)));
        } else if dead_registry::is_usage_source(rel_path) {
            usage.push(SourceFile::parse(rel_path, src));
        }
    }

    let all: Vec<&SourceFile> = engine.iter().map(|(_, f)| f).chain(&usage).collect();
    let mut whole_tree = Vec::new();
    dead_registry::run(&all, &mut whole_tree);

    for (krate, file) in &engine {
        let mut raw: Vec<Diagnostic> =
            whole_tree.iter().filter(|d| d.path == file.rel_path).cloned().collect();
        let mut active_lints = vec![dead_registry::LINT];
        for pass in registry(pedantic) {
            if pass.applies(krate, &file.rel_path) {
                pass.run(file, &mut raw);
                active_lints.push(pass.lint());
            }
        }
        let bad: Vec<(u32, String)> =
            file.bad_suppressions.iter().map(|b| (b.line, b.problem.clone())).collect();
        resolve(
            &file.rel_path,
            raw,
            &file.suppressions,
            &bad,
            |line| file.toks.iter().any(|t| t.line == line && t.in_test),
            |lint| active_lints.contains(&lint),
            &mut report,
        );
    }
    report.finish()
}

/// Reads every lintable file under `root` into memory.
fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_files(root, Path::new(""), &mut files)?;
    files.sort();
    let mut inputs = Vec::new();
    for rel in &files {
        let Ok(src) = fs::read_to_string(root.join(rel)) else {
            continue; // non-UTF-8 or unreadable: nothing for a lexer to do
        };
        inputs.push((rel.replace('\\', "/"), src));
    }
    Ok(inputs)
}

/// Walks `root` and lints every `.rs` and `Cargo.toml` file in scope.
pub fn run(root: &Path, pedantic: bool) -> std::io::Result<RunReport> {
    Ok(check_tree(&read_tree(root)?, pedantic))
}

/// Recursively collects lintable files, skipping `target/` and
/// dot-directories, with entries visited in sorted order.
fn collect_files(root: &Path, rel: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let dir = root.join(rel);
    let mut entries: Vec<_> = fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    for name in entries {
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let child_rel = if rel.as_os_str().is_empty() {
            Path::new(&name).to_path_buf()
        } else {
            rel.join(&name)
        };
        let child = root.join(&child_rel);
        if child.is_dir() {
            collect_files(root, &child_rel, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(child_rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Convenience for tests: lints a one-file tree.
pub fn check_source(rel_path: &str, src: &str, pedantic: bool) -> RunReport {
    check_tree(&[(rel_path.to_string(), src.to_string())], pedantic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_matching_lint_only() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // udlint: allow(unwrap-in-core) -- checked by caller\n\
                   }\n";
        let r = check_source("crates/core/src/f.rs", src, false);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "checked by caller");
    }

    #[test]
    fn suppression_with_wrong_lint_does_not_silence() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // udlint: allow(raw-thread-spawn) -- wrong lint\n\
                   }\n";
        let r = check_source("crates/core/src/f.rs", src, false);
        // The unwrap stays, and the suppression is flagged as unused.
        assert_eq!(r.diagnostics.len(), 2, "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().any(|d| d.lint == "unwrap-in-core"));
        assert!(r.diagnostics.iter().any(|d| d.lint == "suppression-syntax"));
    }

    #[test]
    fn unknown_lint_in_suppression_is_flagged() {
        let src = "// udlint: allow(made-up-lint) -- because\nfn f() {}\n";
        let r = check_source("crates/core/src/f.rs", src, false);
        assert_eq!(r.diagnostics.len(), 1);
        assert!(r.diagnostics[0].message.contains("unknown lint"));
    }

    #[test]
    fn inactive_pedantic_suppression_is_not_unused() {
        // slice-index only runs under --pedantic; its suppressions must
        // not be reported as unused in a default run.
        let src = "fn f(v: &[u32]) -> u32 {\n\
                   v[0] // udlint: allow(slice-index) -- len checked above\n\
                   }\n";
        let r = check_source("crates/core/src/f.rs", src, false);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        let r = check_source("crates/core/src/f.rs", src, true);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn ignored_scope_produces_nothing() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = check_source("crates/detkit/src/f.rs", src, true);
        assert!(r.diagnostics.is_empty() && r.suppressed.is_empty());
    }

    #[test]
    fn json_report_shape() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = check_source("crates/core/src/f.rs", src, false);
        let j = r.render_json();
        assert!(j.contains("\"diagnostics\": ["));
        assert!(j.contains("\"counts\": {\"diagnostics\": 1, \"suppressed\": 0}"));
        assert!(!j.contains("/root/"), "no absolute paths in the report");
    }
}
