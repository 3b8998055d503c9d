//! Workspace walk, suppression resolution, and report rendering.
//!
//! The walk is deterministic: directory entries are sorted by name,
//! `target/` and dot-directories are skipped, and every emitted path is
//! workspace-relative with `/` separators — so the JSON report for a
//! given tree is byte-identical across runs and machines.

use std::fs;
use std::path::Path;

use crate::diag::{Diagnostic, Suppressed};
use crate::passes::{file_scope, registry, FileScope};
use crate::source::SourceFile;

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

/// Applies `file`'s suppressions to its raw findings: matching
/// `(line, lint)` pairs move to `suppressed`; malformed, unknown-lint, and
/// unused suppressions become `suppression-syntax` diagnostics (an unused
/// suppression is a stale reason waiting to mislead someone), and so does
/// one naming a lint of [`crate::UNSUPPRESSIBLE`], which silences nothing.
/// A suppression of a lint that is not `active` on this file, or one in
/// test code, is never reported as unused.
fn resolve(file: &SourceFile, raw: Vec<Diagnostic>, active: &[&str], report: &mut RunReport) {
    let syntax = |line: u32, message: String| Diagnostic {
        path: file.rel_path.clone(),
        line,
        lint: "suppression-syntax".into(),
        message,
    };
    let mut used = vec![false; file.suppressions.len()];
    for d in raw {
        let hit = file
            .suppressions
            .iter()
            .position(|s| s.target_line == d.line && s.lint == d.lint && !unsuppressible(&s.lint));
        match hit {
            Some(i) => {
                used[i] = true;
                let reason = file.suppressions[i].reason.clone();
                report.suppressed.push(Suppressed { diag: d, reason });
            }
            None => report.diagnostics.push(d),
        }
    }
    for b in &file.bad_suppressions {
        report.diagnostics.push(syntax(b.line, b.problem.clone()));
    }
    let in_test = |line: u32| file.toks.iter().any(|t| t.line == line && t.in_test);
    for (s, used) in file.suppressions.iter().zip(used) {
        let problem = if !known_lint(&s.lint) {
            format!("suppression names unknown lint `{}`", s.lint)
        } else if unsuppressible(&s.lint) {
            format!("`{}` cannot be suppressed: fix the finding", s.lint)
        } else if !used && active.contains(&s.lint.as_str()) && !in_test(s.comment_line) {
            format!("unused suppression: no `{}` diagnostic on line {}", s.lint, s.target_line)
        } else {
            continue;
        };
        report.diagnostics.push(syntax(s.comment_line, problem));
    }
}

/// Lints a workspace given in memory as `(rel_path, source)` pairs: every
/// engine source is lexed once, run through each pass that applies to its
/// crate, and its findings resolved against its own suppressions.
pub fn check_tree(inputs: &[(String, String)]) -> RunReport {
    let mut report = RunReport::default();
    for (rel_path, src) in inputs {
        let FileScope::Engine { krate } = file_scope(rel_path) else { continue };
        let file = SourceFile::parse(rel_path, src);
        let mut raw = Vec::new();
        let mut active = Vec::new();
        for pass in registry() {
            if pass.applies(&krate, rel_path) {
                pass.run(&file, &mut raw);
                active.push(pass.lint());
            }
        }
        resolve(&file, raw, &active, &mut report);
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

/// Walks `root` and lints every `.rs` file in scope.
pub fn run(root: &Path) -> std::io::Result<RunReport> {
    Ok(check_tree(&read_tree(root)?))
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
        } else if name.ends_with(".rs") {
            out.push(child_rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Convenience for tests: lints a one-file tree.
pub fn check_source(rel_path: &str, src: &str) -> RunReport {
    check_tree(&[(rel_path.to_string(), src.to_string())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_matching_lint_only() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // udlint: allow(unwrap-in-core) -- checked by caller\n\
                   }\n";
        let r = check_source("crates/core/src/f.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "checked by caller");
    }

    #[test]
    fn suppression_with_wrong_lint_does_not_silence() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // udlint: allow(raw-thread-spawn) -- wrong lint\n\
                   }\n";
        let r = check_source("crates/core/src/f.rs", src);
        // The unwrap stays, and the suppression is flagged as unused.
        assert_eq!(r.diagnostics.len(), 2, "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().any(|d| d.lint == "unwrap-in-core"));
        assert!(r.diagnostics.iter().any(|d| d.lint == "suppression-syntax"));
    }

    #[test]
    fn unknown_lint_in_suppression_is_flagged() {
        let src = "// udlint: allow(made-up-lint) -- because\nfn f() {}\n";
        let r = check_source("crates/core/src/f.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert!(r.diagnostics[0].message.contains("unknown lint"));
    }

    #[test]
    fn suppression_of_an_inactive_lint_is_not_unused() {
        // unwrap-in-core does not run on the text crate, so a suppression
        // of it there matches nothing and is not reported as unused; the
        // same line in a panic-free crate silences a real finding.
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // udlint: allow(unwrap-in-core) -- checked by caller\n\
                   }\n";
        let r = check_source("crates/text/src/f.rs", src);
        assert!(r.diagnostics.is_empty() && r.suppressed.is_empty(), "{:?}", r.diagnostics);
        let r = check_source("crates/core/src/f.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn ignored_scope_produces_nothing() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = check_source("crates/detkit/src/f.rs", src);
        assert!(r.diagnostics.is_empty() && r.suppressed.is_empty());
    }

    #[test]
    fn json_report_shape() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = check_source("crates/core/src/f.rs", src);
        let j = r.render_json();
        assert!(j.contains("\"diagnostics\": ["));
        assert!(j.contains("\"counts\": {\"diagnostics\": 1, \"suppressed\": 0}"));
        assert!(!j.contains("/root/"), "no absolute paths in the report");
    }
}
