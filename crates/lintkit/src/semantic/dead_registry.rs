//! `dead-registry-entry` — registered metrics nobody ever records.
//!
//! The trace/metric namespace is closed (DESIGN.md §9): every counter,
//! gauge, histogram, and stage is a variant of a `registry_enum!`
//! invocation in `crates/tracekit/src/metrics.rs`, and the token-level
//! `string-metric-label` lint keeps ad-hoc names out. The closed set
//! can still rot in the other direction: a variant stays registered
//! after its last recording site is refactored away, and dashboards
//! keep a forever-zero series that *looks* like a broken engine.
//!
//! This pass parses the variants out of each `registry_enum!` macro
//! body (the AST keeps macro-invocation token ranges exactly for this)
//! and scans every other engine source — plus the bench/detkit tooling
//! sources, since the experiment harness is a legitimate recording
//! site — for a qualified `Enum::Variant` reference outside test code.
//! A variant with no such reference is reported at its declaration line.
//!
//! References inside `metrics.rs` itself do not count: the generated
//! `ALL`/`name`/`kind` tables mention every variant by construction,
//! which is precisely why they cannot witness liveness.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::semantic::{find_file, SemanticPass};
use crate::symbols::Workspace;

/// Where the closed registries live.
const METRICS_FILE: &str = "crates/tracekit/src/metrics.rs";

pub struct DeadRegistryEntry;

impl SemanticPass for DeadRegistryEntry {
    fn lint(&self) -> &'static str {
        "dead-registry-entry"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(mi) = find_file(ws, METRICS_FILE) else { return };
        let variants = registry_variants(ws, mi);
        if variants.is_empty() {
            return;
        }

        for v in &variants {
            let mut live = false;
            'files: for (fi, wsf) in ws.files.iter().enumerate() {
                if fi == mi {
                    continue;
                }
                if scan_for_ref(&wsf.file, &v.enum_name, &v.variant) {
                    live = true;
                    break 'files;
                }
            }
            if !live {
                live = ws.aux.iter().any(|f| scan_for_ref(f, &v.enum_name, &v.variant));
            }
            if !live {
                out.push(Diagnostic {
                    path: METRICS_FILE.into(),
                    line: v.line,
                    lint: self.lint().into(),
                    message: format!(
                        "registry variant `{}::{}` (\"{}\") is never recorded outside tests \
                         — remove it or wire up its recording site",
                        v.enum_name, v.variant, v.label
                    ),
                });
            }
        }
    }
}

/// One `Variant => "label"` declaration.
struct Variant {
    enum_name: String,
    variant: String,
    label: String,
    line: u32,
}

/// Extracts every variant of every `registry_enum!` invocation in
/// workspace file `mi`.
fn registry_variants(ws: &Workspace, mi: usize) -> Vec<Variant> {
    let wsf = &ws.files[mi];
    let file = &wsf.file;
    let mut out = Vec::new();
    crate::ast::walk(&wsf.ast.items, &mut |item| {
        if item.kind != crate::ast::ItemKind::MacroCall || item.name != "registry_enum" {
            return;
        }
        let Some((lo, hi)) = item.body else { return };
        // Body shape: attributes/docs, `pub enum Name {`, then
        // `Variant => "label",` rows (docs are comments, not sig tokens).
        let mut k = lo;
        while k <= hi && file.sig_text(k) != "enum" {
            k += 1;
        }
        let enum_name = file.sig_text(k + 1).to_string();
        k += 2; // past `enum Name`
        while k <= hi {
            if file.sig_kind(k) == Some(TokKind::Ident)
                && file.sig_text(k + 1) == "=>"
                && file.sig_kind(k + 2) == Some(TokKind::Str)
            {
                out.push(Variant {
                    enum_name: enum_name.clone(),
                    variant: file.sig_text(k).to_string(),
                    label: file.sig_text(k + 2).trim_matches('"').to_string(),
                    line: file.sig_line(k),
                });
                k += 3;
            } else {
                k += 1;
            }
        }
    });
    out
}

/// True when `file` contains `Enum :: Variant` in non-test code.
fn scan_for_ref(file: &crate::source::SourceFile, enum_name: &str, variant: &str) -> bool {
    (0..file.sig.len()).any(|k| {
        !file.sig_in_test(k)
            && file.sig_text(k) == enum_name
            && file.sig_matches(k + 1, &["::", variant])
    })
}
