//! `dead-registry-entry` — registered metrics nobody ever records.
//!
//! The trace/metric namespace is closed (DESIGN.md §9): every counter,
//! gauge, histogram, and stage is a variant of a `registry_enum!`
//! invocation in `crates/tracekit/src/metrics.rs`, and the
//! `string-metric-label` lint keeps ad-hoc names out. The closed set can
//! still rot in the other direction: a variant stays registered after
//! its last recording site is refactored away, and dashboards keep a
//! forever-zero series that *looks* like a broken engine.
//!
//! This is the one pass that sees every file at once. It reads the
//! variants out of each `registry_enum! { … }` body (found by token,
//! braces matched) and scans every other engine source — plus the
//! bench/detkit tooling sources, since the experiment harness is a
//! legitimate recording site — for a qualified `Enum::Variant` reference
//! outside test code. A variant with no such reference is reported at
//! its declaration line.
//!
//! References inside `metrics.rs` itself do not count: the generated
//! `ALL`/`name`/`kind` tables mention every variant by construction,
//! which is precisely why they cannot witness liveness.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// The lint this pass reports under.
pub const LINT: &str = "dead-registry-entry";

/// Where the closed registries live.
const METRICS_FILE: &str = "crates/tracekit/src/metrics.rs";

/// Tooling crates whose `src/` is scanned for recording sites without
/// ever receiving diagnostics. lintkit itself is excluded: its pass
/// sources spell lint patterns in code.
const USAGE_CRATES: &[&str] = &["detkit", "bench"];

/// True for a tooling source that may witness a recording site.
pub fn is_usage_source(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    matches!(parts.as_slice(), ["crates", krate, "src", _, ..] if USAGE_CRATES.contains(krate))
}

/// Reports every registry variant of `METRICS_FILE` that none of
/// `files` (engine and usage sources alike) references outside tests.
pub fn run(files: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    let Some(metrics) = files.iter().find(|f| f.rel_path == METRICS_FILE) else { return };
    for v in registry_variants(metrics) {
        let live = files
            .iter()
            .any(|f| f.rel_path != METRICS_FILE && scan_for_ref(f, &v.enum_name, &v.variant));
        if !live {
            out.push(Diagnostic {
                path: METRICS_FILE.into(),
                line: v.line,
                lint: LINT.into(),
                message: format!(
                    "registry variant `{}::{}` (\"{}\") is never recorded outside tests \
                     — remove it or wire up its recording site",
                    v.enum_name, v.variant, v.label
                ),
            });
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

/// Extracts every variant of every `registry_enum! { … }` in `file`.
fn registry_variants(file: &SourceFile) -> Vec<Variant> {
    let mut out = Vec::new();
    for m in 0..file.sig.len() {
        if !file.sig_matches(m, &["registry_enum", "!", "{"]) {
            continue;
        }
        let hi = file.matching_brace(m + 2);
        // Body shape: attributes/docs, `pub enum Name {`, then
        // `Variant => "label",` rows (docs are comments, not sig tokens).
        let mut k = m + 3;
        while k < hi && file.sig_text(k) != "enum" {
            k += 1;
        }
        let enum_name = file.sig_text(k + 1).to_string();
        k += 2; // past `enum Name`
        while k < hi {
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
    }
    out
}

/// True when `file` contains `Enum :: Variant` in non-test code.
fn scan_for_ref(file: &SourceFile, enum_name: &str, variant: &str) -> bool {
    (0..file.sig.len()).any(|k| {
        !file.sig_in_test(k)
            && file.sig_text(k) == enum_name
            && file.sig_matches(k + 1, &["::", variant])
    })
}
