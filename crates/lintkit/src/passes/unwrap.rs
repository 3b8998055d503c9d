//! `unwrap-in-core` — the panic-freedom audit (DESIGN.md §8).
//!
//! Engine-core, relational-executor, graph, retrieval, and storage library
//! code must stay panic-free on untrusted input. Flags, outside test spans:
//!
//! - `.unwrap()` / `.expect(…)` on options/results;
//! - `panic!`, `unreachable!`, `todo!`, `unimplemented!` invocations.
//!
//! `unwrap_or` / `unwrap_or_else` / `unwrap_or_default` / `expect_err`
//! are distinct identifiers at the token level and are never flagged —
//! as are `unwrap` inside strings, comments, or `#[cfg(test)]` items.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::passes::{in_panic_free_set, Pass};
use crate::source::SourceFile;

/// The panic audit.
pub struct UnwrapInCore;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl Pass for UnwrapInCore {
    fn lint(&self) -> &'static str {
        "unwrap-in-core"
    }

    fn applies(&self, krate: &str, _rel_path: &str) -> bool {
        in_panic_free_set(krate)
    }

    fn run(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for k in 0..file.sig.len() {
            if file.sig_in_test(k) || file.sig_kind(k) != Some(TokKind::Ident) {
                continue;
            }
            let text = file.sig_text(k);
            let flagged = if (text == "unwrap" || text == "expect")
                && k > 0
                && file.sig_text(k - 1) == "."
                && file.sig_text(k + 1) == "("
            {
                Some(format!(".{text}( can panic; return a typed error instead"))
            } else if PANIC_MACROS.contains(&text) && file.sig_text(k + 1) == "!" {
                Some(format!("{text}! in library code; return a typed error instead"))
            } else {
                None
            };
            if let Some(message) = flagged {
                out.push(Diagnostic {
                    path: file.rel_path.clone(),
                    line: file.sig_line(k),
                    lint: self.lint().into(),
                    message,
                });
            }
        }
    }
}
