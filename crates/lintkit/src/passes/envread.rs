//! `nondeterministic-env` — environment reads outside the blessed
//! `UNISEM_*` config surface.
//!
//! The engine's behavior must be a pure function of its inputs plus the
//! documented `UNISEM_*` configuration variables (`UNISEM_THREADS`,
//! `UNISEM_FAULTS`, `UNISEM_TRACE`, …). Any other
//! ambient read — a non-`UNISEM_` variable, a *dynamically named*
//! variable, `env::vars()`, `env::args()`, `env::temp_dir()` — is hidden
//! configuration that makes replay and fault attribution impossible.
//!
//! Flags, outside test spans, any `std::env::` read whose target is not
//! a string literal starting with `UNISEM_`.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::passes::Pass;
use crate::source::SourceFile;

/// The env-read pass.
pub struct NondeterministicEnv;

/// `env::` functions that read a single named variable.
const NAMED_READS: &[&str] = &["var", "var_os"];

/// `env::` functions that are ambient reads no matter the arguments.
const AMBIENT_READS: &[&str] =
    &["vars", "vars_os", "args", "args_os", "temp_dir", "current_dir", "home_dir", "current_exe"];

impl Pass for NondeterministicEnv {
    fn lint(&self) -> &'static str {
        "nondeterministic-env"
    }

    fn applies(&self, _krate: &str, _rel_path: &str) -> bool {
        true
    }

    fn run(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for k in 0..file.sig.len() {
            if file.sig_in_test(k) || file.sig_text(k) != "env" || file.sig_text(k + 1) != "::" {
                continue;
            }
            let f = file.sig_text(k + 2);
            let flagged = if AMBIENT_READS.contains(&f) {
                Some(format!("env::{f}() is ambient, undeclared configuration"))
            } else if NAMED_READS.contains(&f) && file.sig_text(k + 3) == "(" {
                let arg_is_blessed = file.sig_kind(k + 4) == Some(TokKind::Str)
                    && str_content(file.sig_text(k + 4)).starts_with("UNISEM_");
                if arg_is_blessed {
                    None
                } else {
                    Some(format!(
                        "env::{f} outside the blessed UNISEM_* config surface (target must be \
                         a UNISEM_-prefixed string literal)"
                    ))
                }
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

/// Strips prefix/hashes/quotes off a string-literal token's text.
fn str_content(text: &str) -> &str {
    text.trim_start_matches(['r', 'b', 'c'])
        .trim_start_matches('#')
        .trim_start_matches('"')
        .trim_end_matches('#')
        .trim_end_matches('"')
}
