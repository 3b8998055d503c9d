//! `uncovered-io-site` — raw storage I/O in a function with no faultkit
//! site of its own.
//!
//! The durability story (DESIGN.md §12–13) rests on the crash matrix:
//! every snapshot frame write, WAL append, and flush can be made to fail
//! or tear through the closed 11-site faultkit registry, and the recovery
//! suite proves the engine survives. That only holds if the injector sits next
//! to the syscall — an I/O call the injector cannot fail is a crash
//! window the matrix never exercises.
//!
//! The rule is per function, on storekit (the only engine crate that
//! touches files at query/ingest time): a non-test `fn` whose body calls
//! a raw I/O primitive (`write_all`, `sync_all`, `sync_data`, `set_len`)
//! must contain `check(Site::` in that same body. A check in a *caller*
//! does not count: it fires before the call, so it can model a crash
//! ahead of the helper but never one between the helper's own writes,
//! and a helper is covered by one caller's check only until a second
//! caller appears. A body runs from `fn name` to the brace matching its
//! first `{`; a nested `fn` is its own function and its tokens belong to
//! it alone, a closure belongs to the function it is written in.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::passes::Pass;
use crate::source::SourceFile;

/// Raw I/O primitives that must sit beside a fault site.
const RAW_IO: &[&str] = &["write_all", "sync_all", "sync_data", "set_len"];

/// The uncovered-I/O pass.
pub struct UncoveredIoSite;

impl Pass for UncoveredIoSite {
    fn lint(&self) -> &'static str {
        "uncovered-io-site"
    }

    fn applies(&self, krate: &str, _rel_path: &str) -> bool {
        krate == "storekit"
    }

    fn run(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let bodies = fn_bodies(file);
        // The innermost function owning each token: bodies come in source
        // order, so a nested body overwrites the slice of its parent.
        let mut owner: Vec<Option<usize>> = vec![None; file.sig.len()];
        for (b, &(_, open, close)) in bodies.iter().enumerate() {
            owner[open..=close].fill(Some(b));
        }
        for (b, &(name, open, close)) in bodies.iter().enumerate() {
            let own = || (open..=close).filter(|&k| owner[k] == Some(b));
            if file.sig_in_test(name)
                || own().any(|k| file.sig_matches(k, &["check", "(", "Site", "::"]))
            {
                continue;
            }
            for &method in RAW_IO {
                if let Some(k) = own().find(|&k| file.sig_matches(k, &[".", method, "("])) {
                    out.push(Diagnostic {
                        path: file.rel_path.clone(),
                        line: file.sig_line(k + 1),
                        lint: self.lint().into(),
                        message: format!(
                            "raw `{method}` in `{}` with no faultkit `check(Site::…)` in the \
                             same function (closed 11-site registry; the crash matrix cannot \
                             reach this I/O)",
                            file.sig_text(name)
                        ),
                    });
                }
            }
        }
    }
}

/// Every `fn name … { … }` of `file` as sig-indices `(name, open, close)`,
/// in source order. The body opens at the first `{` outside parentheses
/// and brackets; a `;` there first (a trait's `fn f();`, an array type's
/// `;` being inside brackets) means there is no body. Total on any token
/// stream: a signature that never opens yields nothing, a body that
/// never closes runs to the last token.
fn fn_bodies(file: &SourceFile) -> Vec<(usize, usize, usize)> {
    let mut bodies = Vec::new();
    for k in 0..file.sig.len() {
        if file.sig_text(k) != "fn" || file.sig_kind(k + 1) != Some(TokKind::Ident) {
            continue;
        }
        let mut depth = 0usize;
        let mut open = None;
        for j in k + 2..file.sig.len() {
            match file.sig_text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => break,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                _ => {}
            }
        }
        if let Some(open) = open {
            bodies.push((k + 1, open, file.matching_brace(open)));
        }
    }
    bodies
}
