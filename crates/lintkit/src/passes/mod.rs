//! The token pass framework and the closed lint registry.
//!
//! A pass walks one file's significant-token stream (comments stripped,
//! `in_test` spans marked) and emits [`Diagnostic`]s. Passes are pure
//! pattern matchers over tokens — no type information, no item tree — so
//! each lint documents its heuristic and accepts line-level suppression
//! for the cases the heuristic cannot see through (reason mandatory,
//! counted, budgeted by `lint-budget.txt`).
//!
//! # Adding a lint (DESIGN.md §10)
//!
//! 1. Add the name + description to [`crate::LINTS`].
//! 2. Write a `Pass` impl in a new `passes/<name>.rs` module: pick the
//!    crates it applies to in `applies`, match tokens in `run`.
//! 3. Register it in [`registry`].
//! 4. Add adversarial snippets to `tests/adversarial.rs` proving the
//!    false-positive cases (strings, comments, test spans) stay silent.

pub mod envread;
pub mod io_sites;
pub mod spawn;
pub mod unordered;
pub mod unwrap;
pub mod wallclock;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// How a file participates in linting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileScope {
    /// Not linted: tooling crates (detkit, bench, lintkit), integration
    /// tests, examples — code that never serves a query.
    Ignored,
    /// Library code of an engine crate; `krate` is the directory name
    /// under `crates/`.
    Engine {
        /// Crate directory name (e.g. `"core"`, `"relstore"`).
        krate: String,
    },
}

/// Crates whose `src/` is *tooling*, not engine code. The determinism
/// contract binds what runs inside a query; the property-test, experiment
/// and lint harnesses legitimately read clocks, env vars, and argv.
const TOOLING_CRATES: &[&str] = &["detkit", "bench", "lintkit"];

/// Crates whose non-test library code must stay panic-free on untrusted
/// input (the `unwrap-in-core` audit set; DESIGN.md §8).
const PANIC_FREE_CRATES: &[&str] = &["core", "relstore", "hetgraph", "retrieval", "storekit"];

/// Classifies a workspace-relative path (forward slashes).
pub fn file_scope(rel_path: &str) -> FileScope {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.first() != Some(&"crates") || parts.len() < 3 {
        // Workspace-level `tests/`, `examples/`, stray files.
        return FileScope::Ignored;
    }
    let krate = parts[1];
    if TOOLING_CRATES.contains(&krate) {
        return FileScope::Ignored;
    }
    if parts[2] != "src" {
        // crates/<k>/tests, crates/<k>/examples.
        return FileScope::Ignored;
    }
    FileScope::Engine { krate: krate.to_string() }
}

/// A lint pass over one file.
pub trait Pass {
    /// The lint name this pass reports under (must appear in
    /// [`crate::LINTS`]).
    fn lint(&self) -> &'static str;

    /// Whether the pass runs on engine crate `krate` at `rel_path`.
    fn applies(&self, krate: &str, rel_path: &str) -> bool;

    /// Emits diagnostics for `file` into `out`.
    fn run(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// The closed pass registry: one pass per lint of [`crate::LINTS`] except
/// `suppression-syntax`, which the runner reports while resolving.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(unwrap::UnwrapInCore),
        Box::new(unordered::UnorderedIteration),
        Box::new(wallclock::WallclockInHotPath),
        Box::new(spawn::RawThreadSpawn),
        Box::new(envread::NondeterministicEnv),
        Box::new(io_sites::UncoveredIoSite),
    ]
}

pub(crate) fn in_panic_free_set(krate: &str) -> bool {
    PANIC_FREE_CRATES.contains(&krate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        assert_eq!(
            file_scope("crates/core/src/engine.rs"),
            FileScope::Engine { krate: "core".into() }
        );
        assert_eq!(file_scope("crates/detkit/src/rng.rs"), FileScope::Ignored);
        assert_eq!(file_scope("crates/bench/src/experiments.rs"), FileScope::Ignored);
        assert_eq!(file_scope("crates/lintkit/src/lexer.rs"), FileScope::Ignored);
        assert_eq!(file_scope("crates/parkit/tests/stress.rs"), FileScope::Ignored);
        assert_eq!(file_scope("tests/tests/determinism.rs"), FileScope::Ignored);
        assert_eq!(file_scope("examples/observability.rs"), FileScope::Ignored);
        assert_eq!(
            file_scope("crates/tracekit/src/wall.rs"),
            FileScope::Engine { krate: "tracekit".into() }
        );
    }

    #[test]
    fn registry_is_closed_and_named() {
        let passes: Vec<&str> = registry().iter().map(|p| p.lint()).collect();
        for name in &passes {
            assert!(
                crate::LINTS.iter().any(|(l, _)| l == name),
                "pass `{name}` missing from LINTS registry"
            );
        }
        for (name, _) in crate::LINTS {
            assert!(
                passes.contains(name) || *name == "suppression-syntax",
                "lint `{name}` has no pass"
            );
        }
    }
}
