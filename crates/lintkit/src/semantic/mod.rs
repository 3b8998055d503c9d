//! Workspace-level semantic passes over the symbol graph.
//!
//! Token passes (`crate::passes`) see one file at a time; these passes
//! see the whole workspace at once — the module tree, the function
//! table, and the call graph — so they can enforce contracts that no
//! single file can witness: a wall-clock read reached through three
//! crates of helpers, a WAL write path with no fault site anywhere
//! above it, a metric registered but never incremented.
//!
//! Like the token passes they are heuristic (name-based call
//! resolution, no types) and accept line-level suppression; unlike
//! them, a single finding can implicate several files, so each
//! diagnostic names the evidence chain in its message.

pub mod dead_registry;
pub mod io_sites;
pub mod wallclock_reach;

use crate::diag::Diagnostic;
use crate::symbols::Workspace;

/// A workspace-level pass.
pub trait SemanticPass {
    /// The lint name this pass reports under (must appear in
    /// [`crate::LINTS`]).
    fn lint(&self) -> &'static str;

    /// Emits diagnostics for the whole workspace into `out`.
    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// The closed semantic-pass registry (all three run on every invocation;
/// none is pedantic-gated — each enforces a hard contract).
pub fn registry() -> Vec<Box<dyn SemanticPass>> {
    vec![
        Box::new(wallclock_reach::TransitiveWallclock),
        Box::new(io_sites::UncoveredIoSite),
        Box::new(dead_registry::DeadRegistryEntry),
    ]
}

/// Index of the workspace file at `rel_path`, if present.
pub(crate) fn find_file(ws: &Workspace, rel_path: &str) -> Option<usize> {
    ws.files.iter().position(|f| f.file.rel_path == rel_path)
}

/// Renders a caller chain (`reported -> … -> seed`) as `a -> b -> c`
/// of qualified names, for evidence messages. `parent` is the BFS
/// parent map from [`Workspace::closure`].
pub(crate) fn render_chain(
    ws: &Workspace,
    mut at: usize,
    parent: &std::collections::BTreeMap<usize, usize>,
) -> String {
    let mut names = vec![ws.fns[at].qual()];
    while let Some(&next) = parent.get(&at) {
        names.push(ws.fns[next].qual());
        at = next;
        if names.len() > 8 {
            names.push("…".into());
            break;
        }
    }
    names.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_registry_is_closed_and_named() {
        let passes = registry();
        assert_eq!(passes.len(), 3);
        for pass in passes {
            assert!(
                crate::LINTS.iter().any(|(name, _)| *name == pass.lint()),
                "semantic pass `{}` missing from LINTS registry",
                pass.lint()
            );
        }
    }
}
