//! lintkit — a tokenizer-based workspace linter (`udlint`) that enforces
//! the determinism contract statically.
//!
//! The CI gates this crate replaces were awk one-liners: line-oriented,
//! blind to raw strings and block comments, and bailing out of a file at
//! the first `#[cfg(test)]`. lintkit lexes real Rust (raw strings, nested
//! block comments, char-vs-lifetime, byte/C strings, attributes) and runs
//! a closed registry of token-level passes over engine code, so a
//! `.unwrap()` inside `r#"…"#` never fires and a panic *after* a test
//! module never hides.
//!
//! The registry is *closed*: every lint name lives in [`LINTS`], every
//! suppression must name one, and `udlint --list` prints them. It holds
//! only rules nothing else enforces: the closed metric and component
//! namespaces are types the compiler checks, path-only dependencies are
//! what `Cargo.lock` records, and registry liveness is a test that runs
//! the engine. See DESIGN.md §10 for the registry, the suppression
//! grammar, and the recipe for adding a lint.
//!
//! ```text
//! $ udlint --deny all
//! crates/core/src/engine.rs:212: [wallclock-in-hot-path] Instant::now() outside tracekit::wall; …
//! udlint: 1 diagnostic(s), 1 suppressed
//! ```

pub mod diag;
pub mod explain;
pub mod lexer;
pub mod passes;
pub mod runner;
pub mod source;

/// The closed lint registry: `(name, one-line description)`.
///
/// Suppression comments (`// udlint: allow(<name>) -- <reason>`) must
/// name an entry from this table other than [`UNSUPPRESSIBLE`]; anything
/// else is `suppression-syntax`.
pub const LINTS: &[(&str, &str)] = &[
    (
        "unwrap-in-core",
        "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test engine library code \
         (panic-free crates: core, relstore, hetgraph, retrieval, storekit)",
    ),
    (
        "unordered-iteration",
        "HashMap/HashSet iteration feeding floats, traces, or returned collections without an \
         interposed sort or BTreeMap",
    ),
    (
        "wallclock-in-hot-path",
        "Instant::now()/SystemTime::now() outside tracekit's wall-gated module \
         (crates/tracekit/src/wall.rs); cannot be suppressed",
    ),
    (
        "raw-thread-spawn",
        "std::thread::spawn/Builder outside parkit's deterministic fork-join pool",
    ),
    ("nondeterministic-env", "environment read outside the blessed UNISEM_* configuration surface"),
    (
        "suppression-syntax",
        "malformed, unknown-lint, or unused `udlint: allow` comment (reason is mandatory)",
    ),
    (
        "uncovered-io-site",
        "raw storekit I/O (write_all/sync_all/sync_data/set_len) in a function with no faultkit \
         `check(Site::…)` of its own — the crash matrix cannot reach it",
    ),
];

/// Lints no comment can silence. A clock read anywhere but
/// `tracekit/src/wall.rs` is always a diagnostic, so no function outside
/// that file reads the clock and no caller can reach one that does: the
/// cross-file half of the wall-clock contract holds by construction.
pub const UNSUPPRESSIBLE: &[&str] = &["wallclock-in-hot-path"];

#[cfg(test)]
mod tests {
    #[test]
    fn lint_names_are_unique_and_kebab() {
        for (i, (name, desc)) in super::LINTS.iter().enumerate() {
            assert!(!desc.is_empty());
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "lint `{name}` is not kebab-case"
            );
            assert!(
                super::LINTS[..i].iter().all(|(other, _)| other != name),
                "duplicate lint `{name}`"
            );
        }
        for name in super::UNSUPPRESSIBLE {
            assert!(super::LINTS.iter().any(|(l, _)| l == name), "`{name}` is not a lint");
        }
    }
}
