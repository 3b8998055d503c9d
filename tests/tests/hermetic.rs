//! Hermetic build policy (DESIGN.md §7): every package cargo resolves for
//! this repository is a path package.
//!
//! Cargo writes a `source = "registry+…"` or `source = "git+…"` line for
//! every package it fetched from a registry or a repository, and none for
//! a path package. So the lock files are the whole dependency graph,
//! already resolved: `workspace = true` inheritance, dotted dependency
//! tables, dev- and build-dependencies and transitive dependencies
//! included. `cargo test` brings `Cargo.lock` up to date with the
//! manifests before it builds this test.

use std::path::Path;

/// `(package, source)` for every package of `lock` that names a source.
fn fetched_packages(lock: &str) -> Vec<(String, String)> {
    let mut fetched = Vec::new();
    let mut name = "";
    for line in lock.lines() {
        if let Some(n) = line.strip_prefix("name = ") {
            name = n.trim_matches('"');
        } else if let Some(source) = line.strip_prefix("source = ") {
            fetched.push((name.to_string(), source.trim_matches('"').to_string()));
        }
    }
    fetched
}

#[test]
fn every_locked_package_is_a_path_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = std::fs::read_to_string(root.join(lock)).expect(lock);
        assert!(text.contains("name = \"unisem-core\""), "{lock} does not lock this workspace");
        let fetched = fetched_packages(&text);
        assert!(
            fetched.is_empty(),
            "{lock} resolves packages from outside the repository (declare `path = …` or \
             inherit `workspace = true`): {fetched:?}"
        );
    }
}

#[test]
fn registry_and_git_packages_are_reported() {
    let lock = "\
[[package]]
name = \"detkit\"
version = \"0.1.0\"

[[package]]
name = \"serde\"
version = \"1.0.0\"
source = \"registry+https://github.com/rust-lang/crates.io-index\"
checksum = \"0000\"

[[package]]
name = \"left-pad\"
version = \"0.1.0\"
source = \"git+https://example.org/left-pad#0123abc\"
";
    let names: Vec<String> = fetched_packages(lock).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["serde", "left-pad"]);
}
