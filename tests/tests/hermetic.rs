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

/// Every sanctioned exception to the determinism contract's lints
/// (clippy.toml, DESIGN.md §10): `(file, lint, number of #[expect]s)`.
/// Clippy rejects an unused `#[expect]`; this list rejects a new one, so a
/// second clock read, thread fork, env read, storage write, hash
/// collection or panic is a reviewed edit here.
const SANCTIONED: &[(&str, &str, usize)] = &[
    ("crates/bench/src/bin/experiments.rs", "disallowed_methods", 1),
    ("crates/core/src/executor.rs", "large_enum_variant", 1),
    ("crates/faultkit/src/lib.rs", "disallowed_methods", 1),
    ("crates/hetgraph/src/graph.rs", "disallowed_types", 2),
    ("crates/parkit/src/pool.rs", "disallowed_methods", 2),
    ("crates/relstore/src/exec.rs", "disallowed_types", 3),
    ("crates/relstore/src/schema.rs", "panic", 1),
    ("crates/slm/src/ner.rs", "disallowed_types", 2),
    ("crates/storekit/src/snapshot.rs", "disallowed_methods", 3),
    ("crates/storekit/src/wal.rs", "disallowed_methods", 8),
    ("crates/tracekit/src/wall.rs", "disallowed_methods", 1),
];

/// The clippy lints each `#[expect(…)]` / `#![expect(…)]` attribute of
/// `src` names, in order; comment lines are skipped.
fn expected_clippy_lints(src: &str) -> Vec<String> {
    let mut lints = Vec::new();
    for (at, _) in src.match_indices("expect(") {
        let line = &src[src[..at].rfind('\n').map_or(0, |i| i + 1)..at];
        if !(line.ends_with("#[") || line.ends_with("#![")) || line.trim_start().starts_with("//") {
            continue;
        }
        let attr = &src[at..];
        let attr = &attr[..attr.find(")]").unwrap_or(attr.len())];
        let names = &attr[..attr.find("reason").unwrap_or(attr.len())];
        for (i, _) in names.match_indices("clippy::") {
            let name = &names[i + "clippy::".len()..];
            let end =
                name.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(name.len());
            lints.push(name[..end].to_string());
        }
    }
    lints
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn sanctioned_lint_exceptions_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate dir").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut found: std::collections::BTreeMap<(String, String), usize> = Default::default();
    for path in files {
        let rel =
            path.strip_prefix(&root).expect("under root").to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(&path).expect("read source");
        for lint in expected_clippy_lints(&src) {
            *found.entry((rel.clone(), lint)).or_default() += 1;
        }
    }
    let found: Vec<(&str, &str, usize)> =
        found.iter().map(|((f, l), n)| (f.as_str(), l.as_str(), *n)).collect();
    assert_eq!(
        found, SANCTIONED,
        "the #[expect(clippy::…)] sites changed: review them, then edit SANCTIONED"
    );
}

#[test]
fn expect_attributes_are_parsed() {
    let src = "#[expect(clippy::panic, reason = \"x\")]\nfn a() {}\n\
               #![expect(\n    clippy::disallowed_types,\n    reason = \"clippy::todo is prose\"\n)]\n\
               // #[expect(clippy::unwrap_used)] in a comment is not an attribute\n";
    assert_eq!(expected_clippy_lints(src), ["panic", "disallowed_types"]);
}
