//! The determinism contract's lints (DESIGN.md §10) as configured: what
//! `clippy.toml` and the crates' lint levels make clippy flag.
//!
//! `./ci.sh` runs `cargo clippy --workspace --offline -- -D warnings`, so
//! a call or type listed here fails the build wherever a crate inherits the
//! workspace lint table. These tests pin that configuration: dropping a
//! path from `clippy.toml`, a crate's `[lints] workspace = true`, or a
//! panic-free crate's `#![deny(…)]` turns the matching violation from a CI
//! failure into silence, and fails here instead.

use std::path::{Path, PathBuf};

/// Crates exempt from the determinism contract: the property-testing kit,
/// which reads clocks, threads and the environment.
const TOOLING_CRATES: &[&str] = &["detkit"];

/// Crates whose non-test code may not unwrap or panic (DESIGN.md §8).
const PANIC_FREE_CRATES: &[&str] = &["core", "hetgraph", "relstore", "retrieval", "storekit"];

/// The six clippy lints that stand for "no unwrap or panic".
const PANIC_LINTS: &[&str] =
    &["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).expect(rel)
}

/// Every `path = "…"` of the `key = [ … ]` array in `clippy.toml` text.
fn disallowed_paths(toml: &str, key: &str) -> Vec<String> {
    let start = toml.find(&format!("\n{key} = [")).unwrap_or_else(|| panic!("{key} missing"));
    let body = &toml[start..];
    let body = &body[..body.find("\n]").unwrap_or_else(|| panic!("{key} not closed"))];
    body.match_indices("path = \"")
        .map(|(i, m)| {
            let rest = &body[i + m.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// Names of the engine crates under `crates/`, sorted.
fn engine_crates() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("crate dir").file_name().to_string_lossy().into_owned())
        .filter(|n| !TOOLING_CRATES.contains(&n.as_str()))
        .collect();
    names.sort();
    names
}

/// The disallowed lists bind only crates that deny the two lints: the
/// workspace table does, and every engine crate must inherit it.
fn assert_engine_crates_inherit_workspace_lints() {
    let workspace = read("Cargo.toml");
    for lint in ["disallowed_methods", "disallowed_types"] {
        assert!(
            workspace.contains(&format!("\n{lint} = \"deny\"")),
            "[workspace.lints.clippy] does not deny {lint}"
        );
    }
    for krate in engine_crates() {
        let manifest = read(&format!("crates/{krate}/Cargo.toml"));
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "crates/{krate} does not inherit the workspace lints"
        );
    }
}

/// The clippy lints named by the `#![deny(…)]` attributes of `src`.
fn crate_level_denies(src: &str) -> Vec<String> {
    let mut lints = Vec::new();
    for line in src.lines().filter(|l| l.starts_with("#![deny(")) {
        for (i, m) in line.match_indices("clippy::") {
            let name = &line[i + m.len()..];
            let end = name.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(0);
            lints.push(name[..end].to_string());
        }
    }
    lints
}

#[test]
fn ambient_env_reads_are_flagged() {
    assert_engine_crates_inherit_workspace_lints();
    let methods = disallowed_paths(&read("clippy.toml"), "disallowed-methods");
    for read in [
        "var",
        "var_os",
        "vars",
        "vars_os",
        "args",
        "args_os",
        "temp_dir",
        "current_dir",
        "home_dir",
        "current_exe",
    ] {
        let path = format!("std::env::{read}");
        assert!(methods.contains(&path), "clippy.toml does not disallow {path}");
    }
}

#[test]
fn systemtime_now_is_flagged() {
    assert_engine_crates_inherit_workspace_lints();
    let methods = disallowed_paths(&read("clippy.toml"), "disallowed-methods");
    for clock in ["std::time::SystemTime::now", "std::time::Instant::now"] {
        assert!(methods.iter().any(|m| m == clock), "clippy.toml does not disallow {clock}");
    }
}

#[test]
fn thread_spawn_is_flagged_outside_parkit() {
    assert_engine_crates_inherit_workspace_lints();
    assert!(engine_crates().iter().any(|c| c == "parkit"), "parkit is not an engine crate");
    let methods = disallowed_paths(&read("clippy.toml"), "disallowed-methods");
    for fork in [
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
        "std::thread::Builder::spawn_scoped",
    ] {
        assert!(methods.iter().any(|m| m == fork), "clippy.toml does not disallow {fork}");
    }
}

#[test]
fn for_over_hashmap_is_flagged_btreemap_is_not() {
    assert_engine_crates_inherit_workspace_lints();
    let types = disallowed_paths(&read("clippy.toml"), "disallowed-types");
    assert_eq!(types, ["std::collections::HashMap", "std::collections::HashSet"]);
    assert!(types.iter().all(|t| !t.contains("BTree")));
}

#[test]
fn expect_and_panic_macros_are_flagged() {
    for krate in PANIC_FREE_CRATES {
        let mut denied = crate_level_denies(&read(&format!("crates/{krate}/src/lib.rs")));
        denied.sort();
        let mut want: Vec<&str> = PANIC_LINTS.to_vec();
        want.sort();
        assert_eq!(denied, want, "crates/{krate}/src/lib.rs");
    }
}

#[test]
fn unwrap_outside_panic_free_crates_is_not_flagged() {
    let workspace = read("Cargo.toml");
    for lint in PANIC_LINTS {
        assert!(!workspace.contains(&format!("\n{lint} = ")), "the workspace table sets {lint}");
    }
    for krate in engine_crates().iter().filter(|c| !PANIC_FREE_CRATES.contains(&c.as_str())) {
        let denied = crate_level_denies(&read(&format!("crates/{krate}/src/lib.rs")));
        assert!(
            denied.iter().all(|l| !PANIC_LINTS.contains(&l.as_str())),
            "crates/{krate} denies {denied:?}, but only {PANIC_FREE_CRATES:?} are panic-free"
        );
    }
}

#[test]
fn config_readers_see_what_they_should() {
    let toml = "a = 1\ndisallowed-methods = [\n    { path = \"std::env::var\", reason = \"r\" },\n\
                { path = \"x::y\" },\n]\ndisallowed-types = [\n    { path = \"T\" },\n]\n";
    assert_eq!(disallowed_paths(toml, "disallowed-methods"), ["std::env::var", "x::y"]);
    assert_eq!(disallowed_paths(toml, "disallowed-types"), ["T"]);
    let src = "//! doc\n#![deny(clippy::unwrap_used, clippy::panic)]\n// #![deny(clippy::todo)]\n";
    assert_eq!(crate_level_denies(src), ["unwrap_used", "panic"]);
}
