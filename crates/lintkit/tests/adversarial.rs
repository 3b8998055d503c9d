//! Adversarial snippets for udlint: every construct that broke the old
//! awk gates (or would break a naive regex linter) — raw strings holding
//! code-like text, comments, `#[cfg(test)]` placement, multiline calls —
//! proving zero false positives and zero false negatives on each.

use lintkit::runner::{check_source, check_tree, RunReport};

const CORE: &str = "crates/core/src/x.rs";
const STORE: &str = "crates/storekit/src/x.rs";

fn lints(rel_path: &str, src: &str) -> Vec<String> {
    let r = check_source(rel_path, src);
    r.diagnostics.iter().map(|d| d.lint.clone()).collect()
}

/// Lints a miniature workspace through the entry point `udlint` uses.
fn tree(files: &[(&str, &str)]) -> RunReport {
    let inputs: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    check_tree(&inputs)
}

fn lints_of(r: &RunReport) -> Vec<(&str, &str, u32)> {
    r.diagnostics.iter().map(|d| (d.lint.as_str(), d.path.as_str(), d.line)).collect()
}

/// `uncovered-io-site` messages for `src` as a storekit source.
fn io_findings(src: &str) -> Vec<String> {
    let r = check_source(STORE, src);
    r.diagnostics
        .iter()
        .filter(|d| d.lint == "uncovered-io-site")
        .map(|d| d.message.clone())
        .collect()
}

// ---------------------------------------------------------------- unwrap

#[test]
fn unwrap_in_raw_string_is_not_flagged() {
    let src = r##"
fn f() -> String {
    let doc = r#"call x.unwrap() and then panic!("boom")"#;
    doc.to_string()
}
"##;
    assert!(lints(CORE, src).is_empty());
}

#[test]
fn unwrap_in_cooked_string_with_escapes_is_not_flagged() {
    let src = "fn f() -> String { \"quote \\\" then .unwrap() inside\".to_string() }\n";
    assert!(lints(CORE, src).is_empty());
}

#[test]
fn unwrap_in_line_and_doc_comments_is_not_flagged() {
    let src = "\
// x.unwrap() here is prose
/// so is this .expect(\"msg\") in docs
//! and panic!(\"inner doc\")
fn f() {}
";
    assert!(lints(CORE, src).is_empty());
}

#[test]
fn unwrap_in_nested_block_comment_is_not_flagged() {
    let src = "/* outer /* x.unwrap() */ still comment panic!(\"no\") */\nfn f() {}\n";
    assert!(lints(CORE, src).is_empty());
}

#[test]
fn real_unwrap_is_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(lints(CORE, src), vec!["unwrap-in-core"]);
}

#[test]
fn expect_and_panic_macros_are_flagged() {
    let src = "\
fn f(x: Option<u32>) -> u32 { x.expect(\"msg\") }
fn g() { panic!(\"boom\") }
fn h() -> u32 { unreachable!() }
fn i() { todo!() }
fn j() { unimplemented!() }
";
    assert_eq!(lints(CORE, src).len(), 5);
}

#[test]
fn unwrap_or_and_friends_are_not_flagged() {
    let src = "\
fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }
fn g(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 1) }
fn h(x: Option<u32>) -> u32 { x.unwrap_or_default() }
";
    assert!(lints(CORE, src).is_empty());
}

#[test]
fn unwrap_outside_panic_free_crates_is_not_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lints("crates/text/src/x.rs", src).is_empty());
    assert!(lints("crates/parkit/src/x.rs", src).is_empty());
}

// --------------------------------------------------------- cfg(test) spans

#[test]
fn cfg_test_module_is_exempt_but_code_after_it_is_not() {
    // The old awk gate stopped at the first #[cfg(test)] line, hiding
    // everything after the test module. Token-level span marking does not.
    let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}

fn live(x: Option<u32>) -> u32 { x.unwrap() }
";
    assert_eq!(lints(CORE, src), vec!["unwrap-in-core"]);
}

#[test]
fn cfg_test_on_function_exempts_only_that_function() {
    let src = "\
#[cfg(test)]
fn helper(x: Option<u32>) -> u32 { x.unwrap() }
fn live(x: Option<u32>) -> u32 { x.unwrap() }
";
    assert_eq!(lints(CORE, src).len(), 1);
}

#[test]
fn cfg_not_test_is_still_audited() {
    let src = "#[cfg(not(test))]\nfn live(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(lints(CORE, src), vec!["unwrap-in-core"]);
}

#[test]
fn test_attr_with_stacked_attributes_is_exempt() {
    let src = "#[test]\n#[should_panic]\nfn t() { Option::<u32>::None.unwrap(); }\n";
    assert!(lints(CORE, src).is_empty());
}

// ----------------------------------------------------- unordered iteration

#[test]
fn for_over_hashmap_is_flagged_btreemap_is_not() {
    let hash = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, f64>) -> f64 {
    let mut acc = 0.0;
    for (_, v) in m { acc += v; }
    acc
}
";
    assert_eq!(lints(CORE, hash), vec!["unordered-iteration"]);
    let btree = hash.replace("HashMap", "BTreeMap");
    assert!(lints(CORE, &btree).is_empty());
}

#[test]
fn hash_iteration_with_order_insensitive_sink_is_not_flagged() {
    let src = "\
use std::collections::{BTreeSet, HashMap, HashSet};
fn count(m: &HashMap<u32, f64>) -> usize { m.iter().count() }
fn rekey(m: &HashMap<u32, f64>) -> BTreeSet<u32> { m.keys().copied().collect::<BTreeSet<u32>>() }
fn isum(m: &HashMap<u32, u64>) -> u64 { m.values().copied().sum::<u64>() }
fn anyv(s: &HashSet<u32>) -> bool { s.iter().any(|&x| x > 3) }
";
    assert!(lints(CORE, src).is_empty(), "{:?}", lints(CORE, src));
}

#[test]
fn hash_iteration_feeding_float_sum_is_flagged() {
    let src = "\
use std::collections::HashMap;
fn fsum(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }
";
    assert_eq!(lints(CORE, src), vec!["unordered-iteration"]);
}

#[test]
fn returning_a_hashmap_is_flagged() {
    let src = "\
use std::collections::HashMap;
fn build() -> HashMap<u32, f64> { HashMap::new() }
";
    assert_eq!(lints(CORE, src), vec!["unordered-iteration"]);
}

#[test]
fn hashmap_named_in_string_or_comment_is_not_tracked() {
    let src = "\
// this mentions a HashMap<u32, f64> in prose
fn f() -> String { \"for x in map.iter()\".to_string() }
";
    assert!(lints(CORE, src).is_empty());
}

// ------------------------------------------------------------- wall clock

#[test]
fn instant_now_is_flagged_outside_the_blessed_module() {
    let src = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }\n";
    assert_eq!(lints(CORE, src), vec!["wallclock-in-hot-path"]);
    assert_eq!(lints("crates/tracekit/src/trace.rs", src), vec!["wallclock-in-hot-path"]);
    assert!(lints("crates/tracekit/src/wall.rs", src).is_empty(), "blessed module");
}

#[test]
fn instant_now_in_test_code_is_not_flagged() {
    let src = "#[cfg(test)]\nmod tests {\n fn t() { let _ = std::time::Instant::now(); }\n}\n";
    assert!(lints(CORE, src).is_empty());
}

#[test]
fn systemtime_now_is_flagged() {
    let src = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    assert_eq!(lints(CORE, src), vec!["wallclock-in-hot-path"]);
}

const CLOCK_HELPER: &str = "pub fn now_ms() -> u64 {\n\
    let _t = std::time::Instant::now();\n    0\n}\n";
const CLOCK_CALLER: &str = "use tracekit::util::now_ms;\n\
    pub fn serve() -> u64 {\n    now_ms()\n}\n";

/// A caller reaches a clock only through a function that reads one, and
/// such a function cannot exist unflagged outside `tracekit/src/wall.rs`:
/// the one way to keep a finding out of `--deny all` is a suppression,
/// and for this lint a suppression is itself an error and silences
/// nothing. That is the whole cross-file wall-clock contract.
#[test]
fn wallclock_suppression_is_a_syntax_error_and_silences_nothing() {
    let helper = CLOCK_HELPER.replace(
        "let _t",
        "// udlint: allow(wallclock-in-hot-path) -- fixture: only a helper\nlet _t",
    );
    let r = tree(&[
        ("crates/tracekit/src/util.rs", helper.as_str()),
        ("crates/core/src/hot.rs", CLOCK_CALLER),
    ]);
    assert_eq!(
        lints_of(&r),
        vec![
            ("suppression-syntax", "crates/tracekit/src/util.rs", 2),
            ("wallclock-in-hot-path", "crates/tracekit/src/util.rs", 3),
        ]
    );
    assert!(r.diagnostics[0].message.contains("cannot be suppressed"), "{:?}", r.diagnostics);
    assert!(r.suppressed.is_empty());
    // Inside the wall module there is nothing to suppress, and the
    // comment is still rejected rather than reported as merely unused.
    let r = tree(&[("crates/tracekit/src/wall.rs", helper.as_str())]);
    assert_eq!(lints_of(&r), vec![("suppression-syntax", "crates/tracekit/src/wall.rs", 2)]);
    assert!(r.diagnostics[0].message.contains("cannot be suppressed"));
}

// ------------------------------------------------------------ raw threads

#[test]
fn thread_spawn_is_flagged_outside_parkit() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(lints(CORE, src), vec!["raw-thread-spawn"]);
    assert!(lints("crates/parkit/src/pool.rs", src).is_empty(), "parkit is the pool");
}

#[test]
fn thread_spawn_in_raw_string_is_not_flagged() {
    let src = r##"fn f() -> &'static str { r#"std::thread::spawn(|| {})"# }"##;
    assert!(lints(CORE, src).is_empty());
}

// ------------------------------------------------------------- env reads

#[test]
fn blessed_unisem_env_read_is_not_flagged() {
    let src = "fn f() -> Option<String> { std::env::var(\"UNISEM_THREADS\").ok() }\n";
    assert!(lints(CORE, src).is_empty());
}

#[test]
fn non_unisem_env_read_is_flagged() {
    let src = "fn f() -> Option<String> { std::env::var(\"PATH\").ok() }\n";
    assert_eq!(lints(CORE, src), vec!["nondeterministic-env"]);
}

#[test]
fn dynamically_named_env_read_is_flagged() {
    let src = "fn f(name: &str) -> Option<String> { std::env::var(name).ok() }\n";
    assert_eq!(lints(CORE, src), vec!["nondeterministic-env"]);
}

#[test]
fn ambient_env_reads_are_flagged() {
    let src = "\
fn a() { for (_k, _v) in std::env::vars() {} }
fn b() -> std::path::PathBuf { std::env::temp_dir() }
";
    let got = lints(CORE, src);
    assert_eq!(got.iter().filter(|l| *l == "nondeterministic-env").count(), 2, "{got:?}");
}

// ------------------------------------------------------------ suppressions

#[test]
fn suppression_with_reason_silences_and_is_counted() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    x.unwrap() // udlint: allow(unwrap-in-core) -- input validated at ingestion
}
";
    let r = check_source(CORE, src);
    assert!(r.diagnostics.is_empty());
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].reason, "input validated at ingestion");
}

#[test]
fn suppression_without_reason_is_a_diagnostic() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() // udlint: allow(unwrap-in-core)\n}\n";
    let r = check_source(CORE, src);
    assert!(r.diagnostics.iter().any(|d| d.lint == "suppression-syntax"));
    assert!(r.diagnostics.iter().any(|d| d.lint == "unwrap-in-core"), "not silenced");
}

#[test]
fn standalone_suppression_covers_next_line() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    // udlint: allow(unwrap-in-core) -- caller guarantees Some
    x.unwrap()
}
";
    let r = check_source(CORE, src);
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressed.len(), 1);
}

#[test]
fn uncovered_io_site_accepts_suppressions_like_any_other() {
    let src = "\
pub fn orphan(f: &std::fs::File) -> std::io::Result<()> {\n\
    // udlint: allow(uncovered-io-site) -- fixture: documented pre-state window\n\
    f.sync_all()\n\
}\n";
    let r = check_source(STORE, src);
    assert!(r.diagnostics.is_empty(), "{:?}", lints_of(&r));
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].diag.lint, "uncovered-io-site");

    // And an unused one is flagged, same as any other lint's.
    let clean = "\
pub fn nothing() {}\n\
// udlint: allow(uncovered-io-site) -- fixture: stale reason\n\
pub fn also_nothing() {}\n";
    let r = check_source(STORE, clean);
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.lint == "suppression-syntax" && d.message.contains("unused")),
        "{:?}",
        lints_of(&r)
    );
}

// ---------------------------------------------------------------- io sites

/// The call graph used to count `raw` as covered because the checked
/// `guarded` calls it. It is reported now, beside `orphan`: the check in
/// `guarded` fires before the call, so no plan can fail `raw`'s own
/// write, and the first unchecked caller of `raw` would have inherited a
/// verdict that was never about it.
#[test]
fn uncovered_io_site_needs_the_check_in_the_same_function() {
    let src = "\
pub struct Store { faults: FaultPlan }\n\
impl Store {\n\
    pub fn guarded(&self, f: &std::fs::File) -> std::io::Result<()> {\n\
        self.faults.check(Site::StoreFlush, \"k\")?;\n\
        self.raw(f)\n\
    }\n\
    fn raw(&self, f: &std::fs::File) -> std::io::Result<()> {\n\
        f.write_all(&[0])\n\
    }\n\
    pub fn orphan(&self, f: &std::fs::File) -> std::io::Result<()> {\n\
        f.sync_all()\n\
    }\n\
    pub fn checked(&self, f: &std::fs::File) -> std::io::Result<()> {\n\
        self.faults.check(Site::StoreFlush, \"k\")?;\n\
        f.set_len(0)?;\n\
        f.sync_data()\n\
    }\n\
}\n";
    let r = check_source("crates/storekit/src/newpath.rs", src);
    assert_eq!(
        lints_of(&r),
        vec![
            ("uncovered-io-site", "crates/storekit/src/newpath.rs", 8),
            ("uncovered-io-site", "crates/storekit/src/newpath.rs", 11),
        ]
    );
    assert!(r.diagnostics[0].message.contains("raw `write_all` in `raw`"));
    assert!(r.diagnostics[1].message.contains("raw `sync_all` in `orphan`"));
}

#[test]
fn io_outside_storekit_is_out_of_scope() {
    // tracekit's trace sink writes files too — deliberately outside the
    // durability contract (it is observability plumbing, not state).
    let src = "pub fn dump(f: &std::fs::File) { let _ = f.sync_all(); }\n";
    assert!(lints("crates/tracekit/src/sink.rs", src).is_empty());
    assert_eq!(lints(STORE, src), vec!["uncovered-io-site"]);
}

#[test]
fn nested_fn_is_its_own_function() {
    // A check in the outer body covers the outer body's I/O only.
    let src = "\
fn outer(f: &File, p: &FaultPlan) -> io::Result<()> {
    p.check(Site::StoreFlush, \"k\")?;
    fn inner(f: &File) -> io::Result<()> { f.sync_all() }
    inner(f)?;
    f.set_len(0)
}
";
    let got = io_findings(src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("raw `sync_all` in `inner`"), "{got:?}");
    // And a check in the nested fn does not leak outwards.
    let src = "\
fn outer(f: &mut File) -> io::Result<()> {
    fn inner(p: &FaultPlan) -> bool { p.check(Site::StoreFlush, \"k\").is_ok() }
    f.write_all(&[0])
}
";
    let got = io_findings(src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("raw `write_all` in `outer`"), "{got:?}");
}

#[test]
fn closure_belongs_to_the_function_it_is_written_in() {
    let checked = "\
fn flush(f: &File, p: &FaultPlan) -> io::Result<()> {
    p.check(Site::StoreFlush, \"file\")?;
    let sync = |f: &File| { f.sync_all() };
    sync(f)
}
";
    assert!(io_findings(checked).is_empty());
    let unchecked = "\
fn flush(f: &File) -> io::Result<()> {
    Ok(()).and_then(|()| { f.sync_all() })
}
fn later(p: &FaultPlan) { let _ = p.check(Site::StoreFlush, \"file\"); }
";
    let got = io_findings(unchecked);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("raw `sync_all` in `flush`"), "{got:?}");
}

#[test]
fn where_clause_and_array_types_do_not_end_the_signature() {
    let src = "\
fn put<W>(w: &mut W, keep: impl Fn(&[u8; 4]) -> [u8; 2]) -> io::Result<()>
where
    W: Write,
{
    w.write_all(&keep(&[0; 4]))
}
";
    let got = io_findings(src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("raw `write_all` in `put`"), "{got:?}");
}

#[test]
fn qualifiers_and_attributes_do_not_hide_a_function() {
    let src = "\
#![allow(dead_code)]
#[inline(always)]
#[doc = \"a [bracketed] doc with #[fake attr] and fn ghost() { } inside\"]
pub(crate) unsafe extern \"C\" fn ffi(f: &File) -> i32 { f.sync_all().is_ok() as i32 }
type Callback = fn(&File) -> io::Result<()>;
pub const fn quiet() -> u32 { 7 }
";
    let got = io_findings(src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("raw `sync_all` in `ffi`"), "{got:?}");
}

#[test]
fn bodyless_trait_fn_owns_nothing() {
    let src = "\
trait Sink {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()>;
    fn sync(&mut self) -> io::Result<()>;
    fn both(&mut self, f: &File, p: &FaultPlan) -> io::Result<()> {
        p.check(Site::StoreFlush, \"k\")?;
        f.sync_all()
    }
}
fn after(f: &File) -> io::Result<()> { f.sync_data() }
";
    let got = io_findings(src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("raw `sync_data` in `after`"), "{got:?}");
}

#[test]
fn fn_in_string_comment_or_test_module_is_not_a_function() {
    let src = "\
// fn ghost(f: &File) { f.sync_all(); }
/* fn ghost(f: &File) { f.set_len(0); } */
const DOC: &str = \"fn ghost(f: &File) { f.sync_all(); }\";
#[cfg(test)]
mod tests {
    fn helper(f: &File) { f.sync_all().unwrap(); }
}
fn real(f: &File) -> io::Result<()> {
    let _brace = \"}\";
    let _check = \"p.check(Site::StoreFlush, k)\"; // check(Site::StoreFlush)
    f.sync_data()
}
";
    let got = io_findings(src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("raw `sync_data` in `real`"), "{got:?}");
}

/// The body scanner is total, and an island it cannot read costs at most
/// the island: the next `fn` is still a function of its own, reported
/// when it is raw and silent when it carries its check.
#[test]
fn garbage_islands_cost_only_themselves() {
    let islands = [
        // Unbalanced delimiters before real items.
        ");;;= = = }{ garbage !!\n",
        // An unclosed parenthesis and brace mid-file.
        "fn broken( { \n",
        // An unclosed body: everything after it nests, nothing merges.
        "fn open_ended() { let x = (1; \n",
        // Keywords and punctuation out of position.
        "where for in :: -> => .. <> match loop fn\n",
        // A lone attribute and visibility with nothing to attach to.
        "#[derive(Debug)] pub\n",
    ];
    let tail = "\
fn guarded(f: &File, p: &FaultPlan) -> io::Result<()> { p.check(Site::StoreFlush, \"k\")?; f.sync_all() }
fn survivor(f: &File) -> io::Result<()> { f.sync_all() }
";
    for island in islands {
        let got = io_findings(&format!("{island}{tail}"));
        assert_eq!(got.len(), 1, "after {island:?}: {got:?}");
        assert!(got[0].contains("raw `sync_all` in `survivor`"), "after {island:?}: {got:?}");
    }
}

#[test]
fn pathological_inputs_never_panic() {
    // No assertion beyond totality: every pass must return on every input.
    let cases = [
        "",
        "{",
        "}",
        "((((((((((",
        "))))))))))",
        "fn",
        "fn (",
        "fn f",
        "fn f(",
        "fn f() {",
        "fn f() }",
        "impl",
        "impl <",
        "mod",
        "use ::;",
        "macro_rules!",
        "registry_enum!",
        "registry_enum! {",
        "registry_enum! { pub enum",
        "#",
        "#[",
        "#![",
        "pub pub pub",
        "const const fn",
        "trait T { fn",
        "enum E { A(",
        "r#\"not closed",
        "fn f() { \"string with } brace\" }",
        "fn g() { '}' }",
        "fn h<T>() where T: Fn() -> (bool) {}",
        "fn f() { x.sync_all(",
        "fn f() { x.sync_all",
    ];
    for src in cases {
        let _ = check_source(STORE, src);
        let _ = check_source(CORE, src);
    }
    // A long alternating stream of delimiters (deterministic, no RNG: the
    // pattern is fixed) — 50 `fn x` heads, none with a readable body.
    let mut soup = String::new();
    for i in 0..500 {
        soup.push_str(["{", "}", "(", ")", "fn ", "x", ";", "#[", "]", "::"][i % 10]);
    }
    let _ = check_source(STORE, &soup);
    let _ = check_source(CORE, &soup);
}

// ------------------------------------------------------------- determinism

#[test]
fn check_tree_output_is_independent_of_input_order() {
    let files = [
        ("crates/tracekit/src/util.rs", CLOCK_HELPER),
        ("crates/core/src/hot.rs", CLOCK_CALLER),
        (
            "crates/storekit/src/newpath.rs",
            "pub fn orphan(f: &std::fs::File) { let _ = f.sync_all(); }\n",
        ),
    ];
    let a = tree(&files);
    assert_eq!(a.diagnostics.len(), 2, "a clock read and a sync: {:?}", lints_of(&a));
    let mut rev = files;
    rev.reverse();
    assert_eq!(
        a.render_json(),
        tree(&rev).render_json(),
        "sorted, byte-identical reports regardless of walk order"
    );
}
