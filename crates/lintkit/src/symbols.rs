//! The workspace symbol graph: module tree, simplified `use` resolution,
//! and a function-level call graph across every engine crate.
//!
//! This is the cross-file layer the token passes lack. It is built from
//! the item ASTs of all engine sources at once:
//!
//! - **module tree** — each file's module path comes from the workspace
//!   layout (`crates/<k>/src/a/b.rs` → `<k>::a::b`, `mod.rs` collapsing,
//!   `lib.rs` as the crate root) and inline `mod` items nest below it;
//! - **function table** — every `fn` item (free, impl, trait-default),
//!   with its module path, owning type, body span, and test marking;
//! - **call graph** — call sites are token patterns (`name(…)`,
//!   `path::name(…)`, `.name(…)`) resolved against the function table:
//!   paths resolve through the file's `use` imports and the qualifier
//!   segment (type or module), bare and method calls fall back to
//!   narrowing by module, then crate, then name. Resolution is
//!   deliberately *over-approximate* — an ambiguous name links to every
//!   plausible target — because the semantic lints use reachability:
//!   extra edges can cost a suppressible false positive, missing edges
//!   would silently hide a contract leak.
//!
//! Everything is index-based and sorted, so the graph (and every report
//! derived from it) is byte-identical across runs and thread counts.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, Ast, Item, ItemKind};
use crate::lexer::TokKind;
use crate::passes::{file_scope, FileScope};
use crate::source::SourceFile;

/// One fully analyzed engine source file.
pub struct WsFile {
    /// Crate directory name under `crates/`.
    pub krate: String,
    /// Lexed tokens, suppressions, test spans.
    pub file: SourceFile,
    /// Item tree.
    pub ast: Ast,
    /// Module path of the file itself (first segment = crate name).
    pub module: Vec<String>,
}

/// One function in the workspace.
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Self type when declared in an `impl`/`trait` block.
    pub owner: Option<String>,
    /// Module path including inline `mod` nesting (first segment =
    /// crate name).
    pub module: Vec<String>,
    /// 1-based declaration line.
    pub line: u32,
    /// Body token range (sig indices, inclusive) — `None` for bodyless
    /// signatures and empty bodies.
    pub body: Option<(usize, usize)>,
    /// Declared under `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
}

impl FnInfo {
    /// Display path: `crate::module::Type::name`.
    pub fn qual(&self) -> String {
        let mut parts: Vec<&str> = self.module.iter().map(String::as_str).collect();
        if let Some(owner) = &self.owner {
            parts.push(owner);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// The analyzed workspace: files, functions, and the call graph.
pub struct Workspace {
    /// Engine-scope files, sorted by path.
    pub files: Vec<WsFile>,
    /// Tooling-crate sources (bench, detkit) lexed for usage scans only —
    /// no diagnostics are ever attached to them.
    pub aux: Vec<SourceFile>,
    /// Every function, in (file, declaration) order.
    pub fns: Vec<FnInfo>,
    /// `callees[f]` — functions `f` calls (sorted, deduped). Includes
    /// the heuristic fallback edges; use for *taint* closures, where an
    /// extra edge costs a suppressible false positive.
    pub callees: Vec<Vec<usize>>,
    /// `callers[f]` — functions calling `f` (sorted, deduped).
    pub callers: Vec<Vec<usize>>,
    /// High-confidence subgraph of `callees`: only edges whose call
    /// site named its target exactly (same-module bare call,
    /// `self.`-receiver method, owner-/module-qualified path, or a
    /// `use`-bound name). Use for *coverage* closures, where a bogus
    /// edge would silently hide a violation.
    pub callees_sure: Vec<Vec<usize>>,
    /// Reverse of `callees_sure`.
    pub callers_sure: Vec<Vec<usize>>,
}

/// Tooling crates whose sources join the workspace for *usage scanning*
/// (a metric recorded only by the experiment harness is still live)
/// without ever receiving diagnostics. lintkit itself is excluded: its
/// pass sources spell lint patterns in code.
const AUX_CRATES: &[&str] = &["detkit", "bench"];

impl Workspace {
    /// Builds the symbol graph from `(rel_path, source)` pairs (any file
    /// outside engine/aux scope is ignored). Input order is irrelevant —
    /// files are sorted by path internally.
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let mut sorted: Vec<&(String, String)> = sources.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));

        let mut files = Vec::new();
        let mut aux = Vec::new();
        for (rel_path, src) in sorted {
            match file_scope(rel_path) {
                FileScope::Engine { krate } => {
                    let file = SourceFile::parse(rel_path, src);
                    let ast = ast::parse(&file);
                    let module = file_module_path(&krate, rel_path);
                    files.push(WsFile { krate, file, ast, module });
                }
                FileScope::Ignored => {
                    let parts: Vec<&str> = rel_path.split('/').collect();
                    if parts.first() == Some(&"crates")
                        && parts.len() > 3
                        && parts.get(2) == Some(&"src")
                        && AUX_CRATES.contains(&parts[1])
                    {
                        aux.push(SourceFile::parse(rel_path, src));
                    }
                }
            }
        }

        // Function table.
        let mut fns: Vec<FnInfo> = Vec::new();
        for (fi, wsf) in files.iter().enumerate() {
            collect_fns(&wsf.ast.items, fi, &wsf.module, None, &mut fns);
        }

        // Name index for call resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }

        let krates: BTreeSet<&str> = files.iter().map(|f| f.krate.as_str()).collect();
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut sure_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, f) in fns.iter().enumerate() {
            let Some((lo, hi)) = f.body else { continue };
            let wsf = &files[f.file];
            let uses = use_map(wsf);
            for site in call_sites(&wsf.file, lo, hi) {
                let (targets, sure) = resolve(&site, f, &fns, &by_name, &uses, &krates);
                for &callee in &targets {
                    if callee != i {
                        edges.insert((i, callee));
                        if sure {
                            sure_edges.insert((i, callee));
                        }
                    }
                }
            }
        }
        let adjacency = |set: &BTreeSet<(usize, usize)>| {
            let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
            let mut rev: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
            for &(a, b) in set {
                fwd[a].push(b);
                rev[b].push(a);
            }
            for v in rev.iter_mut() {
                v.sort_unstable();
            }
            (fwd, rev)
        };
        let (callees, callers) = adjacency(&edges);
        let (callees_sure, callers_sure) = adjacency(&sure_edges);

        Workspace { files, aux, fns, callees, callers, callees_sure, callers_sure }
    }

    /// Functions sorted by qualified name (then declaration order), for
    /// deterministic rendering.
    pub fn fns_by_qual(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.fns.len()).collect();
        order.sort_by(|&a, &b| (self.fns[a].qual(), a).cmp(&(self.fns[b].qual(), b)));
        order
    }

    /// True when fn `i`'s body contains the significant-token pattern
    /// `pat` (exact texts, in order, within the body range).
    pub fn body_matches(&self, i: usize, pat: &[&str]) -> bool {
        self.find_in_body(i, pat).is_some()
    }

    /// First sig-index in fn `i`'s body where `pat` matches.
    pub fn find_in_body(&self, i: usize, pat: &[&str]) -> Option<usize> {
        let (lo, hi) = self.fns[i].body?;
        let file = &self.files[self.fns[i].file].file;
        (lo..=hi.saturating_sub(pat.len().saturating_sub(1))).find(|&k| file.sig_matches(k, pat))
    }

    /// Breadth-first reachability from `seeds` along `adj` (which may be
    /// `callees` for forward or `callers` for reverse closure), skipping
    /// functions rejected by `admit`. Returns the closed set plus the BFS
    /// parent of every newly reached node (for path rendering).
    pub fn closure(
        &self,
        seeds: &[usize],
        adj: &[Vec<usize>],
        mut admit: impl FnMut(usize) -> bool,
    ) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut frontier: Vec<usize> = seeds.iter().copied().filter(|&s| admit(s)).collect();
        frontier.sort_unstable();
        seen.extend(frontier.iter().copied());
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &n in &frontier {
                for &m in &adj[n] {
                    if !seen.contains(&m) && admit(m) {
                        seen.insert(m);
                        parent.insert(m, n);
                        next.push(m);
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        (seen, parent)
    }

    /// Renders the module tree, function table, and call graph as a
    /// sorted, byte-stable text dump (`udlint --dump-graph`).
    pub fn render_graph(&self) -> String {
        let mut out = String::from("modules:\n");
        for f in &self.files {
            out.push_str(&format!("  {} = {}\n", f.module.join("::"), f.file.rel_path));
        }
        out.push_str("fns:\n");
        for &i in &self.fns_by_qual() {
            let f = &self.fns[i];
            let test = if f.in_test { " [test]" } else { "" };
            out.push_str(&format!(
                "  {} @ {}:{}{}\n",
                f.qual(),
                self.files[f.file].file.rel_path,
                f.line,
                test
            ));
        }
        out.push_str("calls:\n");
        let mut lines: Vec<String> = Vec::new();
        for (i, cs) in self.callees.iter().enumerate() {
            for &c in cs {
                let sure = if self.callees_sure[i].contains(&c) { " [sure]" } else { "" };
                lines.push(format!("  {} -> {}{}\n", self.fns[i].qual(), self.fns[c].qual(), sure));
            }
        }
        lines.sort();
        lines.dedup();
        for l in &lines {
            out.push_str(l);
        }
        out
    }
}

/// Module path of a file from the workspace layout.
fn file_module_path(krate: &str, rel_path: &str) -> Vec<String> {
    let mut module = vec![krate.to_string()];
    let parts: Vec<&str> = rel_path.split('/').collect();
    // crates/<k>/src/<rest…>; lib.rs and main.rs are the root.
    for (i, part) in parts.iter().enumerate().skip(3) {
        let is_last = i == parts.len() - 1;
        if is_last {
            match part.strip_suffix(".rs") {
                Some("lib") | Some("main") | Some("mod") | None => {}
                Some(stem) => module.push(stem.to_string()),
            }
        } else {
            module.push(part.to_string());
        }
    }
    module
}

/// Recursively collects `fn` items with their module/owner context.
fn collect_fns(
    items: &[Item],
    file: usize,
    module: &[String],
    owner: Option<&str>,
    out: &mut Vec<FnInfo>,
) {
    for item in items {
        match item.kind {
            ItemKind::Fn => out.push(FnInfo {
                file,
                name: item.name.clone(),
                owner: owner.map(str::to_string),
                module: module.to_vec(),
                line: item.line,
                body: item.body,
                in_test: item.in_test,
            }),
            ItemKind::Mod => {
                let mut nested = module.to_vec();
                nested.push(item.name.clone());
                collect_fns(&item.children, file, &nested, None, out);
            }
            ItemKind::Impl | ItemKind::Trait => {
                collect_fns(&item.children, file, module, Some(&item.name), out);
            }
            _ => {}
        }
    }
}

/// One textual call site extracted from a body.
struct CallSite {
    /// Path segments, last one being the called name (`["Stopwatch",
    /// "start"]`, `["helper"]`).
    segments: Vec<String>,
    /// `.name(…)` method-call form.
    method: bool,
    /// Method call directly on `self` (`self.name(…)`) — the receiver
    /// type is known to be the enclosing impl's.
    self_recv: bool,
}

/// Extracts call sites from the sig range `[lo, hi]`: `name(`,
/// `a::b::name(`, and `.name(` patterns, macro-argument positions
/// included (tokens inside macro invocations are plain tokens here).
fn call_sites(file: &SourceFile, lo: usize, hi: usize) -> Vec<CallSite> {
    let mut sites = Vec::new();
    for k in lo..=hi {
        if file.sig_kind(k) != Some(TokKind::Ident) || file.sig_text(k + 1) != "(" {
            continue;
        }
        let name = file.sig_text(k);
        if !is_callable_name(name) {
            continue;
        }
        if k > 0 && file.sig_text(k - 1) == "." {
            let self_recv = k >= 2 && file.sig_text(k - 2) == "self";
            sites.push(CallSite { segments: vec![name.to_string()], method: true, self_recv });
            continue;
        }
        // Walk path qualifiers backwards: `a :: b :: name`.
        let mut segments = vec![name.to_string()];
        let mut j = k;
        while j >= 2 && file.sig_text(j - 1) == "::" && file.sig_kind(j - 2) == Some(TokKind::Ident)
        {
            segments.insert(0, file.sig_text(j - 2).to_string());
            j -= 2;
        }
        // `fn name(` is a declaration, not a call.
        if j >= 1 && file.sig_text(j - 1) == "fn" {
            continue;
        }
        sites.push(CallSite { segments, method: false, self_recv: false });
    }
    sites
}

/// Identifiers that look like calls but never resolve to workspace fns —
/// control keywords and ubiquitous std constructors. Everything else is
/// resolved (an unknown name simply matches no function).
fn is_callable_name(name: &str) -> bool {
    !matches!(
        name,
        "if" | "match"
            | "while"
            | "for"
            | "return"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "Box"
            | "Vec"
            | "String"
            | "loop"
            | "move"
            | "fn"
    )
}

/// The file's import map: bound name → full path segments. Group imports
/// expand (`use a::{b, c as d}` binds `b` and `d`); globs are skipped
/// (resolution falls back to name narrowing).
fn use_map(wsf: &WsFile) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    let mut uses: Vec<&Item> = Vec::new();
    ast::walk(&wsf.ast.items, &mut |item| {
        if item.kind == ItemKind::Use {
            uses.push(item);
        }
    });
    for item in uses {
        // Tokens between `use` and `;`.
        let toks: Vec<String> =
            (item.start + 1..item.end).map(|k| wsf.file.sig_text(k).to_string()).collect();
        expand_use_tree(&toks, &mut Vec::new(), &wsf.module, &mut map);
    }
    map
}

/// Recursive expansion of one `use` token list against `prefix`.
fn expand_use_tree(
    toks: &[String],
    prefix: &mut Vec<String>,
    module: &[String],
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let mut path: Vec<String> = prefix.clone();
    let mut i = 0;
    while i < toks.len() {
        match toks[i].as_str() {
            "::" | "," => i += 1,
            "{" => {
                // Split the group body at top-level commas and recurse.
                let mut depth = 0usize;
                let mut j = i;
                let close = loop {
                    if j >= toks.len() {
                        break toks.len().saturating_sub(1);
                    }
                    match toks[j].as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break j;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                };
                let inner = &toks[i + 1..close];
                let mut start = 0usize;
                let mut depth = 0usize;
                for (j, t) in inner.iter().enumerate() {
                    match t.as_str() {
                        "{" => depth += 1,
                        "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            expand_use_tree(&inner[start..j], &mut path.clone(), module, out);
                            start = j + 1;
                        }
                        _ => {}
                    }
                }
                expand_use_tree(&inner[start..], &mut path.clone(), module, out);
                return;
            }
            "as" => {
                // `path as alias`: bind the alias to the path built so far.
                if let Some(alias) = toks.get(i + 1) {
                    out.insert(alias.clone(), normalize_path(&path, module));
                }
                return;
            }
            "*" => return, // glob: no bindings
            seg => {
                path.push(seg.to_string());
                i += 1;
            }
        }
    }
    if let Some(last) = path.last().cloned() {
        out.insert(last, normalize_path(&path, module));
    }
}

/// Resolves `crate`/`super`/`self` prefixes against the file's module
/// path and external `unisem_<k>` lib names against crate dir names.
fn normalize_path(path: &[String], module: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, seg) in path.iter().enumerate() {
        match seg.as_str() {
            "crate" if i == 0 => out.push(module[0].clone()),
            "self" if i == 0 => out.extend(module.iter().cloned()),
            "super" => {
                if i == 0 {
                    out.extend(module.iter().cloned());
                }
                out.pop();
            }
            s => match s.strip_prefix("unisem_") {
                Some(dir) if i == 0 => out.push(dir.to_string()),
                _ => out.push(s.to_string()),
            },
        }
    }
    out
}

/// Resolves one call site to candidate functions, and whether the
/// match is *sure* (the site named its target exactly) or a heuristic
/// fallback. Sure edges feed the coverage graph; all edges feed the
/// taint graph — see the module docs for why the two lint families
/// need opposite approximation directions.
fn resolve(
    site: &CallSite,
    caller: &FnInfo,
    fns: &[FnInfo],
    by_name: &BTreeMap<&str, Vec<usize>>,
    uses: &BTreeMap<String, Vec<String>>,
    krates: &BTreeSet<&str>,
) -> (Vec<usize>, bool) {
    let name = match site.segments.last() {
        Some(n) => n.as_str(),
        None => return (Vec::new(), false),
    };
    let Some(cands) = by_name.get(name) else { return (Vec::new(), false) };

    if !site.method && site.segments.len() >= 2 {
        // Qualified call: expand the head through the import map, then
        // narrow by the qualifier segment (type, module, or crate).
        let mut segs: Vec<String> = site.segments.clone();
        if let Some(full) = uses.get(&segs[0]) {
            let mut expanded = full.clone();
            expanded.extend(segs[1..].iter().cloned());
            segs = expanded;
        } else {
            segs = normalize_path(&segs, &caller.module);
        }
        let qualifier = &segs[segs.len() - 2];
        let narrowed: Vec<usize> = if qualifier == "Self" {
            cands
                .iter()
                .copied()
                .filter(|&c| fns[c].owner == caller.owner && fns[c].file == caller.file)
                .collect()
        } else {
            let by_owner: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].owner.as_deref() == Some(qualifier.as_str()))
                .collect();
            if !by_owner.is_empty() {
                by_owner
            } else {
                cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        fns[c].module.last() == Some(qualifier)
                            || (krates.contains(qualifier.as_str())
                                && fns[c].module.first() == Some(qualifier))
                    })
                    .collect()
            }
        };
        if !narrowed.is_empty() {
            return (narrowed, true);
        }
        // Unknown qualifier (`File::open`, `OpenOptions`, a generic
        // param): almost always a std/type call that happens to share a
        // workspace fn's name. Keep the name-match for the taint graph,
        // but never as a sure edge.
        return (cands.clone(), false);
    }

    if site.method {
        // `self.name(…)`: the receiver is the enclosing impl's type.
        if site.self_recv {
            let own: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].owner == caller.owner && fns[c].file == caller.file)
                .collect();
            if !own.is_empty() {
                return (own, true);
            }
        }
        // Unknown receiver: over-approximate by name (same crate first).
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| fns[c].module.first() == caller.module.first())
            .collect();
        if !same_crate.is_empty() {
            return (same_crate, false);
        }
        return (cands.clone(), false);
    }

    // Bare call: a free fn in the same module (visible without a path)…
    let same_module: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| {
            fns[c].module == caller.module
                && (fns[c].owner.is_none() || fns[c].owner == caller.owner)
        })
        .collect();
    if !same_module.is_empty() {
        return (same_module, true);
    }
    // …or a name bound by `use other::helper;`.
    if let Some(full) = uses.get(name) {
        if full.len() >= 2 {
            let qualifier = &full[full.len() - 2];
            let narrowed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    fns[c].module.last() == Some(qualifier)
                        || fns[c].owner.as_deref() == Some(qualifier.as_str())
                })
                .collect();
            if !narrowed.is_empty() {
                return (narrowed, true);
            }
        }
    }
    let same_crate: Vec<usize> =
        cands.iter().copied().filter(|&c| fns[c].module.first() == caller.module.first()).collect();
    if !same_crate.is_empty() {
        return (same_crate, false);
    }
    (cands.clone(), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        Workspace::build(&sources)
    }

    fn fn_idx(w: &Workspace, qual: &str) -> usize {
        (0..w.fns.len()).find(|&i| w.fns[i].qual() == qual).unwrap_or_else(|| {
            panic!("no fn `{qual}`; have: {:?}", w.fns.iter().map(|f| f.qual()).collect::<Vec<_>>())
        })
    }

    #[test]
    fn module_paths_from_layout() {
        assert_eq!(file_module_path("core", "crates/core/src/lib.rs"), vec!["core"]);
        assert_eq!(
            file_module_path("core", "crates/core/src/planner/stats.rs"),
            vec!["core", "planner", "stats"]
        );
        assert_eq!(
            file_module_path("core", "crates/core/src/planner/mod.rs"),
            vec!["core", "planner"]
        );
    }

    #[test]
    fn call_graph_links_same_file_calls() {
        let w = ws(&[("crates/core/src/a.rs", "fn leaf() {}\nfn root() { leaf(); }\n")]);
        let root = fn_idx(&w, "core::a::root");
        let leaf = fn_idx(&w, "core::a::leaf");
        assert_eq!(w.callees[root], vec![leaf]);
        assert_eq!(w.callers[leaf], vec![root]);
    }

    #[test]
    fn call_graph_links_cross_crate_through_use() {
        let w = ws(&[
            (
                "crates/tracekit/src/wall.rs",
                "pub struct Stopwatch;\nimpl Stopwatch { pub fn start() -> Stopwatch { Stopwatch } }\n",
            ),
            (
                "crates/core/src/engine.rs",
                "use tracekit::wall::Stopwatch;\nfn answer() { let _ = Stopwatch::start(); }\n",
            ),
        ]);
        let answer = fn_idx(&w, "core::engine::answer");
        let start = fn_idx(&w, "tracekit::wall::Stopwatch::start");
        assert_eq!(w.callees[answer], vec![start]);
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "struct S;\nimpl S { fn go(&self) {} }\nfn drive(s: &S) { s.go(); }\n",
        )]);
        let drive = fn_idx(&w, "core::a::drive");
        let go = fn_idx(&w, "core::a::S::go");
        assert_eq!(w.callees[drive], vec![go]);
    }

    #[test]
    fn qualified_call_narrows_by_type() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "struct A;\nstruct B;\nimpl A { fn make() {} }\nimpl B { fn make() {} }\n\
             fn f() { A::make(); }\n",
        )]);
        let f = fn_idx(&w, "core::a::f");
        let a_make = fn_idx(&w, "core::a::A::make");
        assert_eq!(w.callees[f], vec![a_make], "B::make must not be linked");
    }

    #[test]
    fn use_groups_and_aliases_bind() {
        let w =
            ws(&[("crates/core/src/a.rs", "use crate::util::{alpha, beta as b};\nfn f() {}\n")]);
        let uses = use_map(&w.files[0]);
        assert_eq!(uses.get("alpha"), Some(&vec!["core".into(), "util".into(), "alpha".into()]));
        assert_eq!(uses.get("b"), Some(&vec!["core".into(), "util".into(), "beta".into()]));
    }

    #[test]
    fn graph_dump_is_sorted_and_stable() {
        let files = [
            ("crates/core/src/b.rs", "fn z() {}\nfn a() { z(); }\n"),
            ("crates/core/src/a.rs", "pub fn entry() {}\n"),
        ];
        let w1 = ws(&files);
        let mut rev = files;
        rev.reverse();
        let w2 = ws(&rev);
        assert_eq!(w1.render_graph(), w2.render_graph(), "input order must not matter");
        assert!(w1.render_graph().contains("core::b::a -> core::b::z"));
    }

    #[test]
    fn closure_walks_callers() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn sink() {}\nfn mid() { sink(); }\nfn top() { mid(); }\n",
        )]);
        let sink = fn_idx(&w, "core::a::sink");
        let (seen, parent) = w.closure(&[sink], &w.callers, |_| true);
        assert_eq!(seen.len(), 3, "sink, mid, top all reach");
        let top = fn_idx(&w, "core::a::top");
        let mid = fn_idx(&w, "core::a::mid");
        assert_eq!(parent.get(&top), Some(&mid), "path reconstruction: top <- mid");
    }
}
