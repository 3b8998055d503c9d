//! Per-file analysis context: lexed tokens, `#[cfg(test)]` span marking,
//! and the suppression grammar.
//!
//! # Test-span marking
//!
//! The old awk gates stopped scanning a file at the first `#[cfg(test)]`
//! line — so test modules kept their unwraps, but so did any real code
//! that happened to follow one. Here the attribute is recognized in the
//! token stream and only the *item it annotates* (attribute through the
//! matching close brace, or through `;` for brace-less items) is marked
//! `in_test`. Works for `mod`, `fn`, `impl`, `use`, in any file position.
//!
//! # Suppression grammar
//!
//! ```text
//! // udlint: allow(<lint-name>) -- <reason>
//! ```
//!
//! The reason is mandatory; a missing reason or unknown lint name is
//! itself a diagnostic (`suppression-syntax`). A suppression comment at
//! the end of a code line covers that line; a comment alone on its line
//! covers the next line that has code on it. Active suppressions are
//! counted and reported — `tests/selfcheck.rs` compares the count against
//! the committed `lint-budget.txt` so the total can only shrink without
//! review.

use crate::lexer::{lex, Tok, TokKind};

/// A parsed, well-formed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the suppression *covers* (diagnostics on this line with a
    /// matching lint are suppressed).
    pub target_line: u32,
    /// Line the comment itself sits on.
    pub comment_line: u32,
    /// Lint name inside `allow(…)`.
    pub lint: String,
    /// The mandatory justification after `--`.
    pub reason: String,
}

/// A malformed `udlint:` comment (missing reason, bad syntax, unknown
/// lint); reported as a `suppression-syntax` diagnostic by the runner.
#[derive(Debug, Clone)]
pub struct BadSuppression {
    /// Line of the malformed comment.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// Outcome of scanning one comment for the suppression marker.
enum AllowParse {
    NotASuppression,
    Ok { lint: String, reason: String },
    Bad(String),
}

/// Parses the suppression grammar out of a comment's text (the comment
/// markers themselves may be `//`, `///`, or `/* … */`).
fn parse_allow(comment: &str) -> AllowParse {
    let Some(pos) = comment.find("udlint:") else {
        return AllowParse::NotASuppression;
    };
    let rest = comment[pos + "udlint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return AllowParse::Bad("expected `allow(<lint>) -- <reason>` after `udlint:`".into());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return AllowParse::Bad("expected `(` after `udlint: allow`".into());
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Bad("unclosed `allow(` in suppression".into());
    };
    let lint = rest[..close].trim().to_string();
    if lint.is_empty() {
        return AllowParse::Bad("empty lint name in `allow()`".into());
    }
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix("--") else {
        return AllowParse::Bad(format!("suppression of `{lint}` is missing `-- <reason>`"));
    };
    let reason = reason.trim().trim_end_matches("*/").trim().to_string();
    if reason.is_empty() {
        return AllowParse::Bad(format!("suppression of `{lint}` has an empty reason"));
    }
    AllowParse::Ok { lint, reason }
}

/// One lexed-and-analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The token stream (comments included).
    pub toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens, in order.
    pub sig: Vec<usize>,
    /// Well-formed suppressions found in comments.
    pub suppressions: Vec<Suppression>,
    /// Malformed `udlint:` comments.
    pub bad_suppressions: Vec<BadSuppression>,
}

impl SourceFile {
    /// Lexes `src`, marks `#[cfg(test)]` spans, and extracts suppressions.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let mut toks = lex(src);
        let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        mark_test_spans(&mut toks, &sig);
        let (suppressions, bad_suppressions) = extract_suppressions(&toks);
        SourceFile { rel_path: rel_path.to_string(), toks, sig, suppressions, bad_suppressions }
    }

    /// Text of the significant token at sig-index `k` (empty past the end).
    pub fn sig_text(&self, k: usize) -> &str {
        self.sig.get(k).map(|&i| self.toks[i].text.as_str()).unwrap_or("")
    }

    /// Kind of the significant token at sig-index `k`.
    pub fn sig_kind(&self, k: usize) -> Option<TokKind> {
        self.sig.get(k).map(|&i| self.toks[i].kind)
    }

    /// Line of the significant token at sig-index `k`.
    pub fn sig_line(&self, k: usize) -> u32 {
        self.sig.get(k).map(|&i| self.toks[i].line).unwrap_or(0)
    }

    /// True when the significant token at sig-index `k` is in a test span.
    pub fn sig_in_test(&self, k: usize) -> bool {
        self.sig.get(k).map(|&i| self.toks[i].in_test).unwrap_or(false)
    }

    /// True when the texts of significant tokens starting at `k` equal
    /// `pat` exactly.
    pub fn sig_matches(&self, k: usize, pat: &[&str]) -> bool {
        pat.iter().enumerate().all(|(j, p)| self.sig_text(k + j) == *p)
    }

    /// Sig-index of the `}` matching the `{` at sig-index `open`, or of
    /// the last token when it never closes.
    pub fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for k in open..self.sig.len() {
            match self.sig_text(k) {
                "{" => depth += 1,
                "}" if depth <= 1 => return k,
                "}" => depth -= 1,
                _ => {}
            }
        }
        self.sig.len().saturating_sub(1)
    }
}

/// Marks tokens covered by `#[cfg(test)]` / `#[test]` items as `in_test`.
fn mark_test_spans(toks: &mut [Tok], sig: &[usize]) {
    let mut k = 0usize;
    while k < sig.len() {
        if toks[sig[k]].text == "#" && k + 1 < sig.len() && toks[sig[k + 1]].text == "[" {
            let attr_start = k;
            // Find the matching `]` (attributes can nest brackets).
            let mut depth = 0usize;
            let mut j = k + 1;
            while j < sig.len() {
                match toks[sig[j]].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let attr_end = j; // sig index of `]` (or EOF)
            let inner: Vec<&str> =
                (attr_start + 2..attr_end).map(|m| toks[sig[m]].text.as_str()).collect();
            let is_test_attr = inner == ["test"] || inner == ["cfg", "(", "test", ")"];
            if is_test_attr {
                let end = item_end(toks, sig, attr_end + 1);
                // Mark the whole raw-token range (comments included) so
                // suppression scans can tell they sit in test code.
                let lo = sig[attr_start];
                let hi = sig.get(end.min(sig.len() - 1)).copied().unwrap_or(toks.len() - 1);
                for t in toks.iter_mut().take(hi + 1).skip(lo) {
                    t.in_test = true;
                }
                k = end + 1;
                continue;
            }
            k = attr_end + 1;
            continue;
        }
        k += 1;
    }
}

/// Returns the sig-index of the last token of the item starting at `from`:
/// scans past any further attributes, then to the matching `}` of the
/// item's first brace block, or to a `;` before any brace opens.
fn item_end(toks: &[Tok], sig: &[usize], from: usize) -> usize {
    let mut k = from;
    let mut brace_depth = 0usize;
    let mut opened = false;
    while k < sig.len() {
        match toks[sig[k]].text.as_str() {
            "{" => {
                brace_depth += 1;
                opened = true;
            }
            "}" => {
                brace_depth = brace_depth.saturating_sub(1);
                if opened && brace_depth == 0 {
                    return k;
                }
            }
            ";" if !opened => return k,
            _ => {}
        }
        k += 1;
    }
    sig.len().saturating_sub(1)
}

/// Extracts suppressions from comment tokens, resolving each to the line
/// it covers.
fn extract_suppressions(toks: &[Tok]) -> (Vec<Suppression>, Vec<BadSuppression>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        match parse_allow(&t.text) {
            AllowParse::NotASuppression => {}
            AllowParse::Bad(problem) => bad.push(BadSuppression { line: t.line, problem }),
            AllowParse::Ok { lint, reason } => {
                // Same line as preceding code → covers that line; comment
                // alone on its line → covers the next code line.
                let code_before = toks[..i]
                    .iter()
                    .rev()
                    .take_while(|p| p.line == t.line)
                    .any(|p| !p.is_comment());
                let target_line = if code_before {
                    t.line
                } else {
                    toks[i + 1..].iter().find(|n| !n.is_comment()).map(|n| n.line).unwrap_or(t.line)
                };
                ok.push(Suppression { target_line, comment_line: t.line, lint, reason });
            }
        }
    }
    (ok, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_marks_module_span_only() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn also_live() { z.unwrap(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let unwraps: Vec<bool> =
            f.toks.iter().filter(|t| t.text == "unwrap").map(|t| t.in_test).collect();
        assert_eq!(unwraps, vec![false, true, false], "only the mod body is test scope");
    }

    #[test]
    fn cfg_test_on_function() {
        let src = "#[cfg(test)]\nfn helper() { a.unwrap(); }\nfn live() { b.unwrap(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let unwraps: Vec<bool> =
            f.toks.iter().filter(|t| t.text == "unwrap").map(|t| t.in_test).collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_test_braceless_item() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { b.unwrap(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let unwraps: Vec<bool> =
            f.toks.iter().filter(|t| t.text == "unwrap").map(|t| t.in_test).collect();
        assert_eq!(unwraps, vec![false]);
    }

    #[test]
    fn cfg_not_test_is_not_test_scope() {
        let src = "#[cfg(not(test))]\nfn live() { a.unwrap(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.toks.iter().filter(|t| t.text == "unwrap").all(|t| !t.in_test));
    }

    #[test]
    fn test_attribute_with_stacked_attrs() {
        let src = "#[test]\n#[should_panic]\nfn t() { a.unwrap(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.toks.iter().filter(|t| t.text == "unwrap").all(|t| t.in_test));
    }

    #[test]
    fn suppression_same_line_and_next_line() {
        let src = "fn f() {\n\
                   let a = x.unwrap(); // udlint: allow(unwrap-in-core) -- init is infallible\n\
                   // udlint: allow(unordered-iteration) -- per-key accumulation\n\
                   for v in map.iter() {}\n}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        assert_eq!(f.suppressions[0].target_line, 2);
        assert_eq!(f.suppressions[0].lint, "unwrap-in-core");
        assert_eq!(f.suppressions[0].reason, "init is infallible");
        assert_eq!(f.suppressions[1].target_line, 4, "standalone comment covers next line");
    }

    #[test]
    fn suppression_requires_reason() {
        let src = "let a = x.unwrap(); // udlint: allow(unwrap-in-core)\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.suppressions.is_empty());
        assert_eq!(f.bad_suppressions.len(), 1);
        assert!(f.bad_suppressions[0].problem.contains("missing"));
    }

    #[test]
    fn suppression_bad_syntax_flagged() {
        for src in [
            "// udlint: deny(x) -- r\n",
            "// udlint: allow unwrap -- r\n",
            "// udlint: allow() -- r\n",
            "// udlint: allow(x) -- \n",
        ] {
            let f = SourceFile::parse("crates/core/src/x.rs", src);
            assert_eq!(f.bad_suppressions.len(), 1, "src: {src}");
        }
    }

    #[test]
    fn plain_comments_are_not_suppressions() {
        let f = SourceFile::parse("x.rs", "// nothing to see here\nfn f() {}\n");
        assert!(f.suppressions.is_empty() && f.bad_suppressions.is_empty());
    }
}
