//! EXPERIMENTS.md cannot go stale: every experiment's rendered tables must
//! equal, byte for byte, the fenced block of EXPERIMENTS.md whose info
//! string names it (```` ```text e3 ````). Bless an intentional change,
//! rewriting only those blocks, with
//!
//! ```sh
//! UNISEM_BLESS=1 cargo test -p unisem-bench --test experiments_golden
//! ```

use std::ops::Range;
use std::path::PathBuf;

use unisem_bench::experiments::EXPERIMENTS;

/// The byte range of the body of `md`'s block opened by ```` ```text {id} ````:
/// every line up to the closing fence, each with its newline.
fn block(md: &str, id: &str) -> Option<Range<usize>> {
    let open = format!("\n```text {id}\n");
    let start = md.find(&open)? + open.len();
    // The body ends at the first fence that starts a line; `start - 1` is
    // the opening line's newline, so an empty body is found too.
    let end = start + md[start - 1..].find("\n```\n")?;
    Some(start..end)
}

#[test]
fn every_experiment_matches_its_block_in_experiments_md() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let mut md = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let bless = std::env::var_os("UNISEM_BLESS").is_some();
    let mut stale = Vec::new();
    for (id, run) in EXPERIMENTS {
        let actual = run();
        let range =
            block(&md, id).unwrap_or_else(|| panic!("EXPERIMENTS.md has no ```text {id} block"));
        if md[range.clone()] == actual {
            continue;
        }
        if bless {
            md.replace_range(range, &actual);
            continue;
        }
        let expected = &md[range];
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        stale.push(format!(
            "{id}: line {} of its block\n  expected: {:?}\n    actual: {:?}",
            line + 1,
            expected.lines().nth(line).unwrap_or("<end of block>"),
            actual.lines().nth(line).unwrap_or("<end of output>"),
        ));
    }
    if bless {
        std::fs::write(&path, md).expect("bless EXPERIMENTS.md");
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md is stale (UNISEM_BLESS=1 rewrites its blocks after an intentional change):\n{}",
        stale.join("\n")
    );
}

#[test]
fn blocks_are_found_by_their_info_string() {
    let md = "intro\n```text e1\na\nb\n```\n\n```text e10\nc\n```\n```text e2\n```\n";
    assert_eq!(&md[block(md, "e1").unwrap()], "a\nb\n");
    assert_eq!(&md[block(md, "e10").unwrap()], "c\n");
    assert_eq!(&md[block(md, "e2").unwrap()], "");
    assert_eq!(block(md, "e3"), None);
}
