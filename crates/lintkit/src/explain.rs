//! Long-form lint documentation for `udlint --explain <lint>`.
//!
//! Each entry says what the lint matches, *why the contract exists*,
//! and what a compliant fix looks like — so a CI failure is
//! self-explaining without opening DESIGN.md. The registry here must
//! cover exactly [`crate::LINTS`] (enforced by a unit test), so adding
//! a lint without documenting it does not compile past the suite.

/// Returns the long-form explanation for `lint`, if it is registered.
pub fn explain(lint: &str) -> Option<&'static str> {
    EXPLANATIONS.iter().find(|(name, _)| *name == lint).map(|(_, text)| *text)
}

const EXPLANATIONS: &[(&str, &str)] = &[
    (
        "unwrap-in-core",
        "What: `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`, or\n\
         `unimplemented!` in non-test library code of a panic-free crate (core,\n\
         relstore, hetgraph, retrieval, storekit).\n\
         Why: the engine's error contract (DESIGN.md §8) is typed degradation —\n\
         bad input quarantines or downgrades, it never aborts the process. A\n\
         panic in a serving path is an availability bug.\n\
         Fix: return the crate's typed error, or degrade through the ladder. If\n\
         the invariant is locally provable, suppress with the proof as reason.",
    ),
    (
        "unordered-iteration",
        "What: iterating a HashMap/HashSet where the order can reach floats,\n\
         traces, or returned collections without an interposed sort.\n\
         Why: hash iteration order varies across runs and platforms; the engine\n\
         promises byte-identical answers at any thread count, so any\n\
         order-sensitive fold over a hash container is a determinism bug.\n\
         Fix: use BTreeMap/BTreeSet, or collect-and-sort before folding.",
    ),
    (
        "wallclock-in-hot-path",
        "What: a direct `Instant::now()` / `SystemTime::now()` call site outside\n\
         crates/tracekit/src/wall.rs.\n\
         Why: wall time is nondeterministic input. All timing flows through\n\
         tracekit's wall module, which is compiled out of the deterministic\n\
         replay surface (DESIGN.md §9).\n\
         Cannot be suppressed: `allow(wallclock-in-hot-path)` is itself a\n\
         suppression-syntax error, so no function outside the wall module reads\n\
         the clock and no caller, in any crate, can reach one that does.\n\
         Fix: take a Stopwatch/TimingReport from tracekit::wall, or meter\n\
         logical resources (ResourceMeter) instead of time.",
    ),
    (
        "raw-thread-spawn",
        "What: `std::thread::spawn` or `thread::Builder` outside parkit.\n\
         Why: raw threads race; parkit's fork-join pool schedules work\n\
         deterministically so merges happen in a fixed order at any width.\n\
         Fix: express the parallelism as parkit tasks.",
    ),
    (
        "nondeterministic-env",
        "What: `std::env::var`/`vars` outside the blessed UNISEM_* configuration\n\
         surface.\n\
         Why: ambient environment reads make behavior depend on the shell that\n\
         launched the process; the deterministic replay contract allows only\n\
         the documented UNISEM_* knobs, read at one choke point.\n\
         Fix: plumb the value through config, or add a documented UNISEM_* knob.",
    ),
    (
        "suppression-syntax",
        "What: a malformed `udlint:` comment — bad grammar, unknown lint name,\n\
         missing `-- <reason>`, a suppression that matches no diagnostic, or\n\
         one naming a lint that cannot be suppressed (wallclock-in-hot-path).\n\
         Why: suppressions are the audited escape hatch; an unused one is a\n\
         stale justification waiting to mislead a reviewer, and an unknown name\n\
         silences nothing while looking like it does.\n\
         Fix: `// udlint: allow(<lint>) -- <reason>` on (or above) the offending\n\
         line; delete suppressions that no longer match.",
    ),
    (
        "uncovered-io-site",
        "What: a non-test storekit function whose body calls raw I/O\n\
         (`write_all`, `sync_all`, `sync_data`, `set_len`) without consulting\n\
         the fault registry (`…check(Site::…)`) in that same body.\n\
         Why: durability claims rest on the crash matrix (DESIGN.md §12–13):\n\
         every write/flush can be made to fail or tear through the closed\n\
         11-site faultkit registry. An I/O call the injector cannot fail is a\n\
         crash window no test exercises — exactly the write path that eats\n\
         data in production.\n\
         How: a token scan from each `fn name` to the brace matching its body;\n\
         a nested fn is its own function, a closure belongs to the function it\n\
         is written in. A check in a caller does not count: it fires before\n\
         the call, never between the helper's own writes.\n\
         Fix: put the check beside the I/O (at an existing site, or extend the\n\
         site registry deliberately); suppress only where recovery provably\n\
         handles a crash at that call, naming the test that shows it.",
    ),
];

#[cfg(test)]
mod tests {
    #[test]
    fn every_lint_has_an_explanation_and_vice_versa() {
        for (name, _) in crate::LINTS {
            assert!(super::explain(name).is_some(), "lint `{name}` has no --explain text");
        }
        for (name, _) in super::EXPLANATIONS {
            assert!(
                crate::LINTS.iter().any(|(l, _)| l == name),
                "--explain documents unknown lint `{name}`"
            );
        }
        assert!(super::explain("not-a-lint").is_none());
    }
}
