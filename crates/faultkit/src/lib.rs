//! # faultkit
//!
//! Deterministic, seed-driven fault injection for the unisem engine
//! (DESIGN.md §8). The engine's "resource-constrained, messy sources"
//! setting (paper §I, §III) demands that every component failure be
//! *replayable*: a fault scenario is a pure value — a [`FaultPlan`] — and
//! whether a given call fails is a pure function of the plan, the
//! [`Site`], and a caller-supplied key. No clocks, no counters, no global
//! mutable state: the same plan produces bit-identical failures at any
//! thread count, which is what lets the fault matrix ride on top of the
//! workspace's determinism-under-parallelism contract (DESIGN.md §6).
//!
//! ## The site registry
//!
//! Injection points live at the engine's substrate boundaries and are
//! enumerated by [`Site`]. The registry is closed (a fixed array) so a
//! plan stays `Copy` and a seed enumerates scenarios over a known space:
//!
//! | site                | boundary                                      |
//! |---------------------|-----------------------------------------------|
//! | `semistore.parse`   | JSON document parsing at ingestion            |
//! | `semistore.flatten` | collection → relational table flattening      |
//! | `relstore.exec`     | logical-plan execution (structured route)     |
//! | `extract.tablegen`  | relational table generation over documents    |
//! | `hetgraph.traverse` | topology retrieval's bounded graph traversal  |
//! | `slm.generate`      | answer sampling for semantic-entropy scoring  |
//! | `store.write`       | snapshot frame write (torn-write simulation)  |
//! | `store.flush`       | durable flush / fsync (failed-flush simulation) |
//! | `wal.append`        | WAL record append (torn-record simulation)    |
//! | `wal.flush`         | WAL durable flush (lost buffered records)     |
//! | `wal.checkpoint`    | checkpoint protocol (snapshot fold + truncate) |
//!
//! ## Activation
//!
//! Programmatic: `EngineConfig::faults = FaultPlan::single(site)` (or any
//! other constructor). Ambient: the `UNISEM_FAULTS` environment variable,
//! consulted when the config plan is [`FaultPlan::unset`]. Spec grammar,
//! comma-separated:
//!
//! - `off` — explicitly disable (wins over any other component),
//! - `seed:<n>` — derive a scenario from a [`detkit::Rng`] seed
//!   (decimal or `0x…` hex),
//! - `<site>` — arm a site at probability 1,
//! - `<site>@<p>` — arm a site at probability `p`/255.
//!
//! E.g. `UNISEM_FAULTS=relstore.exec,slm.generate@128` or
//! `UNISEM_FAULTS=seed:0xF417`.

use std::fmt;

use detkit::rng::splitmix64;
use detkit::Rng;

/// Number of registered fault sites. The registry is closed so that a
/// [`FaultPlan`] can stay `Copy` (a fixed probability table).
pub const NUM_SITES: usize = 11;

/// A registered fault-injection site: one substrate boundary of the
/// unified engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Site {
    /// JSON document parsing at ingestion (`semistore.parse`).
    SemiParse,
    /// Collection flattening into a relational table (`semistore.flatten`).
    SemiFlatten,
    /// Logical-plan execution on the structured route (`relstore.exec`).
    RelExec,
    /// Relational table generation over documents (`extract.tablegen`).
    ExtractTablegen,
    /// Topology retrieval's graph traversal (`hetgraph.traverse`).
    GraphTraverse,
    /// Answer sampling for entropy estimation (`slm.generate`).
    SlmGenerate,
    /// Snapshot frame write in the storage layer — fires as a torn write:
    /// only the first half of the frame reaches the file (`store.write`).
    StoreWrite,
    /// Durable flush (fsync) in the storage layer — fires as a failed
    /// flush: buffered writes never become durable (`store.flush`).
    StoreFlush,
    /// Write-ahead-log record append — fires as a torn record: only a
    /// prefix of the framed record reaches the log file
    /// (`wal.append`).
    WalAppend,
    /// Write-ahead-log durable flush — fires as a lost buffer: records
    /// appended since the last successful flush never become durable
    /// (`wal.flush`).
    WalFlush,
    /// The checkpoint protocol — fires between its stages (snapshot fold,
    /// WAL truncation), leaving a stale-but-consistent WAL behind
    /// (`wal.checkpoint`).
    WalCheckpoint,
}

impl Site {
    /// Every registered site, in registry order.
    pub const ALL: [Site; NUM_SITES] = [
        Site::SemiParse,
        Site::SemiFlatten,
        Site::RelExec,
        Site::ExtractTablegen,
        Site::GraphTraverse,
        Site::SlmGenerate,
        Site::StoreWrite,
        Site::StoreFlush,
        Site::WalAppend,
        Site::WalFlush,
        Site::WalCheckpoint,
    ];

    /// Stable registry index.
    pub fn index(self) -> usize {
        match self {
            Site::SemiParse => 0,
            Site::SemiFlatten => 1,
            Site::RelExec => 2,
            Site::ExtractTablegen => 3,
            Site::GraphTraverse => 4,
            Site::SlmGenerate => 5,
            Site::StoreWrite => 6,
            Site::StoreFlush => 7,
            Site::WalAppend => 8,
            Site::WalFlush => 9,
            Site::WalCheckpoint => 10,
        }
    }

    /// Stable dotted name (used in specs, reports, and degradation
    /// traces). Site names are drawn from the shared component-label
    /// registry in [`tracekit::component`], so a fault report, a
    /// degradation record, and a metric about the same boundary always
    /// agree on its name.
    pub fn name(self) -> &'static str {
        use tracekit::component::*;
        match self {
            Site::SemiParse => SEMI_PARSE,
            Site::SemiFlatten => SEMI_FLATTEN,
            Site::RelExec => REL_EXEC,
            Site::ExtractTablegen => EXTRACT_TABLEGEN,
            Site::GraphTraverse => GRAPH_TRAVERSE,
            Site::SlmGenerate => SLM_GENERATE,
            Site::StoreWrite => STORE_WRITE,
            Site::StoreFlush => STORE_FLUSH,
            Site::WalAppend => WAL_APPEND,
            Site::WalFlush => WAL_FLUSH,
            Site::WalCheckpoint => WAL_CHECKPOINT,
        }
        .name()
    }

    /// Looks a site up by its dotted name.
    pub fn from_name(name: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the plan was established — distinguishes "nothing configured" (the
/// ambient `UNISEM_FAULTS` may apply) from "explicitly disabled" (it may
/// not; tests that must run fault-free use this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Default: no plan configured; ambient activation allowed.
    Unset,
    /// Explicitly disabled: never fires, ambient activation ignored.
    Disabled,
    /// Armed: the probability table is live.
    Armed,
}

/// A deterministic fault scenario: which sites fail, and with what
/// per-call probability.
///
/// `Copy` by design — the plan travels inside `EngineConfig` and is
/// consulted from worker threads without synchronization. Whether a call
/// fires is `fires(site, key)`: a pure hash of `(seed, site, key)`, so a
/// scenario replays bit-identically at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-site firing probability in 1/255 steps; 255 = always.
    prob: [u8; NUM_SITES],
    mode: Mode,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::unset()
    }
}

/// Error raised (or simulated) at an armed injection site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: Site,
    /// The call key the decision hashed.
    pub key: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (key: {})", self.site, self.key)
    }
}

impl std::error::Error for InjectedFault {}

/// A malformed fault-spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// No plan configured. Ambient activation (`UNISEM_FAULTS`) may still
    /// supply one — see [`FaultPlan::resolve`].
    pub const fn unset() -> Self {
        Self { seed: 0, prob: [0; NUM_SITES], mode: Mode::Unset }
    }

    /// Explicitly disabled: never fires and suppresses ambient activation.
    pub const fn disabled() -> Self {
        Self { seed: 0, prob: [0; NUM_SITES], mode: Mode::Disabled }
    }

    /// Arms a single site at probability 1 — the unit of the single-fault
    /// matrix.
    pub fn single(site: Site) -> Self {
        Self::unset().with_site(site, 255)
    }

    /// Arms `site` at probability `prob`/255 (255 = every call).
    pub fn with_site(mut self, site: Site, prob: u8) -> Self {
        self.prob[site.index()] = prob;
        self.mode = Mode::Armed;
        self
    }

    /// Derives a scenario from a seed and the site registry: one or two
    /// sites, each armed at probability 1 or ~1/2. Same seed, same plan —
    /// the scenario space is enumerable by iterating seeds.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let k = rng.gen_range(1..=2usize);
        let mut plan = Self::unset();
        plan.seed = seed;
        plan.mode = Mode::Armed;
        for idx in rng.sample_indices(NUM_SITES, k) {
            plan.prob[idx] = if rng.gen_bool(0.5) { 255 } else { 128 };
        }
        plan
    }

    /// Re-seeds the per-call decision hash (irrelevant for sites armed at
    /// probability 1).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when no plan was configured (ambient activation allowed).
    pub fn is_unset(&self) -> bool {
        self.mode == Mode::Unset
    }

    /// Whether the site fires for this call. Pure in `(plan, site, key)`:
    /// no state is consumed, so the decision is identical whenever and
    /// wherever (any thread) the same call is made.
    pub fn fires(&self, site: Site, key: &str) -> bool {
        if self.mode != Mode::Armed {
            return false;
        }
        let p = self.prob[site.index()];
        if p == 0 {
            return false;
        }
        if p == 255 {
            return true;
        }
        // FNV-1a over the key, salted by seed and site, finalized through
        // SplitMix64 for avalanche.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed ^ ((site.index() as u64) << 56);
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let x = splitmix64(&mut h);
        ((x >> 56) as u8) < p
    }

    /// [`Self::fires`] as a `Result`, for `?`-style hooks.
    pub fn check(&self, site: Site, key: &str) -> Result<(), InjectedFault> {
        if self.fires(site, key) {
            Err(InjectedFault { site, key: key.to_string() })
        } else {
            Ok(())
        }
    }

    /// Parses a spec string (see crate docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultPlan::unset());
        }
        // A bare `seed:<n>` derives its armed sites from the seed; a seed
        // accompanied by explicit site parts only pins the replay seed, so
        // `spec()` output reparses to the exact same plan.
        let has_sites = spec
            .split(',')
            .map(str::trim)
            .any(|p| !p.is_empty() && p != "off" && !p.starts_with("seed:"));
        let mut plan = FaultPlan::unset();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part == "off" {
                return Ok(FaultPlan::disabled());
            }
            if let Some(num) = part.strip_prefix("seed:") {
                let seed = parse_u64(num.trim())
                    .ok_or_else(|| FaultSpecError(format!("bad seed: {num}")))?;
                plan.seed = seed;
                plan.mode = Mode::Armed;
                if !has_sites {
                    let derived = FaultPlan::from_seed(seed);
                    for i in 0..NUM_SITES {
                        plan.prob[i] = plan.prob[i].max(derived.prob[i]);
                    }
                }
                continue;
            }
            let (name, prob) = match part.split_once('@') {
                Some((n, p)) => {
                    let p: u8 = p
                        .trim()
                        .parse()
                        .map_err(|_| FaultSpecError(format!("bad probability: {part}")))?;
                    (n.trim(), p)
                }
                None => (part, 255),
            };
            let site = Site::from_name(name)
                .ok_or_else(|| FaultSpecError(format!("unknown site: {name}")))?;
            plan = plan.with_site(site, prob);
        }
        Ok(plan)
    }

    /// The plan as a spec string round-trippable through [`Self::parse`]
    /// (seed-derived plans serialize site-by-site).
    pub fn spec(&self) -> String {
        match self.mode {
            Mode::Unset => String::new(),
            Mode::Disabled => "off".to_string(),
            Mode::Armed => {
                let mut parts: Vec<String> = Vec::new();
                if self.seed != 0 {
                    parts.push(format!("seed:{:#x}", self.seed));
                }
                for s in Site::ALL {
                    match self.prob[s.index()] {
                        0 => {}
                        255 => parts.push(s.name().to_string()),
                        p => parts.push(format!("{}@{p}", s.name())),
                    }
                }
                parts.join(",")
            }
        }
    }

    /// The ambient plan from `UNISEM_FAULTS`, if set and well-formed
    /// (malformed specs are ignored rather than crashing the host).
    #[expect(clippy::disallowed_methods, reason = "UNISEM_FAULTS is documented configuration")]
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("UNISEM_FAULTS").ok()?;
        FaultPlan::parse(&spec).ok().filter(|p| !p.is_unset())
    }

    /// The effective plan: this one if configured (armed or explicitly
    /// disabled), otherwise the ambient `UNISEM_FAULTS` plan, otherwise
    /// unset.
    pub fn resolve(self) -> FaultPlan {
        if self.is_unset() {
            FaultPlan::from_env().unwrap_or(self)
        } else {
            self
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mode {
            Mode::Unset => f.write_str("unset"),
            Mode::Disabled => f.write_str("off"),
            Mode::Armed => f.write_str(&self.spec()),
        }
    }
}

/// Parses decimal or `0x…` hexadecimal.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sites `plan` can fire at, as its spec names them (registry
    /// order, with any probability below 1).
    fn armed(plan: &FaultPlan) -> Vec<String> {
        let spec = plan.spec();
        spec.split(',')
            .filter(|p| !p.is_empty() && !p.starts_with("seed:"))
            .map(String::from)
            .collect()
    }

    #[test]
    fn registry_is_consistent() {
        for (i, s) in Site::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Site::from_name(s.name()), Some(s));
        }
        assert_eq!(Site::from_name("nope"), None);
        assert_eq!(Site::ALL.len(), NUM_SITES);
    }

    #[test]
    fn unset_and_disabled_never_fire() {
        for s in Site::ALL {
            assert!(!FaultPlan::unset().fires(s, "k"));
            assert!(!FaultPlan::disabled().fires(s, "k"));
        }
        assert!(FaultPlan::unset().is_unset());
        assert!(!FaultPlan::disabled().is_unset());
    }

    #[test]
    fn single_fires_only_its_site() {
        let plan = FaultPlan::single(Site::RelExec);
        assert!(plan.fires(Site::RelExec, "sales"));
        assert!(plan.check(Site::RelExec, "sales").is_err());
        for s in Site::ALL {
            if s != Site::RelExec {
                assert!(!plan.fires(s, "sales"), "{s}");
            }
        }
        assert_eq!(armed(&plan), ["relstore.exec"]);
    }

    #[test]
    fn probabilistic_fires_are_pure_and_varied() {
        let plan = FaultPlan::unset().with_seed(7).with_site(Site::SlmGenerate, 128);
        let mut fired = 0;
        for i in 0..200 {
            let key = format!("question-{i}");
            let a = plan.fires(Site::SlmGenerate, &key);
            let b = plan.fires(Site::SlmGenerate, &key);
            assert_eq!(a, b, "decision must be pure");
            fired += a as usize;
        }
        // ~50% at p=128; generous bounds.
        assert!((40..=160).contains(&fired), "fired {fired}/200");
        // Different seed, different pattern.
        let other = FaultPlan::unset().with_seed(8).with_site(Site::SlmGenerate, 128);
        let differs = (0..200).any(|i| {
            let key = format!("question-{i}");
            plan.fires(Site::SlmGenerate, &key) != other.fires(Site::SlmGenerate, &key)
        });
        assert!(differs);
    }

    #[test]
    fn from_seed_is_deterministic_and_armed() {
        for seed in [0u64, 1, 0xF417, u64::MAX] {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            let armed = armed(&a);
            assert!((1..=2).contains(&armed.len()), "seed {seed}: {armed:?}");
        }
        assert_ne!(armed(&FaultPlan::from_seed(1)), armed(&FaultPlan::from_seed(4)));
    }

    #[test]
    fn spec_round_trips() {
        let cases = [
            FaultPlan::disabled(),
            FaultPlan::single(Site::SemiFlatten),
            FaultPlan::unset().with_site(Site::RelExec, 40).with_site(Site::SlmGenerate, 255),
            FaultPlan::from_seed(0xBEEF),
        ];
        for plan in cases {
            let again = FaultPlan::parse(&plan.spec()).unwrap();
            // Armed probabilities and firing behavior must survive (the
            // seed component re-derives the same table).
            for s in Site::ALL {
                for key in ["a", "b", "longer-key"] {
                    assert_eq!(plan.fires(s, key), again.fires(s, key), "{plan} vs {again}");
                }
            }
        }
    }

    #[test]
    fn parse_grammar() {
        assert!(FaultPlan::parse("").unwrap().is_unset());
        assert_eq!(FaultPlan::parse("off").unwrap(), FaultPlan::disabled());
        let p = FaultPlan::parse("relstore.exec, slm.generate@9").unwrap();
        assert!(p.fires(Site::RelExec, "any"));
        assert_eq!(armed(&p), ["relstore.exec", "slm.generate@9"]);
        let s = FaultPlan::parse("seed:0xF417").unwrap();
        assert_eq!(armed(&s), armed(&FaultPlan::from_seed(0xF417)));
        assert!(FaultPlan::parse("bogus.site").is_err());
        assert!(FaultPlan::parse("relstore.exec@bad").is_err());
        assert!(FaultPlan::parse("seed:zzz").is_err());
    }

    #[test]
    fn resolve_prefers_explicit_configuration() {
        // Explicitly configured plans ignore the environment entirely;
        // only `unset` consults it (exercised end-to-end by ci.sh's
        // UNISEM_FAULTS test-suite run, not here — env mutation in-process
        // would race parallel tests).
        let armed = FaultPlan::single(Site::RelExec);
        assert_eq!(armed.resolve(), armed);
        let off = FaultPlan::disabled();
        assert_eq!(off.resolve(), off);
    }

    #[test]
    fn injected_fault_display() {
        let e = InjectedFault { site: Site::GraphTraverse, key: "q".into() };
        assert!(e.to_string().contains("hetgraph.traverse"));
        assert!(FaultSpecError("x".into()).to_string().contains("x"));
    }
}
