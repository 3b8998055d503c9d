//! Property suite for the `UNISEM_FAULTS` spec grammar (detkit prop
//! harness): every plan the engine can carry must survive a
//! parse → render → parse round trip — including multi-site specs,
//! `@p` probabilities, pinned seeds, and seed-derived scenarios — and
//! malformed specs must be rejected, never mis-parsed.

use detkit::prop::{self, one_of, string_of, u64s, u8s, vec_of, zip, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use faultkit::{FaultPlan, Site};

/// Keys a firing-equivalence check probes (covers empty, short, long,
/// and structured keys like the engine's `table:row` style).
const PROBE_KEYS: [&str; 5] = ["", "k", "sales", "page:17", "a-much-longer-key/with/segments"];

/// True when the two plans make identical firing decisions at every
/// site for every probe key — behavioral equality, which is what the
/// round-trip must preserve (plans also compare structurally below
/// where the grammar guarantees it).
fn fires_identically(a: &FaultPlan, b: &FaultPlan) -> bool {
    Site::ALL.into_iter().all(|s| PROBE_KEYS.iter().all(|k| a.fires(s, k) == b.fires(s, k)))
}

/// An arbitrary registered site.
fn sites() -> Gen<Site> {
    one_of(Site::ALL.into_iter().map(prop::just).collect())
}

/// An arbitrary armed plan: 1..=4 `(site, prob)` arms (later arms win on
/// duplicate sites, matching `with_site`) plus an optional pinned seed.
fn armed_plans() -> Gen<FaultPlan> {
    let arms = vec_of(&zip(&sites(), &u8s(1, 255)), 1, 4);
    zip(&arms, &u64s(0, u64::MAX)).map(|(arms, seed)| {
        let mut plan = FaultPlan::unset().with_seed(*seed);
        for (site, prob) in arms {
            plan = plan.with_site(*site, *prob);
        }
        plan
    })
}

/// Any plan the engine can carry: armed, disabled, unset, seed-derived.
fn any_plans() -> Gen<FaultPlan> {
    one_of(vec![
        armed_plans(),
        prop::just(FaultPlan::disabled()),
        prop::just(FaultPlan::unset()),
        u64s(0, u64::MAX).map(|&s| FaultPlan::from_seed(s)),
    ])
}

prop_check!(armed_plans_round_trip_structurally, armed_plans(), |plan| {
    let spec = plan.spec();
    let reparsed =
        FaultPlan::parse(&spec).map_err(|e| format!("spec {spec:?} failed to reparse: {e}"))?;
    // Explicit-site specs carry the full probability table, so the
    // round trip is exact, not just behavioral.
    prop_assert_eq!(plan, &reparsed, "spec {:?} reparsed to a different plan", spec);
    Ok(())
});

prop_check!(render_parse_render_is_identity, any_plans(), |plan| {
    let first = plan.spec();
    let reparsed =
        FaultPlan::parse(&first).map_err(|e| format!("spec {first:?} failed to reparse: {e}"))?;
    prop_assert_eq!(first, reparsed.spec());
    prop_assert!(
        fires_identically(plan, &reparsed),
        "spec {:?}: reparsed plan fires differently",
        first
    );
    Ok(())
});

prop_check!(seed_derived_plans_round_trip, u64s(0, u64::MAX), |&seed| {
    let plan = FaultPlan::from_seed(seed);
    prop_assert_eq!(plan, FaultPlan::from_seed(seed), "from_seed must be deterministic");
    // The spec names each armed site once, after the pinned seed.
    let armed = plan.spec().split(',').filter(|part| !part.starts_with("seed:")).count();
    prop_assert!((1..=2).contains(&armed), "seed {} armed {} sites", seed, armed);
    // A seed-derived plan serializes site-by-site (plus the pinned
    // seed), so its spec reparses to identical firing behavior even
    // though `seed:<n>` alone would re-derive the table.
    let reparsed = FaultPlan::parse(&plan.spec())
        .map_err(|e| format!("spec {:?} failed to reparse: {e}", plan.spec()))?;
    prop_assert!(fires_identically(&plan, &reparsed), "seed {}: firing diverged", seed);
    Ok(())
});

prop_check!(parse_is_whitespace_insensitive, zip(&armed_plans(), &u8s(0, 3)), |(plan, pad)| {
    let spec = plan.spec();
    let padding = " ".repeat(*pad as usize);
    let padded: String = spec
        .split(',')
        .map(|part| format!("{padding}{part}{padding}"))
        .collect::<Vec<_>>()
        .join(",");
    let reparsed = FaultPlan::parse(&padded)
        .map_err(|e| format!("padded spec {padded:?} failed to parse: {e}"))?;
    prop_assert_eq!(plan, &reparsed, "padding changed the parse of {:?}", padded);
    Ok(())
});

prop_check!(
    junk_site_names_are_rejected,
    // No registered site name, `off`, or `seed:` prefix can be built
    // from this pool, so every non-empty draw must be rejected.
    string_of("zqjk7", 1, 16),
    |junk| {
        prop_assert!(FaultPlan::parse(junk).is_err(), "junk spec {:?} parsed successfully", junk);
        Ok(())
    }
);

prop_check!(bad_probabilities_are_rejected, zip(&sites(), &u64s(256, u64::MAX)), |(site, prob)| {
    let spec = format!("{}@{}", site.name(), prob);
    prop_assert!(FaultPlan::parse(&spec).is_err(), "out-of-range {:?} parsed", spec);
    Ok(())
});
