//! The one blessed wall-clock read point (clippy's `disallowed_methods`
//! allows no other; DESIGN.md §10).
//!
//! Wall-clock is inherently nondeterministic, so the determinism contract
//! (DESIGN.md §6) quarantines it: durations may only ever flow into the
//! deliberately non-deterministic [`crate::metrics::TimingReport`], never
//! into answer payloads, metrics, or explain traces. Keeping
//! every `Instant::now()` behind this module makes that rule *auditable*:
//! clippy rejects any other clock read in engine code, and tier-1 pins
//! this file as the only one that expects the lint, so a reviewer only
//! has to check where `Stopwatch` values end up.

use std::time::Instant;

/// A started wall-clock timer for stage timings.
///
/// ```
/// let sw = tracekit::wall::Stopwatch::start();
/// // … stage work …
/// let ns: u64 = sw.elapsed_ns(); // TimingReport only — never the payload
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Reads the process clock and starts timing.
    #[expect(clippy::disallowed_methods, reason = "the engine's one clock read")]
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_nonnegative() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
