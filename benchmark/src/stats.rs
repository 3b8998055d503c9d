//! The benchmark's arithmetic: nearest-rank percentiles, the highest
//! percentile a sample supports, median over rounds, and failed share.

/// Samples that must lie beyond a reported tail percentile, so the tail is
/// an order statistic of the run and not one outlier.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[u64], pct: f64) -> Option<u64> {
    assert!(pct > 0.0 && pct <= 100.0, "percentile out of range: {pct}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentile as reported: [`percentile`], refused (`None`) when
/// fewer than [`MIN_BEYOND_TAIL`] samples lie beyond its rank.
pub fn tail_percentile(samples: &[u64], pct: f64) -> Option<u64> {
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    if samples.len().saturating_sub(rank) < MIN_BEYOND_TAIL {
        return None;
    }
    percentile(samples, pct)
}

/// Median of floats (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Median over rounds of `ops ÷ round wall time`, in operations per second.
pub fn median_rate(ops_per_round: usize, round_ns: &[u64]) -> Option<f64> {
    let rates: Vec<f64> =
        round_ns.iter().map(|&ns| ops_per_round as f64 * 1e9 / ns.max(1) as f64).collect();
    median(&rates)
}

/// Failed operations as a share of those attempted (0 when none were).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `num ÷ den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.5), Some(1));
        // Nearest rank rounds up: p50 of four samples is the second.
        assert_eq!(percentile(&[40, 10, 30, 20], 50.0), Some(20));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&s, 99.0), Some(990));
        // 999 samples: rank 990, nine beyond it.
        assert_eq!(tail_percentile(&s[..999], 99.0), None);
        assert_eq!(tail_percentile(&s[..100], 99.0), None);
        assert_eq!(tail_percentile(&s[..100], 90.0), Some(90));
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // 100 ops in 1 s, 0.5 s and 2 s: the median round ran at 100 op/s.
        assert_eq!(median_rate(100, &[1_000_000_000, 500_000_000, 2_000_000_000]), Some(100.0));
        assert_eq!(median_rate(100, &[]), None);
    }

    #[test]
    fn failed_share_counts_against_attempted() {
        assert_eq!(failed_share(0, 1000), 0.0);
        assert_eq!(failed_share(5, 1000), 0.005);
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
