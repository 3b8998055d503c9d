//! The deterministic log-linear bucket layout (DESIGN.md §14) of the
//! capped histograms inside [`crate::metrics::MetricsRegistry`]: values
//! `0..8` get an exact bucket each, and every octave above is split into
//! four linear sub-buckets (HDR-style), so relative bucket error is bounded
//! by 25% at any magnitude while the layout stays a pure function of the
//! value — no configuration, no floating point, no allocation-order
//! dependence.

/// Sub-buckets per octave above the exact range (a power of two).
const SUBS: usize = 4;
/// Values below this get one exact bucket each (`2 * SUBS`).
const EXACT: u64 = 8;
/// Total buckets: 8 exact + 4 sub-buckets for each octave `2^3..=2^63`.
pub const NUM_BUCKETS: usize = EXACT as usize + (64 - 3) * SUBS;

/// Bucket index for a value; total over all of `u64`.
pub const fn bucket_index(value: u64) -> usize {
    if value < EXACT {
        value as usize
    } else {
        // floor(log2(value)) >= 3; the two bits below the leading bit pick
        // the linear sub-bucket within the octave.
        let k = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (k - 2)) & 3) as usize;
        EXACT as usize + (k - 3) * SUBS + sub
    }
}

/// Smallest value that lands in bucket `index`.
pub fn bucket_lower(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index out of range: {index}");
    if index < EXACT as usize {
        index as u64
    } else {
        let k = 3 + (index - EXACT as usize) / SUBS;
        let sub = ((index - EXACT as usize) % SUBS) as u64;
        (1u64 << k) + sub * (1u64 << (k - 2))
    }
}

/// Largest value that lands in bucket `index` (inclusive).
pub fn bucket_upper(index: usize) -> u64 {
    if index < EXACT as usize {
        index as u64
    } else {
        let k = 3 + (index - EXACT as usize) / SUBS;
        // width - 1 first: the top bucket's lower + width would overflow.
        bucket_lower(index) + ((1u64 << (k - 2)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..8u64 {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_upper(i), v);
        }
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        // Every bucket starts exactly one past the previous bucket's end.
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "gap at bucket {i}");
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn index_and_bounds_agree() {
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            13,
            15,
            16,
            19,
            20,
            100,
            1_000,
            65_535,
            65_536,
            1_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in probes {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "value {v} bucket {i}");
        }
        // Relative bucket width is bounded: width <= lower/4 above EXACT.
        for i in EXACT as usize..NUM_BUCKETS {
            let width = bucket_upper(i) - bucket_lower(i) + 1;
            assert!(width * 4 <= bucket_lower(i), "bucket {i} too wide");
        }
    }
}
