//! String and vector similarity measures.
//!
//! Used for entity linking (matching query mentions to graph entity nodes)
//! and fuzzy schema alignment.

use std::cell::Cell;

/// Longest input, in comparison units, whose match table fits on the stack.
const INLINE_UNITS: usize = 64;

/// Jaro similarity in `[0, 1]`, comparing bytes when both strings are ASCII
/// (a byte is a character there) and `char`s otherwise.
fn jaro(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        jaro_units(a.as_bytes(), b.as_bytes())
    } else {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        jaro_units(&a, &b)
    }
}

/// Jaro similarity over comparison units. Each unit of `a`, in order, takes
/// the first free equal unit of `b` inside the match window.
fn jaro_units<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // taker[j] = 1 + how many matches were made before b[j] was taken, or 0
    // while b[j] is free. Entity labels and mentions are short, so the
    // table is normally on the stack.
    let mut inline = [0usize; INLINE_UNITS];
    let mut heap = Vec::new();
    let taker: &mut [usize] = if b.len() <= INLINE_UNITS {
        &mut inline[..b.len()]
    } else {
        heap.resize(b.len(), 0);
        &mut heap
    };
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut m = 0usize;
    for (i, ua) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if let Some(j) = (lo..hi).find(|&j| taker[j] == 0 && b[j] == *ua) {
            m += 1;
            taker[j] = m;
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Transpositions: half the matches whose place in `a`'s order differs
    // from their place in `b`'s order.
    let out_of_place =
        taker.iter().filter(|&&t| t != 0).zip(1..).filter(|&(&t, rank)| t != rank).count();
    let t = out_of_place as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity in `[0, 1]`, boosting shared prefixes.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Longest string, in bytes, the common-byte count takes: a count starts at
/// most this high and goes at most this far below zero.
const SHORT: usize = i16::MAX as usize;

/// Slack under the threshold before a bound rejects: the bound and the score
/// are computed with different rounding, each within a few ulps of 1.
const ROUNDING_SLACK: f64 = 1e-9;

/// [`jaro_winkler`] against one fixed string, reporting only scores at or
/// above a threshold.
///
/// Prepared once (a byte count of the fixed string when it is ASCII), it
/// rejects a candidate whose similarity provably cannot reach the threshold
/// before building a match table. Jaro is `(m/|a| + m/|b| + (m − t)/m) / 3`
/// with `m` matches and `t ≤ m` transpositions, so it is at most
/// `(m̂/|a| + m̂/|b| + 1) / 3` for any `m̂ ≥ m`: the shorter char length,
/// then, when both strings are ASCII and the length admits the candidate,
/// their common-byte multiset count.
/// The Winkler boost adds `p · 0.1 · (1 − Jaro)` for the shared prefix
/// `p ≤ 4`, which grows with Jaro, so the bound takes the candidate's own
/// `p` (or more). Every candidate the bound admits is scored by `jaro_winkler`
/// itself, so a reported score is its exact bits.
#[derive(Debug, Clone)]
pub struct JaroWinklerAtLeast<'b> {
    b: &'b str,
    threshold: f64,
    /// `b`'s length in chars.
    b_len: usize,
    /// How often each byte occurs in `b`, when `b` is ASCII and at most
    /// `i16::MAX` bytes long. A common-byte count takes each byte of the
    /// candidate off its entry and then puts it back, so the table is
    /// never copied; between counts it holds `b`'s counts.
    bytes: Option<[Cell<i16>; 128]>,
}

impl<'b> JaroWinklerAtLeast<'b> {
    /// Prepares `b`; [`Self::score`] compares candidates against it.
    pub fn new(b: &'b str, threshold: f64) -> Self {
        let bytes = (b.is_ascii() && b.len() <= SHORT).then(|| {
            let counts = [const { Cell::new(0i16) }; 128];
            for &c in b.as_bytes() {
                let n = &counts[usize::from(c)];
                n.set(n.get() + 1);
            }
            counts
        });
        Self { b, threshold, b_len: b.chars().count(), bytes }
    }

    /// `Some(jaro_winkler(a, b))` when it is at least the threshold, `None`
    /// otherwise.
    pub fn score(&self, a: &str) -> Option<f64> {
        if !self.may_reach(a) {
            return None;
        }
        let s = jaro_winkler(a, self.b);
        (s >= self.threshold).then_some(s)
    }

    /// False when the bound proves `jaro_winkler(a, b)` is below the
    /// threshold; [`Self::score`] compares only the candidates it admits.
    pub fn may_reach(&self, a: &str) -> bool {
        let ascii = a.is_ascii();
        let a_len = if ascii { a.len() } else { a.chars().count() };
        // Equal leading bytes, capped at 4, are at least the equal leading
        // chars that Winkler counts, and cheaper to compare.
        let prefix = a.bytes().zip(self.b.bytes()).take(4).take_while(|(x, y)| x == y).count();
        // Matches never outnumber the shorter string's units; when both
        // are ASCII, nor the bytes the two have in common (a dearer count,
        // taken only if the cheap one admits `a`).
        self.can_reach(a_len, prefix, a_len.min(self.b_len))
            && match &self.bytes {
                Some(counts) if ascii && a.len() <= SHORT => {
                    self.can_reach(a_len, prefix, common_bytes(counts, a.as_bytes()))
                }
                _ => true,
            }
    }

    /// False when no string of `chars` chars can reach the threshold: the
    /// length stage of [`Self::may_reach`] under the largest prefix any
    /// such string could share with `b`. A caller holding candidates
    /// grouped by char length skips a whole group with it; every string
    /// this admits still goes through [`Self::score`].
    pub fn may_reach_length(&self, chars: usize) -> bool {
        let prefix = self.b.len().min(4);
        self.can_reach(chars, prefix, chars.min(self.b_len))
    }

    /// Whether a candidate of `a_len` chars sharing `prefix` leading bytes
    /// with `b` and at most `matches` matches could reach the threshold.
    fn can_reach(&self, a_len: usize, prefix: usize, matches: usize) -> bool {
        if a_len == 0 || self.b_len == 0 {
            // The bound divides by both lengths; `jaro_winkler` answers at
            // once (two empty strings score 1.0, one scores 0.0).
            return true;
        }
        let m = matches as f64;
        let jaro = (m / a_len as f64 + m / self.b_len as f64 + 1.0) / 3.0;
        jaro + prefix as f64 * 0.1 * (1.0 - jaro) + ROUNDING_SLACK >= self.threshold
    }
}

/// How many bytes of `a` a string whose byte counts are `counts` has in
/// common with it, counted as multisets. Both strings are ASCII and at
/// most [`SHORT`] bytes, so no count leaves `i16`. Each byte of `a` is
/// taken off its count (which goes negative once the other string has no
/// more of it) and then put back, leaving `counts` as it was.
fn common_bytes(counts: &[Cell<i16>; 128], a: &[u8]) -> usize {
    let mut common = 0;
    for &c in a {
        let n = &counts[usize::from(c)];
        let left = n.get() - 1;
        n.set(left);
        common += usize::from(left >= 0);
    }
    for &c in a {
        let n = &counts[usize::from(c)];
        n.set(n.get() + 1);
    }
    common
}

/// Cosine similarity between two dense vectors of equal length.
///
/// Returns 0.0 when either vector is all-zero. Panics if lengths differ.
pub fn cosine_dense(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_dense: dimension mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaro_winkler_basics() {
        assert!((jaro_winkler("martha", "marhta") - 0.9611).abs() < 0.001);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("abc", ""), 0.0);
        assert!(jaro_winkler("prefix", "prefixed") > jaro_winkler("prefix", "xiferp"));
    }

    #[test]
    fn cosine_dense_basics() {
        assert!((cosine_dense(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!((cosine_dense(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-9);
        assert_eq!(cosine_dense(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_dense_mismatch_panics() {
        cosine_dense(&[1.0], &[1.0, 2.0]);
    }
}
