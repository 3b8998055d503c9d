//! String and vector similarity measures.
//!
//! Used for entity linking (matching query mentions to graph entity nodes)
//! and fuzzy schema alignment.

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
