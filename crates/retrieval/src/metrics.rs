//! Retrieval quality metrics.

use crate::RetrievalResult;

/// Reciprocal rank of the first gold id (0 when absent; 1.0 when `gold`
/// is empty — vacuously satisfied).
pub fn mrr(gold: &[usize], results: &[RetrievalResult]) -> f64 {
    if gold.is_empty() {
        return 1.0;
    }
    results
        .iter()
        .position(|r| gold.contains(&r.chunk_id))
        .map_or(0.0, |pos| 1.0 / (pos + 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(ids: &[usize]) -> Vec<RetrievalResult> {
        ids.iter().map(|&chunk_id| RetrievalResult { chunk_id, score: 1.0 }).collect()
    }

    #[test]
    fn empty_gold_is_vacuous() {
        let r = results(&[1]);
        assert_eq!(mrr(&[], &r), 1.0);
    }

    #[test]
    fn mrr_positions() {
        let r = results(&[8, 3, 1]);
        assert_eq!(mrr(&[8], &r), 1.0);
        assert_eq!(mrr(&[3], &r), 0.5);
        assert!((mrr(&[1], &r) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(mrr(&[99], &r), 0.0);
    }

    #[test]
    fn empty_results() {
        assert_eq!(mrr(&[1], &[]), 0.0);
    }
}
