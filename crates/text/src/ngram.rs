//! Character n-gram extraction.
//!
//! Character n-grams feed the feature-hashed embeddings in `unisem-slm`.

/// Yields character n-grams of `word` with boundary markers (`^word$`).
///
/// Boundary markers make prefix/suffix information explicit, which improves
/// hashed-embedding quality for short tokens.
///
/// ```
/// use unisem_text::ngram::char_ngrams;
/// let grams = char_ngrams("cat", 3);
/// assert_eq!(grams, vec!["^ca", "cat", "at$"]);
/// ```
pub fn char_ngrams(word: &str, n: usize) -> Vec<String> {
    if n == 0 {
        return Vec::new();
    }
    let padded: Vec<char> =
        std::iter::once('^').chain(word.chars()).chain(std::iter::once('$')).collect();
    if padded.len() < n {
        return vec![padded.iter().collect()];
    }
    padded.windows(n).map(|w| w.iter().collect()).collect()
}

/// Yields all character n-grams for sizes `min..=max`.
pub fn char_ngrams_range(word: &str, min: usize, max: usize) -> Vec<String> {
    (min..=max).flat_map(|n| char_ngrams(word, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigram_boundaries() {
        assert_eq!(char_ngrams("ab", 3), vec!["^ab", "ab$"]);
    }

    #[test]
    fn short_word_single_gram() {
        assert_eq!(char_ngrams("a", 4), vec!["^a$"]);
    }

    #[test]
    fn zero_n_is_empty() {
        assert!(char_ngrams("abc", 0).is_empty());
    }

    #[test]
    fn range_concatenates() {
        let grams = char_ngrams_range("cat", 2, 3);
        assert!(grams.contains(&"^c".to_string()));
        assert!(grams.contains(&"cat".to_string()));
    }

    #[test]
    fn unicode_safe() {
        let grams = char_ngrams("naïve", 3);
        assert!(grams.iter().any(|g| g.contains('ï')));
    }
}
