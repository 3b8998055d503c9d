//! Repeated texts, found once: what is a pure function of a text — its
//! tokens, its token count — need only be computed for the distinct texts
//! and looked up for the repeats.

/// Maps `texts` onto their distinct values.
///
/// Returns, per input text, its index among the distinct texts, and the
/// distinct texts themselves in first-occurrence order. Each text is compared
/// with the distinct ones seen so far — a scan, which for the ten or so short
/// samples of one question beats hashing them.
///
/// ```
/// use unisem_text::distinct_ids;
/// let (ids, distinct) = distinct_ids(["b", "", "b", "c", "", "b"]);
/// assert_eq!(ids, vec![0, 1, 0, 2, 1, 0]);
/// assert_eq!(distinct, vec!["b", "", "c"]);
/// let (ids, distinct) = distinct_ids(std::iter::empty());
/// assert!(ids.is_empty() && distinct.is_empty());
/// ```
pub fn distinct_ids<'a>(texts: impl IntoIterator<Item = &'a str>) -> (Vec<usize>, Vec<&'a str>) {
    let mut distinct: Vec<&str> = Vec::new();
    let ids = texts
        .into_iter()
        .map(|text| {
            distinct.iter().position(|d| *d == text).unwrap_or_else(|| {
                distinct.push(text);
                distinct.len() - 1
            })
        })
        .collect();
    (ids, distinct)
}
