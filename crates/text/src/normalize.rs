//! Token normalization: case folding, stopwords, and a Porter-style stemmer.
//!
//! The stemmer implements the high-value subset of the Porter algorithm
//! (steps 1a/1b/1c plus the common derivational suffixes) — enough to conflate
//! `purchases`/`purchased`/`purchasing` → `purchas`, which is what retrieval
//! needs, without the long tail of rare rules.

/// English stopwords used across indexing and query analysis.
///
/// The list is intentionally small: over-aggressive stopword removal hurts
/// entity-bearing queries ("IT department", "The Who"). Kept strictly sorted:
/// [`is_stopword`] binary-searches it.
const STOPWORDS: &[&str] = &[
    "a", "about", "after", "all", "an", "and", "any", "are", "as", "at", "be", "been", "before",
    "between", "but", "by", "did", "do", "does", "during", "each", "for", "from", "had", "has",
    "have", "he", "her", "his", "how", "i", "if", "in", "into", "is", "it", "its", "no", "not",
    "of", "on", "or", "our", "over", "per", "she", "so", "such", "than", "that", "the", "their",
    "them", "then", "there", "these", "they", "this", "to", "under", "was", "we", "were", "what",
    "when", "where", "which", "who", "why", "will", "with", "you", "your",
];

/// Returns true when `word` (lower-cased) is an English stopword.
pub fn is_stopword(word: &str) -> bool {
    if word.is_ascii() {
        let lower = || word.bytes().map(|b| b.to_ascii_lowercase());
        STOPWORDS.binary_search_by(|s| s.bytes().cmp(lower())).is_ok()
    } else {
        // Every stopword is ASCII, but a non-ASCII letter can lower-case to
        // an ASCII one (the Kelvin sign to `k`).
        STOPWORDS.binary_search(&word.to_lowercase().as_str()).is_ok()
    }
}

/// Lowercases and stems a token: the canonical index-term form.
pub fn normalize_token(token: &str) -> String {
    stem(&token.to_lowercase())
}

/// Porter-style stemmer (steps 1a, 1b, 1c and common step-2/3/4 suffixes).
///
/// Operates on lower-case ASCII words; non-ASCII input is returned unchanged.
///
/// ```
/// use unisem_text::stem;
/// assert_eq!(stem("purchases"), stem("purchased"));
/// assert_eq!(stem("running"), "run");
/// ```
pub fn stem(word: &str) -> String {
    if word.len() <= 2 || !word.is_ascii() {
        return word.to_string();
    }
    let mut w = word.to_string();

    // Step 1a: plurals.
    if let Some(base) = w.strip_suffix("sses") {
        w = format!("{base}ss");
    } else if let Some(base) = w.strip_suffix("ies") {
        w = format!("{base}i");
    } else if w.ends_with("ss") {
        // keep
    } else if let Some(base) = w.strip_suffix('s') {
        if base.len() > 2 {
            w = base.to_string();
        }
    }

    // Step 1b: -eed, -ed, -ing.
    if let Some(base) = w.strip_suffix("eed") {
        if measure(base) > 0 {
            w = format!("{base}ee");
        }
    } else if let Some(base) = w.strip_suffix("ed") {
        if contains_vowel(base) {
            w = post_1b(base);
        }
    } else if let Some(base) = w.strip_suffix("ing") {
        if contains_vowel(base) {
            w = post_1b(base);
        }
    }

    // Step 1c: terminal y -> i when stem has a vowel.
    if w.ends_with('y') {
        let base = &w[..w.len() - 1];
        if contains_vowel(base) && base.len() > 1 {
            w = format!("{base}i");
        }
    }

    // A selection of step 2–4 derivational suffixes (longest first).
    const SUFFIX_MAP: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("ization", "ize"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("iveness", "ive"),
        ("tional", "tion"),
        ("biliti", "ble"),
        ("entli", "ent"),
        ("ousli", "ous"),
        ("alism", "al"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("ement", ""),
        ("ment", ""),
        ("ance", ""),
        ("ence", ""),
        ("able", ""),
        ("ible", ""),
        ("ant", ""),
        ("ent", ""),
        ("ion", ""),
        ("ful", ""),
        ("er", ""),
        ("ness", ""),
        ("aliti", "al"),
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
    ];
    for (suf, rep) in SUFFIX_MAP {
        if let Some(base) = w.strip_suffix(suf) {
            // Porter: step-2/3 rewrites need m > 0; step-4 deletions m > 1.
            let min_measure = if rep.is_empty() { 1 } else { 0 };
            if measure(base) > min_measure {
                w = format!("{base}{rep}");
                break;
            }
        }
    }

    // Step 5a: drop a final 'e' when the stem is long enough.
    if let Some(base) = w.strip_suffix('e') {
        let m = measure(base);
        if m > 1 || (m == 1 && !ends_cvc(base)) {
            w = base.to_string();
        }
    }
    w
}

/// After removing -ed/-ing: restore 'e' (hop->hope cases), undouble
/// consonants (hopp->hop), per Porter 1b cleanup.
fn post_1b(base: &str) -> String {
    if base.ends_with("at") || base.ends_with("bl") || base.ends_with("iz") {
        return format!("{base}e");
    }
    let bytes = base.as_bytes();
    let n = bytes.len();
    if n >= 2 && bytes[n - 1] == bytes[n - 2] && is_consonant_byte(bytes, n - 1) {
        let last = bytes[n - 1] as char;
        if !matches!(last, 'l' | 's' | 'z') {
            return base[..n - 1].to_string();
        }
    }
    if measure(base) == 1 && ends_cvc(base) {
        return format!("{base}e");
    }
    base.to_string()
}

fn is_vowel_byte(bytes: &[u8], i: usize) -> bool {
    match bytes[i] as char {
        'a' | 'e' | 'i' | 'o' | 'u' => true,
        'y' => i > 0 && !is_vowel_byte(bytes, i - 1),
        _ => false,
    }
}

fn is_consonant_byte(bytes: &[u8], i: usize) -> bool {
    !is_vowel_byte(bytes, i)
}

fn contains_vowel(word: &str) -> bool {
    let bytes = word.as_bytes();
    (0..bytes.len()).any(|i| is_vowel_byte(bytes, i))
}

/// Porter "measure": the number of VC sequences in the word.
fn measure(word: &str) -> usize {
    let bytes = word.as_bytes();
    let mut m = 0;
    let mut prev_vowel = false;
    for i in 0..bytes.len() {
        let v = is_vowel_byte(bytes, i);
        if prev_vowel && !v {
            m += 1;
        }
        prev_vowel = v;
    }
    m
}

/// True for consonant-vowel-consonant ending where the final consonant is
/// not w, x, or y.
fn ends_cvc(word: &str) -> bool {
    let bytes = word.as_bytes();
    let n = bytes.len();
    if n < 3 {
        return false;
    }
    is_consonant_byte(bytes, n - 3)
        && is_vowel_byte(bytes, n - 2)
        && is_consonant_byte(bytes, n - 1)
        && !matches!(bytes[n - 1] as char, 'w' | 'x' | 'y')
}

#[cfg(test)]
mod tests {
    use super::*;
    use detkit::prop::{string_of, unicode_strings, usizes, zip3};

    #[test]
    fn stem_plurals() {
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("cats"), "cat");
        assert_eq!(stem("pass"), "pass");
    }

    #[test]
    fn stem_ed_ing() {
        assert_eq!(stem("plastered"), "plaster");
        assert_eq!(stem("motoring"), "motor");
        assert_eq!(stem("hopping"), "hop");
        assert_eq!(stem("running"), "run");
        assert_eq!(stem("filing"), "file");
    }

    #[test]
    fn conflation_classes() {
        assert_eq!(stem("purchases"), stem("purchased"));
        assert_eq!(stem("purchasing"), stem("purchase"));
        assert_eq!(stem("connected"), stem("connecting"));
        assert_eq!(stem("relational"), stem("relate"));
    }

    #[test]
    fn y_to_i() {
        assert_eq!(stem("happy"), "happi");
        assert_eq!(stem("sky"), "sky"); // no vowel before y
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(stem("be"), "be");
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("go"), "go");
    }

    #[test]
    fn non_ascii_untouched() {
        assert_eq!(stem("naïve"), "naïve");
    }

    #[test]
    fn stopwords_basic() {
        assert!(is_stopword("the"));
        assert!(is_stopword("The"));
        assert!(!is_stopword("sales"));
        assert!(!is_stopword("drug"));
    }

    #[test]
    fn stopwords_are_strictly_sorted() {
        for w in STOPWORDS.windows(2) {
            assert!(w[0] < w[1], "{:?} must sort before {:?}", w[0], w[1]);
        }
        assert!(STOPWORDS.iter().all(|w| w.is_ascii() && *w == w.to_lowercase()));
    }

    /// `is_stopword` as it was: a linear scan for the lower-cased word.
    fn is_stopword_linear(word: &str) -> bool {
        STOPWORDS.contains(&word.to_lowercase().as_str())
    }

    // The binary search agrees with the linear scan on arbitrary text...
    detkit::prop_check!(is_stopword_matches_linear_scan, unicode_strings(0, 8), |s| {
        detkit::prop_assert_eq!(is_stopword(s), is_stopword_linear(s));
        for w in s.split_whitespace() {
            detkit::prop_assert_eq!(is_stopword(w), is_stopword_linear(w));
        }
        Ok(())
    });

    // ...and on every stopword in mixed case, alone (a stopword) and with a
    // letter appended (rarely one: "a" + "s"), including the Kelvin sign,
    // which is not ASCII but lower-cases to `k`.
    detkit::prop_check!(
        is_stopword_matches_linear_scan_near_stopwords,
        zip3(&usizes(0, STOPWORDS.len() - 1), &usizes(0, 255), &string_of("st\u{212a}", 0, 1)),
        |t| {
            let (index, upper_mask, suffix) = t;
            let mut word: String = STOPWORDS[*index]
                .chars()
                .enumerate()
                .map(|(i, c)| if upper_mask >> i & 1 == 1 { c.to_ascii_uppercase() } else { c })
                .collect();
            word.push_str(suffix);
            detkit::prop_assert_eq!(is_stopword(&word), is_stopword_linear(&word), "{word:?}");
            detkit::prop_assert!(!suffix.is_empty() || is_stopword(&word), "{word:?}");
            Ok(())
        }
    );

    #[test]
    fn normalize_combines() {
        assert_eq!(normalize_token("Purchases"), normalize_token("purchased"));
    }

    #[test]
    fn measure_examples() {
        assert_eq!(measure("tr"), 0);
        assert_eq!(measure("tree"), 0);
        assert_eq!(measure("trouble"), 1);
        assert_eq!(measure("troubles"), 2);
    }
}
