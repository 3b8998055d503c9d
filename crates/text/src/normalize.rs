//! Token normalization: case folding, stopwords, and a Porter-style stemmer.
//!
//! The stemmer implements the high-value subset of the Porter algorithm
//! (steps 1a/1b/1c plus the common derivational suffixes) — enough to conflate
//! `purchases`/`purchased`/`purchasing` → `purchas`, which is what retrieval
//! needs, without the long tail of rare rules.
//!
//! Case folding and stemming each have a form that writes into a caller's
//! `String` ([`lower_into`], [`stem_into`], [`normalize_into`]): a consumer
//! walking many tokens reuses one buffer and owns only the terms it keeps.
//! The owning forms ([`stem`], [`normalize_token`]) wrap them.

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

/// Writes `text` lower-cased into `out`, replacing its contents.
///
/// ASCII text is folded in place in `out`, allocating nothing once `out`
/// has the capacity. Anything else takes `str::to_lowercase`, whose context
/// rules (a word-final `Σ`) a per-character fold would miss.
pub fn lower_into(text: &str, out: &mut String) {
    out.clear();
    if text.is_ascii() {
        out.push_str(text);
        out.make_ascii_lowercase();
    } else {
        out.push_str(&text.to_lowercase());
    }
}

/// Lowercases and stems a token: the canonical index-term form.
pub fn normalize_token(token: &str) -> String {
    let mut out = String::new();
    normalize_into(token, &mut out);
    out
}

/// [`normalize_token`] written into `out`, replacing its contents.
pub fn normalize_into(token: &str, out: &mut String) {
    lower_into(token, out);
    stem_in_place(out);
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
    let mut out = word.to_string();
    stem_in_place(&mut out);
    out
}

/// [`stem`] written into `out`, replacing its contents.
pub fn stem_into(word: &str, out: &mut String) {
    out.clear();
    out.push_str(word);
    stem_in_place(out);
}

/// The stemmer proper: every step truncates `w` or appends an ASCII suffix,
/// so a stem never allocates beyond `w`'s own growth.
fn stem_in_place(w: &mut String) {
    if w.len() <= 2 || !w.is_ascii() {
        return;
    }

    // Step 1a: plurals (-sses -> -ss, -ies -> -i, -s dropped).
    if w.ends_with("sses") || w.ends_with("ies") {
        w.truncate(w.len() - 2);
    } else if w.ends_with("ss") {
        // keep
    } else if w.ends_with('s') && w.len() - 1 > 2 {
        w.pop();
    }

    // Step 1b: -eed, -ed, -ing.
    if w.ends_with("eed") {
        if measure(&w[..w.len() - 3]) > 0 {
            w.pop();
        }
    } else if w.ends_with("ed") {
        if contains_vowel(&w[..w.len() - 2]) {
            w.truncate(w.len() - 2);
            post_1b(w);
        }
    } else if w.ends_with("ing") && contains_vowel(&w[..w.len() - 3]) {
        w.truncate(w.len() - 3);
        post_1b(w);
    }

    // Step 1c: terminal y -> i when stem has a vowel.
    if w.ends_with('y') {
        let base = &w[..w.len() - 1];
        if contains_vowel(base) && base.len() > 1 {
            w.pop();
            w.push('i');
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
        if w.ends_with(suf) {
            let base = w.len() - suf.len();
            // Porter: step-2/3 rewrites need m > 0; step-4 deletions m > 1.
            let min_measure = if rep.is_empty() { 1 } else { 0 };
            if measure(&w[..base]) > min_measure {
                w.truncate(base);
                w.push_str(rep);
                break;
            }
        }
    }

    // Step 5a: drop a final 'e' when the stem is long enough.
    if w.ends_with('e') {
        let base = &w[..w.len() - 1];
        let m = measure(base);
        if m > 1 || (m == 1 && !ends_cvc(base)) {
            w.pop();
        }
    }
}

/// After removing -ed/-ing from `w`: restore 'e' (hop->hope cases),
/// undouble consonants (hopp->hop), per Porter 1b cleanup.
fn post_1b(w: &mut String) {
    if w.ends_with("at") || w.ends_with("bl") || w.ends_with("iz") {
        w.push('e');
        return;
    }
    let bytes = w.as_bytes();
    let n = bytes.len();
    if n >= 2 && bytes[n - 1] == bytes[n - 2] && is_consonant_byte(bytes, n - 1) {
        let last = bytes[n - 1] as char;
        if !matches!(last, 'l' | 's' | 'z') {
            w.pop();
            return;
        }
    }
    if measure(w) == 1 && ends_cvc(w) {
        w.push('e');
    }
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
    use detkit::prop::{one_of, string_of, unicode_strings, usizes, vec_of, zip, zip3, Gen};

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

    /// The stemmer as it was: a fresh `String` per rewrite step.
    fn stem_reference(word: &str) -> String {
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
                w = post_1b_reference(base);
            }
        } else if let Some(base) = w.strip_suffix("ing") {
            if contains_vowel(base) {
                w = post_1b_reference(base);
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
    fn post_1b_reference(base: &str) -> String {
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

    /// Words mostly made of the suffixes the stemmer rewrites.
    fn stemmable() -> Gen<String> {
        const PIECES: &[&str] = &[
            "sses", "ies", "ss", "s", "eed", "ed", "ing", "y", "ational", "ization", "fulness",
            "ousness", "iveness", "tional", "biliti", "entli", "ousli", "alism", "aliti", "iviti",
            "ement", "ment", "ance", "ence", "able", "ible", "ant", "ent", "ion", "ful", "er",
            "ness", "icate", "ative", "alize", "iciti", "ical", "e", "at", "bl", "iz", "hop",
        ];
        let piece = one_of(vec![
            string_of("aeiouybcdglmnprstz", 1, 3),
            usizes(0, PIECES.len() - 1).map(|&i| PIECES[i].to_string()),
        ]);
        vec_of(&piece, 0, 5).map(|ps| ps.concat())
    }

    // The buffer forms equal the owned ones: `lower_into` is `to_lowercase`,
    // whatever the buffer held before.
    detkit::prop_check!(
        buffer_lower_matches_to_lowercase,
        zip(&string_of("aZK\u{212a}\u{130}\u{df}\u{c9}\u{3a3} 9-", 0, 24), &unicode_strings(0, 8)),
        |p| {
            let (text, stale) = p;
            let mut out = stale.clone();
            lower_into(text, &mut out);
            detkit::prop_assert_eq!(&out, &text.to_lowercase());
            Ok(())
        }
    );

    // `stem_into` and `normalize_into` equal the stemmer they replaced.
    detkit::prop_check!(
        buffer_stem_matches_owned_stem,
        zip(&stemmable(), &unicode_strings(0, 8)),
        |p| {
            let (word, stale) = p;
            let mut out = stale.clone();
            stem_into(word, &mut out);
            detkit::prop_assert_eq!(&out, &stem_reference(word), "{word:?}");
            detkit::prop_assert_eq!(stem(word), stem_reference(word));
            let upper = word.to_uppercase() + "\u{212a}";
            for token in [word.as_str(), &upper, "\u{130}NG", "\u{c9}S"] {
                normalize_into(token, &mut out);
                detkit::prop_assert_eq!(&out, &stem_reference(&token.to_lowercase()), "{token:?}");
            }
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
