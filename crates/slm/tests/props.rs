//! Property-based tests: SLM substrate invariants (detkit harness).

use detkit::prop::{
    f64s, one_of, string_of, u64s, unicode_strings, usizes, vec_of, zip, zip3, Gen,
};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_slm::ner::canonical_phrase_into;
use unisem_slm::tokenizer::{MAX_PIECE_CHARS, SUFFIXES};
use unisem_slm::{
    count_tokens, template_of, word_pieces, EntityKind, GenConfig, Generator, Lexicon, NerTagger,
    SupportedAnswer, TEMPLATES,
};
use unisem_text::tokenize::{tokenize, TokenKind};

const ALPHA: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Splits a word into its subword pieces, materialized: the form
/// `count_tokens` counted before it became arithmetic.
fn subword_tokenize(word: &str) -> Vec<String> {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() <= MAX_PIECE_CHARS {
        return vec![word.to_string()];
    }
    // Peel one known suffix if present and the stem stays non-trivial.
    for suf in SUFFIXES {
        if word.len() > suf.len() + 2 {
            if let Some(stem) = word.strip_suffix(suf) {
                let mut pieces = subword_tokenize(stem);
                pieces.push((*suf).to_string());
                return pieces;
            }
        }
    }
    // Otherwise split into fixed-width pieces.
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let end = (i + MAX_PIECE_CHARS).min(chars.len());
        pieces.push(chars[i..end].iter().collect());
        i = end;
    }
    pieces
}

// Subword pieces concatenate back to the word.
prop_check!(subword_roundtrip, string_of(ALPHA, 1, 30), |w| {
    prop_assert_eq!(subword_tokenize(w).concat(), *w);
    Ok(())
});

/// Text whose words end in the peeled suffixes, stacked, among letters that
/// fold awkwardly (Kelvin sign, `İ`, `ß`, `É`), numbers and punctuation.
fn suffixed_text() -> Gen<String> {
    let piece = one_of(vec![
        string_of("ab\u{212a}\u{130}\u{df}\u{c9}", 1, 9),
        usizes(0, SUFFIXES.len() - 1).map(|&i| SUFFIXES[i].to_string()),
        string_of(" -'.,09%", 1, 1),
    ]);
    vec_of(&piece, 0, 16).map(|ps| ps.concat())
}

// The meter's count is the materialized split's length, token by token.
prop_check!(count_tokens_matches_subword_pieces, suffixed_text(), |text| {
    let mut want = 0;
    for t in tokenize(text) {
        if t.kind == TokenKind::Word {
            let pieces = subword_tokenize(t.text).len();
            prop_assert_eq!(word_pieces(t.text), pieces, "{:?}", t.text);
            want += pieces;
        } else {
            want += 1;
        }
    }
    prop_assert_eq!(count_tokens(text), want, "{text:?}");
    Ok(())
});

/// Cores that probe a template's edges: empty and blank, a leading sign, a
/// number, word or joiner left open at the end, non-ASCII, and cores that
/// are themselves template text.
const BOUNDARY_CORES: &[&str] = &[
    "",
    " ",
    " \t\u{a0}",
    "-15",
    "+3",
    "sales rose 42",
    "3.",
    "1,",
    "x-",
    "it'",
    "naïve 概念 \u{212a}elvin",
    "The answer is 42.",
    "42 according to the records.",
    "From the available evidence:",
];

/// Arbitrary Unicode cores, strung together from boundary cores and runs of
/// joiners, signs, digits and letters.
fn arb_core() -> Gen<String> {
    let piece = one_of(vec![
        usizes(0, BOUNDARY_CORES.len() - 1).map(|&i| BOUNDARY_CORES[i].to_string()),
        unicode_strings(0, 8),
        string_of(" -+.,'x9\u{e9}", 1, 4),
    ]);
    vec_of(&piece, 0, 3).map(|ps| ps.concat())
}

/// The tokens of `piece` as (text, kind, start, end), offsets moved by `by`.
fn tokens_at(piece: &str, by: usize) -> impl Iterator<Item = (&str, TokenKind, usize, usize)> {
    tokenize(piece).map(move |t| (t.text, t.kind, t.start + by, t.end + by))
}

// A template's prefix and suffix tokenize apart from any core: the wrapped
// text's tokens are the prefix's, the core's and the suffix's, offsets
// shifted; so its token count is theirs summed, the core's plus the
// template's; and the text is recognised as that template around that core.
prop_check!(templates_tokenize_apart_from_their_core, arb_core(), |core| {
    let generator = Generator::new(0);
    for (t, &(prefix, suffix)) in TEMPLATES.iter().enumerate() {
        let text = format!("{prefix}{core}{suffix}");
        let want: Vec<_> = tokens_at(prefix, 0)
            .chain(tokens_at(core, prefix.len()))
            .chain(tokens_at(suffix, prefix.len() + core.len()))
            .collect();
        prop_assert_eq!(tokens_at(&text, 0).collect::<Vec<_>>(), want, "{text:?}");
        let count = count_tokens(&text);
        prop_assert_eq!(count, count_tokens(prefix) + count_tokens(core) + count_tokens(suffix));
        prop_assert_eq!(count, count_tokens(core) + generator.template_tokens(t), "{text:?}");
        prop_assert_eq!(template_of(&text, core), Some(t), "{text:?}");
    }
    Ok(())
});

// The tagger's buffered phrase canonicalization equals the owned one it
// replaced: the words joined, then lower-cased as one string (a final `Σ`
// folds by its context), over whatever the buffer held.
prop_check!(
    canonical_phrase_matches_owned_join,
    zip(&string_of("aZ\u{212a}\u{130}\u{df}\u{c9}\u{3a3} \t", 0, 24), &string_of("xy", 0, 4)),
    |p| {
        let (text, stale) = p;
        let mut out = stale.clone();
        canonical_phrase_into(text, &mut out);
        let want = text.split_whitespace().collect::<Vec<_>>().join(" ").to_lowercase();
        prop_assert_eq!(&out, &want, "{text:?}");
        Ok(())
    }
);

// Token counting is monotone under concatenation.
prop_check!(
    token_count_superadditive,
    zip(
        &string_of("abcdefghijklm nopqrstuvwxyz ", 0, 40),
        &string_of("abcdefghijklm nopqrstuvwxyz ", 0, 40),
    ),
    |t| {
        let (a, b) = t;
        let joined = format!("{a} {b}");
        prop_assert!(count_tokens(&joined) >= count_tokens(a));
        prop_assert!(count_tokens(&joined) >= count_tokens(b));
        Ok(())
    }
);

// NER mentions are sorted, non-overlapping, and slice the source.
prop_check!(
    ner_mentions_well_formed,
    string_of("abcdefgh DrugA ProductAlpha 0123456789 .,%$", 0, 120),
    |text| {
        let tagger =
            NerTagger::new(Lexicon::new().with_entries([
                ("Drug A", EntityKind::Drug),
                ("Product Alpha", EntityKind::Product),
            ]));
        let mentions = tagger.tag(text);
        for m in &mentions {
            prop_assert_eq!(&text[m.start..m.end], m.text.as_str());
            prop_assert!((0.0..=1.0).contains(&m.confidence));
        }
        for w in mentions.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
        Ok(())
    }
);

// Generation is deterministic in (seed, query, config) and sample count
// is honored.
prop_check!(
    generation_deterministic,
    zip3(&u64s(0, u64::MAX), &usizes(1, 11), &f64s(0.0, 3.0)),
    |t| {
        let &(seed, n, temp) = t;
        let evidence = vec![
            SupportedAnswer::new("alpha outcome", 2.0),
            SupportedAnswer::new("beta outcome", 1.0),
        ];
        let cfg = GenConfig { n_samples: n, temperature: temp, ..GenConfig::default() };
        let a = Generator::new(seed).sample("q", &evidence, &cfg);
        let b = Generator::new(seed).sample("q", &evidence, &cfg);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), n);
        for g in &a {
            prop_assert!(g.log_prob <= 0.0);
            prop_assert!(g.text.contains(&g.core));
        }
        Ok(())
    }
);

// Samples always come from the candidate set (evidence or the fixed
// hallucination pool) — the generator never fabricates novel strings.
prop_check!(samples_from_candidates, zip(&u64s(0, u64::MAX), &f64s(0.0, 2.0)), |t| {
    let &(seed, support) = t;
    let evidence = vec![SupportedAnswer::new("grounded answer", support)];
    let cfg = GenConfig { n_samples: 8, paraphrase: false, ..GenConfig::default() };
    let gens = Generator::new(seed).sample("q", &evidence, &cfg);
    for g in gens {
        let from_evidence = g.core == "grounded answer";
        let from_pool = g.source_index.is_none();
        prop_assert!(from_evidence || from_pool);
    }
    Ok(())
});
