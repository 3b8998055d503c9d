//! Differential property of evidence scoring (detkit harness): the engine's
//! path over a store's ingest-time sentence analysis, and the text wrapper
//! that analyses what it is handed, both equal the per-question
//! re-tokenizing form they replaced — text, chunk id, support bits, order.

use std::collections::HashSet;

use detkit::prop::{f64s, one_of, unicode_strings, usizes, vec_of, zip, zip3, Gen};
use detkit::{prop_assert_eq, prop_check};
use unisem_core::evidence::{
    extract_evidence_grounded, extract_stored_evidence, query_terms, EvidenceSentence,
};
use unisem_docstore::DocStore;
use unisem_text::normalize::{lower_into, normalize_into};
use unisem_text::sentence::split_sentences;
use unisem_text::tokenize::{tokenize, TokenKind};
use unisem_text::ChunkConfig;

/// Evidence extraction as it was before sentences were analysed at ingest:
/// every chunk re-split, every sentence re-tokenized into a term set.
fn oracle(
    query: &str,
    chunks: &[(usize, String, f64)],
    max_sentences: usize,
    required_entities: &[String],
) -> Vec<EvidenceSentence> {
    let terms = query_terms(query);
    if terms.is_empty() {
        return Vec::new();
    }
    // Rank-normalize chunk scores into [0.5, 1]: retrieval decides the
    // candidate pool, but *sentence coverage* decides the winner — raw
    // retriever scores vary by orders of magnitude across retrievers and
    // would otherwise drown the coverage signal.
    let max_score = chunks.iter().map(|(_, _, s)| *s).fold(0.0f64, f64::max).max(1e-12);

    // Materialize candidate sentences with their term sets first, so query
    // terms can be IDF-weighted *within the candidate pool*: a term every
    // candidate contains ("sales") cannot discriminate, while a rare one
    // ("q3") pins the right sentence.
    struct Cand {
        text: String,
        chunk_id: usize,
        chunk_score: f64,
        terms: HashSet<String>,
    }
    let mut cands: Vec<Cand> = Vec::new();
    let (mut lower, mut term) = (String::new(), String::new());
    for (chunk_id, text, raw_score) in chunks {
        let chunk_score = 0.5 + 0.5 * raw_score / max_score;
        for sentence in split_sentences(text) {
            if !required_entities.is_empty() {
                lower_into(&sentence, &mut lower);
                if !required_entities.iter().any(|e| lower.contains(e.as_str())) {
                    continue;
                }
            }
            // Every lower-cased word and number, normalized; a term is
            // copied only when it is new to the set.
            let mut terms = HashSet::new();
            for t in tokenize(&sentence).filter(|t| t.kind != TokenKind::Punct) {
                lower_into(t.text, &mut lower);
                normalize_into(&lower, &mut term);
                if !terms.contains(&term) {
                    terms.insert(term.clone());
                }
            }
            cands.push(Cand { text: sentence, chunk_id: *chunk_id, chunk_score, terms });
        }
    }
    let n_cands = cands.len().max(1) as f64;
    // Terms no candidate contains cannot discriminate between candidates;
    // keeping them in the denominator would only flatten all coverages
    // (framing words like "according to the report" rarely appear in
    // evidence verbatim).
    let idf: Vec<(&String, f64)> = terms
        .iter()
        .filter_map(|t| {
            let df = cands.iter().filter(|c| c.terms.contains(t)).count() as f64;
            (df > 0.0).then(|| (t, (1.0 + n_cands / (1.0 + df)).ln()))
        })
        .collect();
    let idf_total: f64 = idf.iter().map(|(_, w)| w).sum::<f64>().max(1e-12);

    let mut out: Vec<EvidenceSentence> = Vec::new();
    for c in cands {
        let covered_weight: f64 =
            idf.iter().filter(|(t, _)| c.terms.contains(t.as_str())).map(|(_, w)| w).sum();
        if covered_weight <= 0.0 {
            continue;
        }
        let coverage = covered_weight / idf_total;
        let length_prior = (c.terms.len().min(30) as f64 / 30.0).max(0.2);
        out.push(EvidenceSentence {
            text: c.text,
            chunk_id: c.chunk_id,
            support: c.chunk_score * coverage * (0.7 + 0.3 * length_prior),
        });
    }
    out.sort_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.chunk_id.cmp(&b.chunk_id))
    });
    out.dedup_by(|a, b| a.text == b.text);
    out.truncate(max_sentences);
    out
}

/// Words that probe the tokenizer, the stemmer and the sentence splitter,
/// stopwords, and letters whose case mapping changes their length.
const WORDS: &[&str] = &[
    "Sales",
    "sales",
    "rose",
    "Alpha",
    "widgets",
    "Q2",
    "q2",
    "2023",
    "12.5",
    "1,234",
    "-15",
    "+3",
    "café",
    "Café",
    "naïve",
    "ΟΔΟΣ",
    "οδος",
    "straße",
    "概念",
    "\u{212a}elvin",
    "İstanbul",
    "don't",
    "cross-modal",
    "Dr",
    "e.g",
    "U.S",
    "J",
    "A",
    "The",
    "no",
    "of",
    "the",
    "increased",
    "increase",
    "report",
    "x",
];

/// What goes between words: spaces, terminators with and without closing
/// quotes and brackets, paragraph breaks and bare joiners.
const SEPS: &[&str] = &[
    " ", " ", " ", ". ", "! ", "? ", ", ", ".\" ", ".' ", ".) ", "\n\n", " \"", "-", "'", ".", "",
];

/// Entities as the parser hands them over: canonical lower-case forms.
const ENTITIES: &[&str] = &["sales", "alpha", "café", "οδος", "q2", "概念", "istanbul", "", "zzz"];

/// The `i`-th of 120 synthetic words: distinct stems, none a stopword,
/// so a question can name more than 64 content terms.
fn synthetic(i: usize) -> String {
    const C: &[u8] = b"bcdfghjkmnpqrtvwxz";
    format!("k{}{}", C[i / C.len()] as char, C[i % C.len()] as char)
}

/// A word: from the pool or synthetic.
fn word(i: usize) -> String {
    WORDS.get(i).map_or_else(|| synthetic(i - WORDS.len()), |w| w.to_string())
}

const N_WORDS: usize = 120;

fn texts() -> Gen<String> {
    let piece = zip(&usizes(0, N_WORDS - 1), &usizes(0, SEPS.len() - 1));
    let pooled = vec_of(&piece, 0, 40)
        .map(|ps| ps.iter().map(|&(w, s)| format!("{}{}", word(w), SEPS[s])).collect());
    one_of(vec![pooled.clone(), pooled, unicode_strings(0, 120)])
}

/// Short questions over the pool, and long ones naming 65 or more
/// distinct content terms.
fn questions() -> Gen<String> {
    let short = vec_of(&usizes(0, N_WORDS - 1), 0, 12)
        .map(|ws| ws.iter().map(|&w| word(w)).collect::<Vec<_>>().join(" "));
    let long = zip(&usizes(65, 84), &vec_of(&usizes(0, N_WORDS - 1), 0, 8)).map(|(n, ws)| {
        let named = (0..*n).map(synthetic).chain(ws.iter().map(|&w| word(w)));
        named.collect::<Vec<_>>().join(" ") + "?"
    });
    one_of(vec![short.clone(), short, long, unicode_strings(0, 40)])
}

fn entities() -> Gen<Vec<String>> {
    let some = vec_of(&usizes(0, ENTITIES.len() - 1), 1, 3)
        .map(|es| es.iter().map(|&e| ENTITIES[e].to_string()).collect());
    one_of(vec![Gen::raw(|_| Vec::new()), some])
}

/// Retrieval hits: chunk ids (some naming no chunk, some repeated) and
/// scores.
fn hits() -> Gen<Vec<(usize, f64)>> {
    vec_of(&zip(&usizes(0, 30), &f64s(0.0, 12.0)), 0, 10)
}

fn same(got: &[EvidenceSentence], want: &[EvidenceSentence]) -> Result<(), String> {
    let key = |e: &[EvidenceSentence]| -> Vec<(String, usize, u64)> {
        e.iter().map(|s| (s.text.clone(), s.chunk_id, s.support.to_bits())).collect()
    };
    prop_assert_eq!(key(got), key(want));
    Ok(())
}

// The engine's path over a generated store equals the oracle over the hit
// chunks' texts, and so does the wrapper over those texts.
prop_check!(
    stored_evidence_matches_oracle,
    zip3(
        &zip3(&vec_of(&texts(), 0, 4), &usizes(1, 24), &usizes(0, 2)),
        &zip3(&questions(), &entities(), &usizes(0, 8)),
        &hits()
    ),
    |t| {
        let ((docs, max_tokens, overlap), (query, entities, max), hits) = t;
        let mut store =
            DocStore::new(ChunkConfig { max_tokens: *max_tokens, overlap_sentences: *overlap });
        for text in docs {
            store.add_document("doc", text.as_str(), "test");
        }
        let triples: Vec<(usize, String, f64)> = hits
            .iter()
            .filter_map(|&(id, score)| store.chunk(id).ok().map(|c| (id, c.text.clone(), score)))
            .collect();
        let want = oracle(query, &triples, *max, entities);
        same(&extract_stored_evidence(query, &store, hits.iter().copied(), *max, entities), &want)?;
        same(&extract_evidence_grounded(query, &triples, *max, entities), &want)
    }
);

// The wrapper equals the oracle on arbitrary texts and ids, repeats included.
prop_check!(
    text_evidence_matches_oracle,
    zip3(
        &vec_of(&zip3(&usizes(0, 4), &texts(), &f64s(0.0, 12.0)), 0, 6),
        &zip(&questions(), &entities()),
        &usizes(0, 8)
    ),
    |t| {
        let (chunks, (query, entities), max) = t;
        let want = oracle(query, chunks, *max, entities);
        same(&extract_evidence_grounded(query, chunks, *max, entities), &want)
    }
);
