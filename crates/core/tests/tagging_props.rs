//! Differential property of the build's one tagging pass (DESIGN.md §5c):
//! an engine built over generated documents — small chunks that overlap,
//! sentences repeated within and across documents, paragraph breaks that
//! the chunker joins into longer sentences — has the extracted table
//! `TableGenerator::generate_table` makes from the same texts and the graph
//! `GraphBuilder::add_docstore` builds from the same store, node for node
//! and edge for edge, both tagging every sentence themselves. So does a
//! builder reading a table of the documents' sentences only, which lacks
//! every sentence a chunk joined across a paragraph break.

use std::cell::Cell;

use detkit::prop::{check, usizes, vec_of, zip, Gen};
use detkit::{prop_assert, prop_assert_eq};
use unisem_core::{EngineBuilder, EngineConfig, FaultPlan};
use unisem_docstore::DocStore;
use unisem_extract::TableGenerator;
use unisem_hetgraph::GraphBuilder;
use unisem_slm::{EntityKind, Lexicon, Slm, SlmConfig, TagTable};
use unisem_text::sentence::sentence_spans;
use unisem_text::ChunkConfig;

/// Words that trip the tagger's cross-token rules: title cues before a
/// period ("Patient. In"), capitalized runs, lexicon phrases split across
/// words, metric words, verbs, numbers, percents, money, quarters, dates,
/// identifiers and an abbreviation.
const WORDS: &[&str] = &[
    "Blue",
    "prescribed",
    "sales",
    "Patient",
    "In",
    "nova",
    "lamp",
    "Nova",
    "Lamp",
    "and",
    "ember",
    "purifier",
    "Ember",
    "Acme",
    "Corp",
    "Dr.",
    "Q2",
    "2024",
    "12%",
    "$40",
    "rose",
    "fell",
    "the",
    "March",
    "5,",
    "revenue",
    "SKU1023",
    "received",
];

/// What may end a sentence, the empty string included.
const ENDS: &[&str] = &[".", "!", "?", ""];

/// What may separate two sentences of a document.
const BREAKS: &[&str] = &[" ", " ", "\n\n"];

const CHUNKS: ChunkConfig = ChunkConfig { max_tokens: 6, overlap_sentences: 1 };

fn lexicon() -> Lexicon {
    Lexicon::new().with_entries([
        ("Nova Lamp", EntityKind::Product),
        ("Ember Purifier", EntityKind::Product),
        ("Acme Corp", EntityKind::Organization),
    ])
}

/// A pool of up to four sentences and documents written from it: each
/// document a run of (pool index, break) pairs, so sentences repeat.
fn corpora() -> Gen<Vec<String>> {
    let sentence = zip(&vec_of(&usizes(0, WORDS.len() - 1), 1, 7), &usizes(0, ENDS.len() - 1)).map(
        |(words, end)| {
            let words: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
            format!("{}{}", words.join(" "), ENDS[*end])
        },
    );
    let document = vec_of(&zip(&usizes(0, 3), &usizes(0, BREAKS.len() - 1)), 1, 6);
    zip(&vec_of(&sentence, 4, 4), &vec_of(&document, 1, 4)).map(|(pool, documents)| {
        let write = |document: &Vec<(usize, usize)>| {
            let mut text = String::new();
            for (i, &(s, b)) in document.iter().enumerate() {
                if i > 0 {
                    text.push_str(BREAKS[b]);
                }
                text.push_str(&pool[s]);
            }
            text
        };
        documents.iter().map(write).collect()
    })
}

#[test]
fn the_shared_tag_table_changes_no_table_and_no_graph() {
    let missing = Cell::new(0usize);
    check("the_shared_tag_table_changes_no_table_and_no_graph", &corpora(), |texts| {
        let config = EngineConfig {
            chunk: CHUNKS,
            faults: FaultPlan::disabled(),
            ..EngineConfig::default()
        };
        let mut builder = EngineBuilder::with_config(lexicon(), config);
        let mut docs = DocStore::new(CHUNKS);
        for (i, text) in texts.iter().enumerate() {
            builder.add_document(format!("doc {i}"), text.clone(), "junk".to_string());
            docs.add_document(&format!("doc {i}"), text, "junk");
        }
        let engine = builder.build().0;
        let slm = Slm::new(SlmConfig { lexicon: lexicon(), ..SlmConfig::default() });

        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (extracted, _) =
            TableGenerator::new(slm.clone()).generate_table(&texts).expect("tables");
        let want = (!extracted.is_empty()).then_some(&extracted);
        prop_assert_eq!(engine.db().table("extracted").ok(), want);

        let mut alone = GraphBuilder::new(slm.clone());
        alone.add_docstore(&docs);
        let (alone, _) = alone.finish();
        prop_assert_eq!(engine.graph().nodes(), alone.nodes());
        prop_assert_eq!(engine.graph().edges(), alone.edges());

        let sentences = texts.iter().flat_map(|t| sentence_spans(t).into_iter().map(|s| &t[s]));
        let table = TagTable::new(sentences.collect(), |distinct| {
            distinct.iter().map(|&s| slm.tag_sentence(s)).collect()
        });
        let in_table =
            |s: &str| texts.iter().any(|t| sentence_spans(t).iter().any(|r| &t[r.clone()] == s));
        for (i, c) in docs.chunks().iter().enumerate() {
            let spans = docs.sentence_terms().sentences(i);
            missing
                .set(missing.get() + spans.filter(|(s, _)| !in_table(&c.text[s.clone()])).count());
        }
        let mut partial = GraphBuilder::new(slm);
        partial.add_docstore_from(&docs, 0, &table);
        let (partial, _) = partial.finish();
        prop_assert!(partial.nodes() == alone.nodes() && partial.edges() == alone.edges());
        Ok(())
    });
    assert!(missing.get() > 0, "no chunk sentence was missing from a document-sentence table");
}
