//! Named entity recognition: the "lightweight SLM-based tagging" of §III.A.
//!
//! The tagger combines three evidence sources, in priority order:
//!
//! 1. **Lexicon matches** — longest-match lookup of domain phrases
//!    (products, drugs, people…) injected at construction. This models the
//!    world knowledge a trained SLM carries in its weights.
//! 2. **Pattern rules** — quarters (`Q2 2024`), percentages, money, dates,
//!    alphanumeric identifiers, and a closed list of business/clinical
//!    metric words.
//! 3. **Capitalization heuristics** — consecutive capitalized words with
//!    title/suffix cues (`Dr. X` → person, `… Corp` → organization).
//!
//! Overlapping candidates are resolved by source priority, then span length.

#[expect(clippy::disallowed_types, reason = "the lexicon's phrase table, below")]
use std::collections::{BTreeMap, HashMap};

use unisem_text::tokenize::{tokenize, Token, TokenKind};

/// Semantic class of a recognized entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// A person (patient, customer, author…).
    Person,
    /// A company, lab, hospital, or other organization.
    Organization,
    /// A commercial product.
    Product,
    /// A pharmaceutical drug.
    Drug,
    /// A medical condition or symptom.
    Condition,
    /// A geographic location.
    Location,
    /// A calendar date or year.
    Date,
    /// A fiscal quarter, optionally with year ("Q2 2024").
    Quarter,
    /// A percentage value.
    Percent,
    /// A monetary amount.
    Money,
    /// A bare numeric quantity.
    Quantity,
    /// A measured business/clinical metric word ("sales", "efficacy"…).
    Metric,
    /// An alphanumeric identifier ("SKU-1023", "P88").
    Identifier,
    /// A category/segment label ("electronics", "cardiology"…).
    Category,
    /// Recognized as an entity but of unknown class.
    Other,
}

impl EntityKind {
    /// Stable lowercase label, used in graph node keys and reports.
    pub fn label(self) -> &'static str {
        match self {
            EntityKind::Person => "person",
            EntityKind::Organization => "organization",
            EntityKind::Product => "product",
            EntityKind::Drug => "drug",
            EntityKind::Condition => "condition",
            EntityKind::Location => "location",
            EntityKind::Date => "date",
            EntityKind::Quarter => "quarter",
            EntityKind::Percent => "percent",
            EntityKind::Money => "money",
            EntityKind::Quantity => "quantity",
            EntityKind::Metric => "metric",
            EntityKind::Identifier => "identifier",
            EntityKind::Category => "category",
            EntityKind::Other => "other",
        }
    }

    /// Parses a [`Self::label`] back into a kind (snapshot decoding).
    pub fn from_label(label: &str) -> Option<EntityKind> {
        match label {
            "person" => Some(EntityKind::Person),
            "organization" => Some(EntityKind::Organization),
            "product" => Some(EntityKind::Product),
            "drug" => Some(EntityKind::Drug),
            "condition" => Some(EntityKind::Condition),
            "location" => Some(EntityKind::Location),
            "date" => Some(EntityKind::Date),
            "quarter" => Some(EntityKind::Quarter),
            "percent" => Some(EntityKind::Percent),
            "money" => Some(EntityKind::Money),
            "quantity" => Some(EntityKind::Quantity),
            "metric" => Some(EntityKind::Metric),
            "identifier" => Some(EntityKind::Identifier),
            "category" => Some(EntityKind::Category),
            "other" => Some(EntityKind::Other),
            _ => None,
        }
    }

    /// True for kinds that denote *values* (numbers, dates) rather than
    /// referential entities; value kinds never become retrieval anchors.
    pub fn is_value(self) -> bool {
        matches!(
            self,
            EntityKind::Percent
                | EntityKind::Money
                | EntityKind::Quantity
                | EntityKind::Date
                | EntityKind::Quarter
        )
    }

    /// True for kinds that locate something in the graph: neither a value
    /// nor a metric ("sales", "rating" — a predicate over whatever entity a
    /// question names, and the highest-degree hub of all). Only these
    /// become anchors by linking.
    pub fn is_referential(self) -> bool {
        !self.is_value() && self != EntityKind::Metric
    }
}

/// A recognized entity mention with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityMention {
    /// Mention text exactly as in the source.
    pub text: String,
    /// Entity class.
    pub kind: EntityKind,
    /// Byte offset of the mention start.
    pub start: usize,
    /// Byte offset one past the mention end.
    pub end: usize,
    /// Tagger confidence in `[0, 1]`.
    pub confidence: f64,
}

impl EntityMention {
    /// Canonical form: lowercase, whitespace-collapsed.
    pub fn canonical(&self) -> String {
        canonical_phrase(&self.text)
    }
}

/// Canonicalizes an entity phrase: lowercase, collapse whitespace.
pub fn canonical_phrase(s: &str) -> String {
    // Sized for `s`, so an ASCII phrase canonicalizes in one allocation.
    let mut out = String::with_capacity(s.len());
    canonical_phrase_into(s, &mut out);
    out
}

/// [`canonical_phrase`] written into `out`, replacing its contents: the
/// words joined by single spaces, then lower-cased as one string.
pub fn canonical_phrase_into(s: &str, out: &mut String) {
    out.clear();
    for (i, word) in s.split_whitespace().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(word);
    }
    if out.is_ascii() {
        out.make_ascii_lowercase();
    } else {
        *out = out.to_lowercase();
    }
}

/// Domain lexicon: phrase → entity kind.
///
/// Models the in-weights world knowledge of a trained SLM. Workload
/// generators register their entity inventories here.
#[derive(Debug, Clone, Default)]
#[expect(clippy::disallowed_types, reason = "lookup-only: probed by key; entries() sorts first")]
pub struct Lexicon {
    phrases: HashMap<String, EntityKind>,
    max_words: usize,
}

impl Lexicon {
    /// Creates an empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one phrase (case-insensitive).
    pub fn add(&mut self, phrase: &str, kind: EntityKind) {
        let canon = canonical_phrase(phrase);
        if canon.is_empty() {
            return;
        }
        let words = canon.split(' ').count();
        self.max_words = self.max_words.max(words);
        self.phrases.insert(canon, kind);
    }

    /// Builder-style bulk insertion.
    pub fn with_entries<'a, I: IntoIterator<Item = (&'a str, EntityKind)>>(
        mut self,
        entries: I,
    ) -> Self {
        for (p, k) in entries {
            self.add(p, k);
        }
        self
    }

    /// Looks up a canonical phrase.
    pub fn get(&self, canonical: &str) -> Option<EntityKind> {
        self.phrases.get(canonical).copied()
    }

    /// Every `(canonical phrase, kind)` pair in sorted phrase order —
    /// the deterministic form the snapshot layer persists.
    pub fn entries(&self) -> Vec<(String, EntityKind)> {
        self.phrases
            .iter()
            .map(|(p, k)| (p.clone(), *k))
            .collect::<BTreeMap<_, _>>()
            .into_iter()
            .collect()
    }

    /// Number of phrases.
    pub fn len(&self) -> usize {
        self.phrases.len()
    }

    /// True when the lexicon has no phrases.
    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty()
    }

    /// Longest phrase length in words (0 when empty).
    pub fn max_words(&self) -> usize {
        self.max_words
    }
}

/// Metric words recognized by the pattern layer.
const METRIC_WORDS: &[&str] = &[
    "sales",
    "revenue",
    "profit",
    "price",
    "cost",
    "rating",
    "ratings",
    "satisfaction",
    "efficacy",
    "dosage",
    "dose",
    "units",
    "demand",
    "returns",
    "margin",
    "growth",
    "discount",
    "inventory",
    "stock",
    "amount",
    "spend",
    "spending",
];

/// Month names for date detection.
const MONTHS: &[&str] = &[
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

/// Person-title cues preceding a capitalized word.
const PERSON_TITLES: &[&str] = &["dr", "mr", "mrs", "ms", "prof", "patient", "customer", "nurse"];

/// Organization suffix cues.
const ORG_SUFFIXES: &[&str] =
    &["inc", "corp", "ltd", "labs", "gmbh", "llc", "co", "group", "hospital", "clinic"];

/// The tagger. Cheap to clone if the lexicon is shared upstream.
#[derive(Debug, Clone, Default)]
pub struct NerTagger {
    lexicon: Lexicon,
}

/// Internal candidate with priority for overlap resolution.
struct Candidate {
    mention: EntityMention,
    priority: u8, // higher wins
}

impl NerTagger {
    /// Creates a tagger over the given lexicon.
    pub fn new(lexicon: Lexicon) -> Self {
        Self { lexicon }
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Tags all entity mentions in `text`.
    ///
    /// Mentions are returned sorted by start offset and never overlap.
    pub fn tag(&self, text: &str) -> Vec<EntityMention> {
        let tokens: Vec<Token> = tokenize(text).collect();
        self.tag_tokens(text, &tokens)
    }

    /// [`Self::tag`] over `tokens`, which are `text`'s.
    pub fn tag_tokens(&self, text: &str, tokens: &[Token]) -> Vec<EntityMention> {
        let mut candidates: Vec<Candidate> = Vec::new();
        // One scratch buffer for every case fold and phrase below: only a
        // mention's own text is ever owned.
        let mut scratch = String::new();
        self.lexicon_matches(text, tokens, &mut scratch, &mut candidates);
        self.pattern_matches(text, tokens, &mut scratch, &mut candidates);
        self.capitalization_matches(text, tokens, &mut scratch, &mut candidates);
        resolve_overlaps(candidates)
    }

    /// Longest-match lexicon lookup over token windows.
    fn lexicon_matches(
        &self,
        text: &str,
        tokens: &[Token],
        phrase: &mut String,
        out: &mut Vec<Candidate>,
    ) {
        if self.lexicon.is_empty() {
            return;
        }
        let max_w = self.lexicon.max_words().max(1);
        let n = tokens.len();
        let mut i = 0;
        while i < n {
            if tokens[i].kind == TokenKind::Punct {
                i += 1;
                continue;
            }
            let mut best: Option<(usize, EntityKind)> = None; // (end_token_exclusive, kind)
            for w in 1..=max_w.min(n - i) {
                let span = &tokens[i..i + w];
                if span.iter().any(|t| t.kind == TokenKind::Punct) {
                    break;
                }
                canonical_phrase_into(&text[span[0].start..span[w - 1].end], phrase);
                if let Some(kind) = self.lexicon.get(phrase) {
                    best = Some((i + w, kind));
                }
            }
            if let Some((end, kind)) = best {
                let start = tokens[i].start;
                let stop = tokens[end - 1].end;
                out.push(Candidate {
                    mention: EntityMention {
                        text: text[start..stop].to_string(),
                        kind,
                        start,
                        end: stop,
                        confidence: 0.95,
                    },
                    priority: 3,
                });
                i = end;
            } else {
                i += 1;
            }
        }
    }

    /// Rule patterns: quarters, percents, money, dates, ids, metrics.
    fn pattern_matches(
        &self,
        text: &str,
        tokens: &[Token],
        lower: &mut String,
        out: &mut Vec<Candidate>,
    ) {
        let n = tokens.len();
        let mut push = |start: usize, end: usize, kind: EntityKind, conf: f64| {
            out.push(Candidate {
                mention: EntityMention {
                    text: text[start..end].to_string(),
                    kind,
                    start,
                    end,
                    confidence: conf,
                },
                priority: 2,
            });
        };
        for i in 0..n {
            let t = &tokens[i];
            match t.kind {
                TokenKind::Word => {
                    t.lower_into(lower);
                    // Quarter: Q1..Q4, optionally followed by a year.
                    if lower.len() == 2
                        && lower.starts_with('q')
                        && matches!(&lower[1..], "1" | "2" | "3" | "4")
                    {
                        let mut end = t.end;
                        if i + 1 < n && is_year(&tokens[i + 1]) {
                            end = tokens[i + 1].end;
                        }
                        push(t.start, end, EntityKind::Quarter, 0.9);
                        continue;
                    }
                    // Month-name dates: "March 5, 2024" / "March 2024" / "March".
                    if MONTHS.contains(&lower.as_str()) {
                        let mut end = t.end;
                        let mut j = i + 1;
                        if j < n && tokens[j].kind == TokenKind::Number {
                            end = tokens[j].end;
                            j += 1;
                            if j + 1 < n
                                && tokens[j].text == ","
                                && tokens[j + 1].kind == TokenKind::Number
                            {
                                end = tokens[j + 1].end;
                            }
                        }
                        push(t.start, end, EntityKind::Date, 0.85);
                        continue;
                    }
                    // Metric words.
                    if METRIC_WORDS.contains(&lower.as_str()) {
                        push(t.start, t.end, EntityKind::Metric, 0.8);
                        continue;
                    }
                    // Alphanumeric identifier: mixed letters+digits (Q2
                    // handled above), e.g. "SKU1023", "P-88".
                    let has_digit = t.text.chars().any(|c| c.is_ascii_digit());
                    let has_alpha = t.text.chars().any(|c| c.is_alphabetic());
                    if has_digit && has_alpha && t.text.len() >= 3 {
                        push(t.start, t.end, EntityKind::Identifier, 0.75);
                    }
                }
                TokenKind::Number => {
                    // Percent: number followed by '%' or "percent".
                    if i + 1 < n
                        && (tokens[i + 1].text == "%"
                            || lower_is(&tokens[i + 1], &["percent", "pct"], lower))
                    {
                        push(t.start, tokens[i + 1].end, EntityKind::Percent, 0.95);
                        continue;
                    }
                    // Money: '$' before, or currency word after.
                    if i > 0 && tokens[i - 1].text == "$" {
                        push(tokens[i - 1].start, t.end, EntityKind::Money, 0.95);
                        continue;
                    }
                    if i + 1 < n && lower_is(&tokens[i + 1], &["dollars", "usd", "eur"], lower) {
                        push(t.start, tokens[i + 1].end, EntityKind::Money, 0.9);
                        continue;
                    }
                    // ISO-ish date: NNNN-NN-NN tokenizes as number,punct,...
                    if is_year(t) {
                        if i + 4 < n
                            && tokens[i + 1].text == "-"
                            && tokens[i + 2].kind == TokenKind::Number
                            && tokens[i + 3].text == "-"
                            && tokens[i + 4].kind == TokenKind::Number
                        {
                            push(t.start, tokens[i + 4].end, EntityKind::Date, 0.95);
                        } else {
                            push(t.start, t.end, EntityKind::Date, 0.6);
                        }
                        continue;
                    }
                    // Bare quantity.
                    push(t.start, t.end, EntityKind::Quantity, 0.5);
                }
                TokenKind::Punct => {}
            }
        }
    }

    /// Capitalized-run heuristics with title/suffix cues.
    fn capitalization_matches(
        &self,
        text: &str,
        tokens: &[Token],
        lower: &mut String,
        out: &mut Vec<Candidate>,
    ) {
        let n = tokens.len();
        let mut i = 0;
        while i < n {
            let t = &tokens[i];
            let sentence_initial =
                i == 0 || matches!(tokens[i - 1].text, "." | "!" | "?" | ":" | ";");
            if t.kind == TokenKind::Word && t.is_capitalized() && !t.is_acronym() {
                // Extend over consecutive capitalized words.
                let mut j = i + 1;
                while j < n && tokens[j].kind == TokenKind::Word && tokens[j].is_capitalized() {
                    j += 1;
                }
                let run_len = j - i;
                // Skip a single sentence-initial capitalized word with no
                // cues — almost always just the sentence start.
                // Title cue may be separated by a period token ("Dr . Smith"
                // after tokenization).
                let prev_word_idx = if i >= 2 && tokens[i - 1].text == "." {
                    Some(i - 2)
                } else if i >= 1 {
                    Some(i - 1)
                } else {
                    None
                };
                let title_cue =
                    prev_word_idx.is_some_and(|p| lower_is(&tokens[p], PERSON_TITLES, lower));
                let org_cue = lower_is(&tokens[j - 1], ORG_SUFFIXES, lower);
                if run_len >= 2 || title_cue || org_cue || (!sentence_initial && run_len >= 1) {
                    let kind = if title_cue {
                        EntityKind::Person
                    } else if org_cue {
                        EntityKind::Organization
                    } else {
                        EntityKind::Other
                    };
                    let start = t.start;
                    let end = tokens[j - 1].end;
                    out.push(Candidate {
                        mention: EntityMention {
                            text: text[start..end].to_string(),
                            kind,
                            start,
                            end,
                            confidence: if title_cue || org_cue { 0.8 } else { 0.55 },
                        },
                        priority: 1,
                    });
                }
                i = j;
            } else {
                i += 1;
            }
        }
    }
}

/// Whether `t` lower-cased is one of `words`, folded into `scratch`.
fn lower_is(t: &Token, words: &[&str], scratch: &mut String) -> bool {
    t.lower_into(scratch);
    words.contains(&scratch.as_str())
}

/// A 4-digit number in a plausible year range.
fn is_year(t: &Token) -> bool {
    t.kind == TokenKind::Number
        && t.text.len() == 4
        && t.text.parse::<u32>().is_ok_and(|y| (1900..=2099).contains(&y))
}

/// Resolves overlapping candidates: higher priority wins, then longer span,
/// then earlier start. Output is sorted and non-overlapping.
fn resolve_overlaps(mut candidates: Vec<Candidate>) -> Vec<EntityMention> {
    candidates.sort_by(|a, b| {
        b.priority
            .cmp(&a.priority)
            .then((b.mention.end - b.mention.start).cmp(&(a.mention.end - a.mention.start)))
            .then(a.mention.start.cmp(&b.mention.start))
    });
    let mut chosen: Vec<EntityMention> = Vec::new();
    for c in candidates {
        let overlaps = chosen.iter().any(|m| c.mention.start < m.end && m.start < c.mention.end);
        if !overlaps {
            chosen.push(c.mention);
        }
    }
    chosen.sort_by_key(|m| m.start);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagger() -> NerTagger {
        let lex = Lexicon::new().with_entries([
            ("Drug A", EntityKind::Drug),
            ("Drug B", EntityKind::Drug),
            ("Product Alpha", EntityKind::Product),
            ("Acme Corp", EntityKind::Organization),
            ("headache", EntityKind::Condition),
            ("migraine", EntityKind::Condition),
        ]);
        NerTagger::new(lex)
    }

    #[test]
    fn lexicon_phrase_matched() {
        let t = tagger();
        let m = t.tag("Patients taking Drug A reported fewer headaches.");
        assert!(m.iter().any(|e| e.kind == EntityKind::Drug && e.text == "Drug A"));
    }

    #[test]
    fn lexicon_match_is_case_insensitive() {
        let t = tagger();
        let m = t.tag("patients on drug a improved");
        assert!(m.iter().any(|e| e.kind == EntityKind::Drug));
    }

    #[test]
    fn longest_lexicon_match_wins() {
        let lex = Lexicon::new()
            .with_entries([("Alpha", EntityKind::Product), ("Product Alpha", EntityKind::Product)]);
        let t = NerTagger::new(lex);
        let m = t.tag("We sell Product Alpha worldwide.");
        let prod: Vec<&EntityMention> =
            m.iter().filter(|e| e.kind == EntityKind::Product).collect();
        assert_eq!(prod.len(), 1);
        assert_eq!(prod[0].text, "Product Alpha");
    }

    #[test]
    fn quarter_with_year() {
        let t = tagger();
        let m = t.tag("Sales rose in Q2 2024 strongly.");
        let q = m.iter().find(|e| e.kind == EntityKind::Quarter).unwrap();
        assert_eq!(q.text, "Q2 2024");
    }

    #[test]
    fn quarter_without_year() {
        let t = tagger();
        let m = t.tag("Compare Q3 results");
        let q = m.iter().find(|e| e.kind == EntityKind::Quarter).unwrap();
        assert_eq!(q.text, "Q3");
    }

    #[test]
    fn percent_and_money() {
        let t = tagger();
        let m = t.tag("Revenue grew 20% to $1,500.75 overall.");
        assert!(m.iter().any(|e| e.kind == EntityKind::Percent && e.text == "20%"));
        assert!(m.iter().any(|e| e.kind == EntityKind::Money && e.text == "$1,500.75"));
    }

    #[test]
    fn month_date_forms() {
        let t = tagger();
        let m = t.tag("Shipped on March 5, 2024 as planned.");
        let d = m.iter().find(|e| e.kind == EntityKind::Date).unwrap();
        assert_eq!(d.text, "March 5, 2024");
    }

    #[test]
    fn iso_date() {
        let t = tagger();
        let m = t.tag("Recorded 2024-03-05 in the log.");
        let d = m.iter().find(|e| e.kind == EntityKind::Date).unwrap();
        assert_eq!(d.text, "2024-03-05");
    }

    #[test]
    fn metric_words() {
        let t = tagger();
        let m = t.tag("total sales and average rating");
        assert!(m.iter().filter(|e| e.kind == EntityKind::Metric).count() >= 2);
    }

    #[test]
    fn identifiers() {
        let t = tagger();
        let m = t.tag("Order SKU1023 arrived.");
        assert!(m.iter().any(|e| e.kind == EntityKind::Identifier && e.text == "SKU1023"));
    }

    #[test]
    fn person_by_title() {
        let t = tagger();
        let m = t.tag("We consulted Dr. Smith yesterday.");
        assert!(m.iter().any(|e| e.kind == EntityKind::Person && e.text.contains("Smith")));
    }

    #[test]
    fn org_by_suffix() {
        let t = tagger();
        let m = t.tag("The device from Initech Labs failed.");
        assert!(m.iter().any(|e| e.kind == EntityKind::Organization));
    }

    #[test]
    fn sentence_initial_word_alone_not_entity() {
        let t = tagger();
        let m = t.tag("Therefore the plan works.");
        assert!(!m.iter().any(|e| e.text == "Therefore"));
    }

    #[test]
    fn mentions_sorted_nonoverlapping() {
        let t = tagger();
        let m = t.tag("Drug A beat Drug B by 12% in Q1 2023 at Acme Corp.");
        for w in m.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        assert!(m.len() >= 4);
    }

    #[test]
    fn canonical_collapses_whitespace_and_case() {
        let m = EntityMention {
            text: "Product   Alpha".to_string(),
            kind: EntityKind::Product,
            start: 0,
            end: 0,
            confidence: 1.0,
        };
        assert_eq!(m.canonical(), "product alpha");
    }

    #[test]
    fn value_kinds_flagged() {
        assert!(EntityKind::Percent.is_value());
        assert!(EntityKind::Quarter.is_value());
        assert!(!EntityKind::Drug.is_value());
        assert!(EntityKind::Drug.is_referential());
        assert!(!EntityKind::Metric.is_referential() && !EntityKind::Quarter.is_referential());
    }

    #[test]
    fn empty_text() {
        assert!(tagger().tag("").is_empty());
    }

    #[test]
    fn spans_slice_source() {
        let t = tagger();
        let text = "Acme Corp sold Product Alpha for $5 in Q4.";
        for e in t.tag(text) {
            assert_eq!(&text[e.start..e.end], e.text);
        }
    }
}
