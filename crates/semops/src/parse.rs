//! Natural-language question analysis → [`QueryIntent`].
//!
//! The parser mirrors how the paper describes the SLM's job: "it identifies
//! the entities 'total sales', 'all products', and 'Q3'. Then, it maps these
//! to SQL-like operations such as aggregations … and filtering operations".
//! Entity identification comes from the SLM tagger; the operation mapping is
//! rule-based over the token stream.

use std::borrow::Cow;

use unisem_relstore::plan::AggFunc;
use unisem_relstore::Value;
use unisem_slm::ner::EntityKind;
use unisem_slm::Slm;
use unisem_text::normalize::{is_stopword, lower_into, normalize_token};
use unisem_text::tokenize::{tokenize, Token, TokenKind};

use crate::intent::{CmpOp, FilterIntent, QueryIntent, SortIntent};

/// Parses questions into intents using an SLM for entity tagging.
#[derive(Debug, Clone)]
pub struct IntentParser {
    slm: Slm,
}

impl IntentParser {
    /// Creates a parser.
    pub fn new(slm: Slm) -> Self {
        Self { slm }
    }

    /// Analyzes one question.
    pub fn analyze(&self, question: &str) -> QueryIntent {
        let mentions = self.slm.tag_entities(question);
        let tokens: Vec<Token> = tokenize(question).collect();
        let words: Vec<Cow<str>> = tokens.iter().map(|t| lowered(t.text)).collect();

        let mut intent = QueryIntent { raw: question.to_string(), ..QueryIntent::default() };

        // ---- entities & period/subject filters ----
        let mut subjects = Vec::new();
        for m in &mentions {
            match m.kind {
                EntityKind::Quarter | EntityKind::Date => {
                    let period = crate::synthesize::display_period(&m.text);
                    intent.filters.push(FilterIntent::Period(period));
                }
                EntityKind::Metric
                | EntityKind::Quantity
                | EntityKind::Percent
                | EntityKind::Money => {}
                _ => {
                    subjects.push(m.canonical());
                    intent.entities.push(m.canonical());
                }
            }
        }
        if !subjects.is_empty() {
            intent.filters.push(FilterIntent::SubjectIn(subjects));
        }

        // ---- metric hints ----
        let metric_mentions: Vec<(usize, String)> = mentions
            .iter()
            .filter(|m| m.kind == EntityKind::Metric)
            .map(|m| (m.start, m.canonical()))
            .collect();
        let first_metric = metric_mentions.first().map(|(_, m)| m.clone());
        intent.metric_mention = first_metric.clone();
        let metric_before = |pos: usize| {
            metric_mentions
                .iter()
                .rfind(|(s, _)| *s < pos)
                .map(|(_, m)| m.clone())
                .or_else(|| first_metric.clone())
        };
        let metric_after = |pos: usize| {
            metric_mentions
                .iter()
                .find(|(s, _)| *s >= pos)
                .map(|(_, m)| m.clone())
                .or_else(|| first_metric.clone())
        };

        // ---- aggregates ----
        for (i, w) in words.iter().enumerate() {
            let start = tokens[i].start;
            let agg = match &**w {
                "total" | "sum" | "overall" => Some(AggFunc::Sum),
                "average" | "mean" | "avg" => Some(AggFunc::Avg),
                "highest" | "maximum" | "max" | "most" | "best" => Some(AggFunc::Max),
                "lowest" | "minimum" | "min" | "least" | "worst" | "fewest" => Some(AggFunc::Min),
                "count" => Some(AggFunc::Count),
                "many" if i > 0 && words[i - 1] == "how" => Some(AggFunc::Count),
                "number" if words.get(i + 1).is_some_and(|n| n == "of") => Some(AggFunc::Count),
                _ => None,
            };
            if let Some(f) = agg {
                if intent.aggregate.is_none() {
                    let metric = if f == AggFunc::Count { None } else { metric_after(start) };
                    intent.aggregate = Some((f, metric));
                    // Superlatives imply ordering too.
                    if matches!(f, AggFunc::Max) {
                        intent.sort.get_or_insert(SortIntent {
                            metric_hint: metric_after(start).unwrap_or_default(),
                            descending: true,
                        });
                    } else if matches!(f, AggFunc::Min) {
                        intent.sort.get_or_insert(SortIntent {
                            metric_hint: metric_after(start).unwrap_or_default(),
                            descending: false,
                        });
                    }
                }
            }
        }

        // ---- "top N" / limits ----
        for (i, w) in words.iter().enumerate() {
            if (w == "top" || w == "first") && i + 1 < tokens.len() {
                if let Ok(n) = tokens[i + 1].text.parse::<usize>() {
                    intent.limit = Some(n);
                    if w == "top" {
                        let hint = metric_after(tokens[i].start).unwrap_or_default();
                        intent
                            .sort
                            .get_or_insert(SortIntent { metric_hint: hint, descending: true });
                    }
                }
            }
        }

        // ---- grouping ----
        for (i, w) in words.iter().enumerate() {
            let group_kw = w == "per"
                || (w == "each" && i > 0 && words[i - 1] == "for")
                || (w == "by" && i > 0 && words[i - 1] != "order");
            if group_kw {
                // The grouped dimension is the next non-stopword noun.
                if let Some(next) = tokens[i + 1..]
                    .iter()
                    .zip(&words[i + 1..])
                    .find(|(t, w)| t.kind == TokenKind::Word && !is_stopword(w))
                {
                    intent.group_hint = Some(normalize_token(next.0.text));
                    break;
                }
            }
        }

        // ---- comparative framing ----
        if words.iter().any(|w| w == "compare" || w == "versus" || w == "vs")
            || contains_lowered(question, "difference between")
        {
            intent.comparative = true;
            if intent.group_hint.is_none() {
                intent.group_hint = Some("subject".to_string());
            }
        }

        // ---- numeric comparison filters ----
        self.parse_numeric_filters(&tokens, &words, &mentions, &metric_before, &mut intent);

        intent
    }

    fn parse_numeric_filters(
        &self,
        tokens: &[Token],
        words: &[Cow<str>],
        mentions: &[unisem_slm::EntityMention],
        metric_before: &dyn Fn(usize) -> Option<String>,
        intent: &mut QueryIntent,
    ) {
        for (i, w) in words.iter().enumerate() {
            let op = match &**w {
                "more" | "greater" | "higher" | "over" | "above" | "exceeding" => Some(CmpOp::Gt),
                "less" | "fewer" | "lower" | "under" | "below" => Some(CmpOp::Lt),
                "least" if i > 0 && words[i - 1] == "at" => Some(CmpOp::Ge),
                "most" if i > 0 && words[i - 1] == "at" => Some(CmpOp::Le),
                "exactly" => Some(CmpOp::Eq),
                _ => None,
            };
            let Some(op) = op else { continue };
            // Find the next number token within a short window.
            let num = tokens[i + 1..].iter().take(4).find(|t| t.kind == TokenKind::Number);
            let Some(num) = num else { continue };
            let value_text = num.text.replace(',', "");
            let Ok(raw) = value_text.parse::<f64>() else {
                continue;
            };
            // Is it a percent? (covered by a Percent mention)
            let is_pct = mentions
                .iter()
                .any(|m| m.kind == EntityKind::Percent && num.start >= m.start && num.end <= m.end);
            let metric_hint = if is_pct {
                "change_pct".to_string()
            } else {
                metric_before(tokens[i].start).unwrap_or_else(|| "amount".to_string())
            };
            intent.filters.push(FilterIntent::Numeric {
                metric_hint,
                op,
                value: Value::float(raw),
            });
        }
    }
}

/// `text` lower-cased, borrowed when it already is: most question words
/// are lower-case ASCII, and only the others are copied.
fn lowered(text: &str) -> Cow<'_, str> {
    if text.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        Cow::Borrowed(text)
    } else {
        let mut out = String::new();
        lower_into(text, &mut out);
        Cow::Owned(out)
    }
}

/// Whether `text` lower-cased contains `needle` (lower-case ASCII), without
/// copying ASCII text.
fn contains_lowered(text: &str, needle: &str) -> bool {
    if text.is_ascii() {
        text.as_bytes().windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
    } else {
        text.to_lowercase().contains(needle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_slm::{Lexicon, SlmConfig};

    fn parser() -> IntentParser {
        let lexicon = Lexicon::new().with_entries([
            ("Product Alpha", EntityKind::Product),
            ("Product Beta", EntityKind::Product),
            ("Drug A", EntityKind::Drug),
            ("Drug B", EntityKind::Drug),
        ]);
        IntentParser::new(Slm::new(SlmConfig { lexicon, ..SlmConfig::default() }))
    }

    #[test]
    fn paper_example_total_sales_q3() {
        // §III.C: "Find the total sales of all products in Q3".
        let i = parser().analyze("Find the total sales of all products in Q3");
        assert_eq!(i.aggregate, Some((AggFunc::Sum, Some("sales".to_string()))));
        assert!(i.filters.contains(&FilterIntent::Period("Q3".to_string())));
        assert!(!i.is_plain_lookup());
    }

    #[test]
    fn average_per_group() {
        let i = parser().analyze("What is the average rating per product?");
        assert_eq!(i.aggregate.as_ref().unwrap().0, AggFunc::Avg);
        assert_eq!(i.group_hint.as_deref(), Some("product"));
    }

    #[test]
    fn count_questions() {
        let i = parser().analyze("How many units were sold in Q2 2024?");
        assert_eq!(i.aggregate.as_ref().unwrap().0, AggFunc::Count);
        assert!(i.filters.iter().any(|f| matches!(f, FilterIntent::Period(p) if p == "Q2 2024")));
    }

    #[test]
    fn comparative_groups_by_subject() {
        let i = parser().analyze("Compare the sales of Product Alpha and Product Beta");
        assert!(i.comparative);
        assert_eq!(i.group_hint.as_deref(), Some("subject"));
        assert!(i.filters.iter().any(|f| matches!(
            f,
            FilterIntent::SubjectIn(s) if s.contains(&"product alpha".to_string())
                && s.contains(&"product beta".to_string())
        )));
    }

    #[test]
    fn numeric_threshold_percent() {
        let i = parser().analyze("Which products had a sales increase of more than 15%?");
        let f = i
            .filters
            .iter()
            .find_map(|f| match f {
                FilterIntent::Numeric { metric_hint, op, value } => {
                    Some((metric_hint.clone(), *op, value.clone()))
                }
                _ => None,
            })
            .expect("numeric filter");
        assert_eq!(f.0, "change_pct");
        assert_eq!(f.1, CmpOp::Gt);
        assert_eq!(f.2, Value::Float(15.0));
    }

    #[test]
    fn numeric_threshold_plain_metric() {
        let i = parser().analyze("List products with revenue over 1,000");
        let found = i.filters.iter().any(|f| {
            matches!(
                f,
                FilterIntent::Numeric { metric_hint, op: CmpOp::Gt, value }
                    if metric_hint == "revenue" && *value == Value::Float(1000.0)
            )
        });
        assert!(found, "filters: {:?}", i.filters);
    }

    #[test]
    fn at_least_at_most() {
        let i = parser().analyze("products with rating at least 4");
        assert!(i.filters.iter().any(|f| matches!(f, FilterIntent::Numeric { op: CmpOp::Ge, .. })));
        let i = parser().analyze("products with rating at most 2");
        assert!(i.filters.iter().any(|f| matches!(f, FilterIntent::Numeric { op: CmpOp::Le, .. })));
    }

    #[test]
    fn superlative_sets_sort() {
        let i = parser().analyze("Which product had the highest sales in Q1?");
        assert_eq!(i.aggregate.as_ref().unwrap().0, AggFunc::Max);
        let s = i.sort.as_ref().unwrap();
        assert!(s.descending);
        assert_eq!(s.metric_hint, "sales");
    }

    #[test]
    fn top_n_limit() {
        let i = parser().analyze("Show the top 3 products by sales");
        assert_eq!(i.limit, Some(3));
        assert!(i.sort.as_ref().unwrap().descending);
    }

    #[test]
    fn plain_lookup_detected() {
        let i = parser().analyze("What did patients report about Drug A?");
        assert!(i.is_plain_lookup());
        assert!(i.entities.contains(&"drug a".to_string()));
    }

    #[test]
    fn entities_extracted() {
        let i = parser().analyze("Did Drug A outperform Drug B?");
        assert_eq!(i.entities.len(), 2);
    }
}
