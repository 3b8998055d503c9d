//! The table generator: sentences → extracted records → relational table.

use unisem_relstore::{RelResult, Table, Value};
use unisem_slm::ner::{EntityKind, EntityMention};
use unisem_slm::pos::{pos_tag, PosTag};
use unisem_slm::Slm;
use unisem_text::normalize::stem;
use unisem_text::sentence::split_sentences;

use crate::normalize::{
    direction_from_verb, normalize_period, parse_money, parse_number, parse_percent,
};
use crate::record::{union_schema, ExtractedRecord, Field};

/// Aggregate statistics from a generation run (feeds experiment E4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    /// Sentences examined.
    pub sentences: usize,
    /// Records emitted (informative ones only).
    pub records: usize,
    /// Sentences skipped as uninformative.
    pub skipped: usize,
}

/// SLM-driven relational table generator.
#[derive(Debug, Clone)]
pub struct TableGenerator {
    slm: Slm,
}

impl TableGenerator {
    /// Creates a generator using `slm` for tagging.
    pub fn new(slm: Slm) -> Self {
        Self { slm }
    }

    /// Extracts records from one document.
    pub fn extract_records(&self, text: &str) -> (Vec<ExtractedRecord>, ExtractionStats) {
        let mut stats = ExtractionStats::default();
        let mut records = Vec::new();
        for sentence in split_sentences(text) {
            stats.sentences += 1;
            let rec = self.extract_sentence(&sentence);
            if rec.is_informative() {
                stats.records += 1;
                records.push(rec);
            } else {
                stats.skipped += 1;
            }
        }
        (records, stats)
    }

    /// Extracts a single sentence into a (possibly uninformative) record.
    pub fn extract_sentence(&self, sentence: &str) -> ExtractedRecord {
        let mut rec = ExtractedRecord::new(sentence);
        let mentions = self.slm.tag_entities(sentence);
        let tags = pos_tag(sentence);

        // Subject: the first referential (non-value, non-metric) entity.
        let referential: Vec<&EntityMention> = mentions
            .iter()
            .filter(|m| !m.kind.is_value() && m.kind != EntityKind::Metric)
            .collect();
        if let Some(subj) = referential.first() {
            rec.set(Field::Subject, Value::str(subj.canonical()));
            rec.set(Field::SubjectKind, Value::str(subj.kind.label()));
            // Object: the next referential entity after the subject.
            if let Some(obj) = referential.get(1) {
                rec.set(Field::Object, Value::str(obj.canonical()));
            }
        }

        // Metric: the first metric word.
        if let Some(metric) = mentions.iter().find(|m| m.kind == EntityKind::Metric) {
            rec.set(Field::Metric, Value::str(metric.canonical()));
        }

        // Period: quarter preferred over date.
        let period = mentions
            .iter()
            .find(|m| m.kind == EntityKind::Quarter)
            .or_else(|| mentions.iter().find(|m| m.kind == EntityKind::Date));
        if let Some(p) = period {
            let v = normalize_period(&p.text);
            // Periods are stored as display strings for stable grouping.
            rec.set(Field::Period, Value::str(v.to_string()));
        }

        // Governing verb: the first verb token; its polarity signs the
        // percent change.
        let verb = tags
            .iter()
            .find(|(t, p)| *p == PosTag::Verb && t.text.len() > 2)
            .map(|(t, _)| t.lower());
        if let Some(v) = &verb {
            rec.set(Field::Relation, Value::str(stem(v)));
        }

        // Measures.
        if let Some(pct) = mentions.iter().find(|m| m.kind == EntityKind::Percent) {
            if let Some(raw) = parse_percent(&pct.text) {
                let sign = verb.as_deref().map_or(0, direction_from_verb);
                let signed = if sign < 0 { -raw } else { raw };
                rec.set(Field::ChangePct, Value::float(signed));
            }
        }
        if let Some(money) = mentions.iter().find(|m| m.kind == EntityKind::Money) {
            if let Some(amt) = parse_money(&money.text) {
                rec.set(Field::Amount, Value::float(amt));
            }
        }
        // Quantity: a bare number not already consumed by percent/money/
        // period spans.
        let consumed: Vec<(usize, usize)> = mentions
            .iter()
            .filter(|m| {
                matches!(
                    m.kind,
                    EntityKind::Percent
                        | EntityKind::Money
                        | EntityKind::Date
                        | EntityKind::Quarter
                )
            })
            .map(|m| (m.start, m.end))
            .collect();
        if let Some(q) = mentions.iter().find(|m| {
            m.kind == EntityKind::Quantity
                && !consumed.iter().any(|&(s, e)| m.start >= s && m.end <= e)
        }) {
            if let Some(n) = parse_number(&q.text) {
                rec.set(Field::Quantity, Value::float(n));
            }
        }
        rec
    }

    /// Generates one table covering all `texts` (union schema, canonical
    /// column order), together with run statistics.
    pub fn generate_table(&self, texts: &[&str]) -> RelResult<(Table, ExtractionStats)> {
        let mut all = Vec::new();
        let mut stats = ExtractionStats::default();
        for t in texts {
            let (recs, s) = self.extract_records(t);
            stats.sentences += s.sentences;
            stats.records += s.records;
            stats.skipped += s.skipped;
            all.extend(recs);
        }
        let schema = union_schema(&all);
        let mut table = Table::empty(schema.clone());
        for rec in &all {
            let row: Vec<Value> = schema
                .columns()
                .iter()
                .map(|c| {
                    Field::ALL
                        .into_iter()
                        .find(|f| f.column_name() == c.name)
                        .and_then(|f| rec.get(f).cloned())
                        .unwrap_or(Value::Null)
                })
                .collect();
            table.push_row(row)?;
        }
        Ok((table, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_slm::{Lexicon, SlmConfig};

    fn gen() -> TableGenerator {
        let lexicon = Lexicon::new().with_entries([
            ("Product Alpha", EntityKind::Product),
            ("Product Beta", EntityKind::Product),
            ("Drug A", EntityKind::Drug),
            ("Acme Corp", EntityKind::Organization),
            ("Patient X", EntityKind::Person),
        ]);
        TableGenerator::new(Slm::new(SlmConfig { lexicon, ..SlmConfig::default() }))
    }

    #[test]
    fn paper_example_sentence() {
        // The paper's own running example: "Q2 sales increased 20%".
        let g = gen();
        let rec = g.extract_sentence("Q2 sales increased 20%.");
        assert_eq!(rec.get(Field::Metric), Some(&Value::str("sales")));
        assert_eq!(rec.get(Field::Period), Some(&Value::str("Q2")));
        assert_eq!(rec.get(Field::ChangePct), Some(&Value::Float(20.0)));
    }

    #[test]
    fn subject_and_signed_change() {
        let g = gen();
        let rec = g.extract_sentence("Product Alpha sales decreased 15% in Q3 2024.");
        assert_eq!(rec.get(Field::Subject), Some(&Value::str("product alpha")));
        assert_eq!(rec.get(Field::SubjectKind), Some(&Value::str("product")));
        assert_eq!(rec.get(Field::ChangePct), Some(&Value::Float(-15.0)));
        assert_eq!(rec.get(Field::Period), Some(&Value::str("Q3 2024")));
        assert!(rec.is_informative());
    }

    #[test]
    fn money_amount() {
        let g = gen();
        let rec = g.extract_sentence("Product Beta revenue reached $12,500.50 in Q1.");
        assert_eq!(rec.get(Field::Amount), Some(&Value::Float(12500.5)));
        assert_eq!(rec.get(Field::Metric), Some(&Value::str("revenue")));
    }

    #[test]
    fn relation_and_object() {
        let g = gen();
        let rec = g.extract_sentence("Patient X received Drug A on 2024-02-10.");
        assert_eq!(rec.get(Field::Subject), Some(&Value::str("patient x")));
        assert_eq!(rec.get(Field::Object), Some(&Value::str("drug a")));
        assert_eq!(rec.get(Field::Relation), Some(&Value::str("receiv")));
        assert!(rec.get(Field::Period).is_some());
    }

    #[test]
    fn uninformative_sentence_skipped() {
        let g = gen();
        let (recs, stats) = g.extract_records("The weather was pleasant. Nothing happened.");
        assert!(recs.is_empty());
        assert_eq!(stats.sentences, 2);
        assert_eq!(stats.skipped, 2);
    }

    #[test]
    fn table_generation_union_schema() {
        let g = gen();
        let (t, stats) = g
            .generate_table(&[
                "Product Alpha sales increased 20% in Q2.",
                "Product Beta revenue reached $900 in Q2.",
            ])
            .unwrap();
        assert_eq!(stats.records, 2);
        assert_eq!(t.num_rows(), 2);
        for col in ["subject", "metric", "period", "change_pct", "amount"] {
            assert!(t.schema().index_of(col).is_some(), "missing column {col}");
        }
        // Row 0 has no amount; row 1 has no change_pct.
        let amount = t.schema().index_of("amount").unwrap();
        assert!(t.cell(0, amount).is_null());
        assert_eq!(t.cell(1, amount), &Value::Float(900.0));
    }

    #[test]
    fn generated_table_queryable_via_sql() {
        use unisem_relstore::{AggExpr, AggFunc, Database, Expr, LogicalPlan, SortKey};
        let g = gen();
        let (t, _) = g
            .generate_table(&[
                "Product Alpha sales increased 20% in Q2.",
                "Product Beta sales decreased 5% in Q2.",
                "Product Alpha sales increased 10% in Q3.",
            ])
            .unwrap();
        let mut db = Database::new();
        db.create_table("extracted", t).unwrap();
        let avg = AggExpr {
            func: AggFunc::Avg,
            input: Expr::col("change_pct"),
            output_name: "avg_change".into(),
        };
        let plan = LogicalPlan::scan("extracted")
            .aggregate(vec![(Expr::col("subject"), "subject".into())], vec![avg])
            .sort(vec![SortKey { expr: Expr::col("subject"), ascending: true }]);
        let out = db.run_plan(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.cell(0, 0), &Value::str("product alpha"));
        assert_eq!(out.cell(0, 1), &Value::Float(15.0));
        assert_eq!(out.cell(1, 1), &Value::Float(-5.0));
    }

    #[test]
    fn quantity_not_confused_with_percent() {
        let g = gen();
        let rec = g.extract_sentence("Acme Corp shipped 500 units, up 10%.");
        assert_eq!(rec.get(Field::Quantity), Some(&Value::Float(500.0)));
        assert_eq!(rec.get(Field::ChangePct), Some(&Value::Float(10.0)));
    }

    #[test]
    fn stats_add_up() {
        let g = gen();
        let (_, stats) = g.extract_records(
            "Product Alpha sales rose 5%. Irrelevant filler sentence. \
             Product Beta sales fell 3%.",
        );
        assert_eq!(stats.sentences, 3);
        assert_eq!(stats.records + stats.skipped, 3);
        assert_eq!(stats.records, 2);
    }
}
