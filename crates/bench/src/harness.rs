//! Engine construction from workloads, pipeline evaluation, and plain-text
//! table rendering for experiment reports.

use std::collections::BTreeMap;

use unisem_core::{EngineBuilder, EngineConfig, FaultPlan, QaPipeline, UnifiedEngine};
use unisem_workloads::{answer_matches, EcommerceWorkload, HealthcareWorkload, QaCategory, QaItem};

/// The configuration every experiment starts from: the defaults with fault
/// injection pinned off, so an ambient `UNISEM_FAULTS` plan cannot move a
/// table.
pub fn base_config() -> EngineConfig {
    EngineConfig { faults: FaultPlan::disabled(), ..EngineConfig::default() }
}

/// Builds a [`UnifiedEngine`] over every modality of an e-commerce
/// workload.
pub fn build_ecommerce_engine(w: &EcommerceWorkload, config: EngineConfig) -> UnifiedEngine {
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
    for name in w.db.table_names() {
        b.add_table(name, w.db.table(name).expect("listed").clone()).expect("fresh");
    }
    for coll in w.semi.collections() {
        for doc in w.semi.docs(coll) {
            b.add_json(coll, doc.clone());
        }
    }
    for d in &w.documents {
        b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
    }
    b.build().0
}

/// Builds a [`UnifiedEngine`] over a healthcare workload.
pub fn build_healthcare_engine(w: &HealthcareWorkload, config: EngineConfig) -> UnifiedEngine {
    let mut b = EngineBuilder::with_config(w.lexicon.clone(), config);
    for name in w.db.table_names() {
        b.add_table(name, w.db.table(name).expect("listed").clone()).expect("fresh");
    }
    for coll in w.semi.collections() {
        for doc in w.semi.docs(coll) {
            b.add_json(coll, doc.clone());
        }
    }
    for d in &w.documents {
        b.add_document(d.title.clone(), d.text.clone(), d.source.clone());
    }
    b.build().0
}

/// Evaluation result for one pipeline on one QA set.
#[derive(Debug, Clone, Default)]
pub struct EvalResult {
    /// `(correct, total)` per category.
    pub by_category: BTreeMap<QaCategory, (usize, usize)>,
    /// Per-question records: `(question id, correct, confidence,
    /// semantic entropy, predictive entropy, lexical variance)`.
    pub records: Vec<QuestionRecord>,
}

/// Per-question evaluation record (consumed by E5 calibration).
#[derive(Debug, Clone)]
pub struct QuestionRecord {
    /// QA item id.
    pub id: usize,
    /// Category.
    pub category: QaCategory,
    /// Whether the answer matched gold.
    pub correct: bool,
    /// Engine confidence.
    pub confidence: f64,
    /// Semantic entropy of the answer samples.
    pub semantic_entropy: f64,
    /// Discrete semantic entropy.
    pub discrete_entropy: f64,
    /// Predictive-entropy baseline.
    pub predictive_entropy: f64,
    /// Lexical-variance baseline.
    pub lexical_variance: f64,
}

impl EvalResult {
    /// Overall accuracy.
    pub fn overall(&self) -> f64 {
        let (c, t) = self.by_category.values().fold((0, 0), |(c, t), (ci, ti)| (c + ci, t + ti));
        c as f64 / t.max(1) as f64
    }

    /// Accuracy for one category (1.0 when the category is absent).
    pub fn accuracy(&self, cat: QaCategory) -> f64 {
        self.by_category.get(&cat).map_or(1.0, |(c, t)| *c as f64 / (*t).max(1) as f64)
    }
}

/// Runs a pipeline over a QA set and scores it.
pub fn evaluate_pipeline(pipeline: &dyn QaPipeline, qa: &[QaItem]) -> EvalResult {
    let mut result = EvalResult::default();
    for item in qa {
        let ans = pipeline.answer(&item.question);
        let correct = answer_matches(&item.gold, &ans.text);
        let entry = result.by_category.entry(item.category).or_insert((0, 0));
        entry.1 += 1;
        if correct {
            entry.0 += 1;
        }
        result.records.push(QuestionRecord {
            id: item.id,
            category: item.category,
            correct,
            confidence: ans.confidence,
            semantic_entropy: ans.entropy.semantic_entropy,
            discrete_entropy: ans.entropy.discrete_semantic_entropy,
            predictive_entropy: ans.entropy.predictive_entropy,
            lexical_variance: ans.entropy.lexical_variance,
        });
    }
    result
}

/// Minimal fixed-width text-table printer for experiment reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a header row.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table, with no trailing spaces on any line.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats bytes as KiB with one decimal.
pub fn kib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["alpha", "1"]).row(["much longer name", "22"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() >= 4);
        assert!(s.lines().all(|l| l == l.trim_end()), "no trailing spaces: {s:?}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        TextTable::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.1234), "0.123");
        assert_eq!(kib(2048), "2.0");
    }
}
