//! Binding intents to table schemas and emitting logical plans.
//!
//! The synthesizer handles the two table shapes that occur in the system:
//!
//! - **native** tables (workload-provided), where metrics are columns
//!   (`sales`, `rating`) and subjects are key columns (`product`),
//! - **extracted** tables (from `unisem-extract`'s canonical schema), where
//!   the metric name is *data* in the `metric` column and measurements live
//!   in `amount` / `change_pct` / `quantity`.

use std::fmt;

use unisem_relstore::plan::{AggExpr, AggFunc, SortKey};
use unisem_relstore::{Database, Expr, LogicalPlan, RelError, Schema, Value};
use unisem_text::similarity::jaro_winkler;

use crate::intent::{CmpOp, FilterIntent, QueryIntent, SortIntent};

/// Synthesis failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// No column plausibly holds the requested metric.
    NoMetricColumn(String),
    /// No column plausibly identifies the subject entities.
    NoSubjectColumn,
    /// No column plausibly holds the reporting period.
    NoPeriodColumn,
    /// The intent has no analytical structure to synthesize.
    NotAnalytical,
    /// Underlying engine error.
    Rel(RelError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoMetricColumn(h) => write!(f, "no column for metric hint '{h}'"),
            SynthesisError::NoSubjectColumn => write!(f, "no subject column"),
            SynthesisError::NoPeriodColumn => write!(f, "no period column"),
            SynthesisError::NotAnalytical => write!(f, "question has no analytical structure"),
            SynthesisError::Rel(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<RelError> for SynthesisError {
    fn from(e: RelError) -> Self {
        SynthesisError::Rel(e)
    }
}

/// Metric-name synonym classes for column resolution.
const SYNONYMS: &[(&str, &[&str])] = &[
    ("sales", &["sales", "amount", "revenue", "total_sales", "sold"]),
    ("revenue", &["revenue", "amount", "sales", "income"]),
    ("rating", &["rating", "ratings", "satisfaction", "score", "stars"]),
    ("price", &["price", "cost", "amount"]),
    ("units", &["units", "quantity", "count", "volume"]),
    ("change_pct", &["change_pct", "change", "growth", "increase", "pct"]),
    ("efficacy", &["efficacy", "effectiveness", "response_rate", "score"]),
    ("dosage", &["dosage", "dose", "mg"]),
    ("profit", &["profit", "margin", "earnings"]),
];

/// Candidate column names identifying subjects.
const SUBJECT_COLUMNS: &[&str] =
    &["subject", "product", "name", "drug", "patient", "customer", "item", "manufacturer", "maker"];

/// Candidate column names holding periods.
const PERIOD_COLUMNS: &[&str] = &["period", "quarter", "date", "month", "when", "time"];

/// Normalizes a period mention for display/equality ("q2 2024" → "Q2 2024").
pub fn display_period(text: &str) -> String {
    let t = text.trim();
    let lower = t.to_lowercase();
    if lower.starts_with('q') {
        let rest: Vec<&str> = lower[1..].split_whitespace().collect();
        if let Some(q) = rest.first().and_then(|s| s.parse::<u8>().ok()) {
            if (1..=4).contains(&q) {
                return match rest.get(1) {
                    Some(y) => format!("Q{q} {y}"),
                    None => format!("Q{q}"),
                };
            }
        }
    }
    t.to_string()
}

/// Resolves a metric hint against a schema: exact name → synonym class →
/// fuzzy (Jaro-Winkler ≥ 0.88).
pub fn resolve_metric_column(schema: &Schema, hint: &str) -> Option<String> {
    let hint = hint.to_lowercase();
    if schema.index_of(&hint).is_some() {
        return Some(hint);
    }
    for (class, alts) in SYNONYMS {
        if *class == hint || alts.contains(&hint.as_str()) {
            for alt in *alts {
                if schema.index_of(alt).is_some() {
                    return Some((*alt).to_string());
                }
            }
        }
    }
    schema
        .columns()
        .iter()
        .map(|c| (c.name.clone(), jaro_winkler(&c.name.to_lowercase(), &hint)))
        .filter(|(_, s)| *s >= 0.88)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(n, _)| n)
}

fn resolve_from(schema: &Schema, candidates: &[&str]) -> Option<String> {
    candidates.iter().find(|c| schema.index_of(c).is_some()).map(|c| (*c).to_string())
}

/// Resolves the subject-identifying column.
pub fn resolve_subject_column(schema: &Schema) -> Option<String> {
    resolve_from(schema, SUBJECT_COLUMNS)
}

/// Resolves the period column.
pub fn resolve_period_column(schema: &Schema) -> Option<String> {
    resolve_from(schema, PERIOD_COLUMNS)
}

/// True when the schema is the extracted canonical shape (metric-as-data).
fn is_extracted_shape(schema: &Schema) -> bool {
    schema.index_of("metric").is_some()
        && (schema.index_of("amount").is_some()
            || schema.index_of("change_pct").is_some()
            || schema.index_of("quantity").is_some())
}

/// The operator synthesizer.
#[derive(Debug, Clone, Default)]
pub struct OperatorSynthesizer;

impl OperatorSynthesizer {
    /// Creates a synthesizer.
    pub fn new() -> Self {
        Self
    }

    /// Synthesizes a logical plan for `intent` against `table` in `db`.
    pub fn synthesize(
        &self,
        intent: &QueryIntent,
        db: &Database,
        table: &str,
    ) -> Result<LogicalPlan, SynthesisError> {
        let schema = db.table(table)?.schema().clone();
        let extracted = is_extracted_shape(&schema);
        let mut plan = LogicalPlan::scan(table);
        let mut predicates: Vec<Expr> = Vec::new();
        // HAVING conditions lifted out of numeric filters (see below).
        let mut having: Vec<(CmpOp, Value)> = Vec::new();

        // Comparative questions without an explicit aggregate keyword
        // ("which drug is more effective?") still need per-entity
        // aggregation: default to AVG over the mentioned metric.
        let effective_aggregate: Option<(AggFunc, Option<String>)> = intent
            .aggregate
            .clone()
            .or_else(|| intent.comparative.then(|| (AggFunc::Avg, intent.metric_mention.clone())));

        // In extracted shape, the metric hint filters the `metric` column
        // and measurements live in a value column.
        let metric_hint = effective_aggregate
            .as_ref()
            .and_then(|(_, m)| m.clone())
            .or_else(|| {
                intent.filters.iter().find_map(|f| match f {
                    FilterIntent::Numeric { metric_hint, .. } => Some(metric_hint.clone()),
                    _ => None,
                })
            })
            .or_else(|| intent.metric_mention.clone());

        let value_column: Option<String> = if extracted {
            if let Some(h) = &metric_hint {
                if h != "change_pct" && schema.index_of(h).is_none() {
                    predicates.push(Expr::col("metric").eq(Expr::lit(Value::str(h.clone()))));
                }
            }
            // Measurement priority for extracted rows.
            let pct_asked = metric_hint.as_deref() == Some("change_pct")
                || intent.filters.iter().any(|f| {
                    matches!(f, FilterIntent::Numeric { metric_hint, .. } if metric_hint == "change_pct")
                });
            if pct_asked && schema.index_of("change_pct").is_some() {
                Some("change_pct".to_string())
            } else {
                ["amount", "change_pct", "quantity"]
                    .iter()
                    .find(|c| schema.index_of(c).is_some())
                    .map(|c| (*c).to_string())
            }
        } else {
            match metric_hint.as_ref() {
                Some(h) => resolve_metric_column(&schema, h),
                // No hint at all: fall back to the first numeric column.
                None => schema
                    .columns()
                    .iter()
                    .find(|c| {
                        matches!(
                            c.dtype,
                            unisem_relstore::DataType::Float | unisem_relstore::DataType::Int
                        )
                    })
                    .map(|c| c.name.clone()),
            }
        };

        // ---- filters ----
        for f in &intent.filters {
            match f {
                FilterIntent::Period(p) => {
                    let col =
                        resolve_period_column(&schema).ok_or(SynthesisError::NoPeriodColumn)?;
                    // Period equality is prefix-tolerant: "Q2" matches
                    // "Q2 2024" and vice versa.
                    let pat_exact =
                        Expr::Like { expr: Box::new(Expr::col(col.clone())), pattern: p.clone() };
                    let pat_prefix =
                        Expr::Like { expr: Box::new(Expr::col(col)), pattern: format!("{p} %") };
                    predicates.push(pat_exact.or(pat_prefix));
                }
                FilterIntent::SubjectIn(subjects) => {
                    let col =
                        resolve_subject_column(&schema).ok_or(SynthesisError::NoSubjectColumn)?;
                    // Case-insensitive equality via LIKE (no wildcards).
                    let mut pred: Option<Expr> = None;
                    for s in subjects {
                        let like = Expr::Like {
                            expr: Box::new(Expr::col(col.clone())),
                            pattern: s.clone(),
                        };
                        pred = Some(match pred {
                            Some(p) => p.or(like),
                            None => like,
                        });
                    }
                    if let Some(p) = pred {
                        predicates.push(p);
                    }
                }
                FilterIntent::Numeric { metric_hint: mh, op, value } => {
                    let col = if extracted {
                        value_column
                            .clone()
                            .ok_or_else(|| SynthesisError::NoMetricColumn(mh.clone()))?
                    } else {
                        resolve_metric_column(&schema, mh)
                            .ok_or_else(|| SynthesisError::NoMetricColumn(mh.clone()))?
                    };
                    // When the threshold targets the same metric the
                    // aggregate computes ("average efficacy above 72"), it
                    // is a HAVING condition over per-entity aggregates, not
                    // a row filter.
                    let agg_col = effective_aggregate
                        .as_ref()
                        .filter(|(f, _)| *f != AggFunc::Count)
                        .and_then(|(_, m)| m.as_ref())
                        .and_then(|m| {
                            if extracted {
                                value_column.clone()
                            } else {
                                resolve_metric_column(&schema, m)
                            }
                        });
                    if agg_col.as_deref() == Some(col.as_str()) {
                        having.push((*op, value.clone()));
                        continue;
                    }
                    let lhs = Expr::col(col);
                    let rhs = Expr::lit(value.clone());
                    predicates.push(match op {
                        CmpOp::Eq => lhs.eq(rhs),
                        CmpOp::Gt => lhs.gt(rhs),
                        CmpOp::Ge => lhs.ge(rhs),
                        CmpOp::Lt => lhs.lt(rhs),
                        CmpOp::Le => lhs.le(rhs),
                    });
                }
            }
        }
        if let Some(pred) = predicates.into_iter().reduce(Expr::and) {
            plan = plan.filter(pred);
        }

        // ---- aggregation ----
        let mut group_col: Option<String> = intent.group_hint.as_ref().and_then(|h| {
            if schema.index_of(h).is_some() {
                Some(h.clone())
            } else if h == "subject" || intent.comparative {
                resolve_subject_column(&schema)
            } else {
                resolve_metric_column(&schema, h).or_else(|| resolve_subject_column(&schema))
            }
        });
        // HAVING over per-entity aggregates implies grouping by the
        // entities ("which drugs had an average efficacy above 72?").
        if group_col.is_none() && (!having.is_empty() || intent.comparative) {
            group_col = resolve_subject_column(&schema);
        }

        if let Some((func, agg_metric)) = &effective_aggregate {
            let input = match func {
                AggFunc::Count => Expr::lit(1i64),
                _ => {
                    let col = value_column.clone().ok_or_else(|| {
                        SynthesisError::NoMetricColumn(agg_metric.clone().unwrap_or_default())
                    })?;
                    Expr::col(col)
                }
            };
            let out_name = format!("{}_value", func.name().to_lowercase());
            let group_by: Vec<(Expr, String)> =
                group_col.iter().map(|c| (Expr::col(c.clone()), c.clone())).collect();
            plan = plan.aggregate(
                group_by,
                vec![AggExpr { func: *func, input, output_name: out_name.clone() }],
            );
            // HAVING conditions apply over the aggregate output.
            let having_pred = having
                .iter()
                .map(|(op, v)| {
                    let lhs = Expr::col(out_name.clone());
                    let rhs = Expr::lit(v.clone());
                    match op {
                        CmpOp::Eq => lhs.eq(rhs),
                        CmpOp::Gt => lhs.gt(rhs),
                        CmpOp::Ge => lhs.ge(rhs),
                        CmpOp::Lt => lhs.lt(rhs),
                        CmpOp::Le => lhs.le(rhs),
                    }
                })
                .reduce(Expr::and);
            if let Some(pred) = having_pred {
                plan = plan.filter(pred);
            }
            // Ordering: explicit superlative first; comparative questions
            // default to descending so the winner is row 0.
            let sort_descending = intent
                .sort
                .as_ref()
                .map(|s| s.descending)
                .or_else(|| intent.comparative.then_some(true));
            if let Some(descending) = sort_descending {
                if group_col.is_some() {
                    plan = plan
                        .sort(vec![SortKey { expr: Expr::col(out_name), ascending: !descending }]);
                    if matches!(func, AggFunc::Max | AggFunc::Min) && intent.limit.is_none() {
                        plan = plan.limit(1);
                    }
                }
            }
        } else if let Some(SortIntent { metric_hint, descending }) = &intent.sort {
            let col = if extracted {
                value_column.clone()
            } else {
                resolve_metric_column(&schema, metric_hint)
            };
            if let Some(col) = col {
                plan = plan.sort(vec![SortKey { expr: Expr::col(col), ascending: !descending }]);
            }
        }

        if let Some(n) = intent.limit {
            plan = plan.limit(n);
        }
        Ok(plan)
    }

    /// The equi-join key pair shared by two tables: an exact shared column
    /// name, else subject-ish columns on both sides.
    fn join_keys(
        &self,
        db: &Database,
        left: &str,
        right: &str,
    ) -> Result<Option<Vec<(String, String)>>, SynthesisError> {
        let ls = db.table(left)?.schema().clone();
        let rs = db.table(right)?.schema().clone();
        // Exact shared column name.
        for c in ls.columns() {
            if rs.index_of(&c.name).is_some() {
                return Ok(Some(vec![(c.name.clone(), c.name.clone())]));
            }
        }
        // Subject-ish column on the left matching a name-ish column right.
        let lsub = resolve_subject_column(&ls);
        let rsub = resolve_subject_column(&rs);
        if let (Some(l), Some(r)) = (lsub, rsub) {
            return Ok(Some(vec![(l, r)]));
        }
        Ok(None)
    }

    /// Finds a join key shared by two tables (same column name on both
    /// sides, or a `name`-like column matching a subject column) and
    /// synthesizes the joined plan. Returns `None` when no key exists.
    pub fn join_plan(
        &self,
        db: &Database,
        left: &str,
        right: &str,
    ) -> Result<Option<LogicalPlan>, SynthesisError> {
        Ok(self
            .join_keys(db, left, right)?
            .map(|on| LogicalPlan::scan(left).join(LogicalPlan::scan(right), on)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::IntentParser;
    use unisem_relstore::{DataType, Schema, Table};
    use unisem_slm::ner::EntityKind;
    use unisem_slm::{Lexicon, Slm, SlmConfig};

    fn parser() -> IntentParser {
        let lexicon = Lexicon::new().with_entries([
            ("Product Alpha", EntityKind::Product),
            ("Product Beta", EntityKind::Product),
        ]);
        IntentParser::new(Slm::new(SlmConfig { lexicon, ..SlmConfig::default() }))
    }

    /// Synthesizes the plan for `question` against `table` and runs it.
    fn run(question: &str, db: &Database, table: &str) -> Table {
        let intent = parser().analyze(question);
        let plan = OperatorSynthesizer::new().synthesize(&intent, db, table).unwrap();
        db.run_plan(&plan).unwrap()
    }

    fn native_db() -> Database {
        let mut db = Database::new();
        let t = Table::from_rows(
            Schema::of(&[
                ("product", DataType::Str),
                ("quarter", DataType::Str),
                ("sales", DataType::Float),
                ("rating", DataType::Float),
            ]),
            vec![
                vec![
                    Value::str("Product Alpha"),
                    Value::str("Q1"),
                    Value::Float(100.0),
                    Value::Float(4.0),
                ],
                vec![
                    Value::str("Product Alpha"),
                    Value::str("Q2"),
                    Value::Float(150.0),
                    Value::Float(4.5),
                ],
                vec![
                    Value::str("Product Beta"),
                    Value::str("Q1"),
                    Value::Float(90.0),
                    Value::Float(3.5),
                ],
                vec![
                    Value::str("Product Beta"),
                    Value::str("Q2"),
                    Value::Float(60.0),
                    Value::Float(3.0),
                ],
            ],
        )
        .unwrap();
        db.create_table("sales", t).unwrap();
        db
    }

    fn extracted_db() -> Database {
        let mut db = Database::new();
        let t = Table::from_rows(
            Schema::of(&[
                ("subject", DataType::Str),
                ("metric", DataType::Str),
                ("period", DataType::Str),
                ("change_pct", DataType::Float),
                ("amount", DataType::Float),
            ]),
            vec![
                vec![
                    Value::str("product alpha"),
                    Value::str("sales"),
                    Value::str("Q2"),
                    Value::Float(20.0),
                    Value::Float(150.0),
                ],
                vec![
                    Value::str("product beta"),
                    Value::str("sales"),
                    Value::str("Q2"),
                    Value::Float(-5.0),
                    Value::Float(60.0),
                ],
                vec![
                    Value::str("product alpha"),
                    Value::str("rating"),
                    Value::str("Q2"),
                    Value::Null,
                    Value::Float(4.5),
                ],
            ],
        )
        .unwrap();
        db.create_table("extracted", t).unwrap();
        db
    }

    #[test]
    fn total_sales_q2_native() {
        let out = run("What is the total sales in Q2?", &native_db(), "sales");
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.cell(0, 0), &Value::Float(210.0));
    }

    #[test]
    fn compare_products_native() {
        let out =
            run("Compare the total sales of Product Alpha and Product Beta", &native_db(), "sales");
        assert_eq!(out.num_rows(), 2);
        // Grouped by product.
        let alpha = (0..2).find(|&i| out.cell(i, 0) == &Value::str("Product Alpha")).unwrap();
        assert_eq!(out.cell(alpha, 1), &Value::Float(250.0));
    }

    #[test]
    fn highest_rating_native() {
        // "average rating per product" + highest: avg-grouped, max ordering.
        let out =
            run("Which product had the highest average rating per product?", &native_db(), "sales");
        assert!(out.num_rows() >= 1);
        assert_eq!(out.cell(0, 0), &Value::str("Product Alpha"));
    }

    #[test]
    fn threshold_filter_extracted() {
        let out = run(
            "Which products had a sales increase of more than 15%?",
            &extracted_db(),
            "extracted",
        );
        assert_eq!(out.num_rows(), 1);
        let subj = out.schema().index_of("subject").unwrap();
        assert_eq!(out.cell(0, subj), &Value::str("product alpha"));
    }

    #[test]
    fn metric_as_data_filter_extracted() {
        let out = run("What is the total sales amount in Q2?", &extracted_db(), "extracted");
        // Only metric='sales' rows: 150 + 60.
        assert_eq!(out.cell(0, 0), &Value::Float(210.0));
    }

    #[test]
    fn period_prefix_tolerant() {
        let mut db = Database::new();
        let t = Table::from_rows(
            Schema::of(&[("period", DataType::Str), ("amount", DataType::Float)]),
            vec![
                vec![Value::str("Q2 2024"), Value::Float(10.0)],
                vec![Value::str("Q3 2024"), Value::Float(20.0)],
            ],
        )
        .unwrap();
        db.create_table("t", t).unwrap();
        let out = run("total amount in Q2", &db, "t");
        assert_eq!(out.cell(0, 0), &Value::Float(10.0));
    }

    #[test]
    fn missing_metric_errors() {
        let mut db = Database::new();
        let t = Table::from_rows(Schema::of(&[("x", DataType::Int)]), vec![vec![Value::Int(1)]])
            .unwrap();
        db.create_table("t", t).unwrap();
        let intent = parser().analyze("what is the average efficacy?");
        let r = OperatorSynthesizer::new().synthesize(&intent, &db, "t");
        assert!(matches!(r, Err(SynthesisError::NoMetricColumn(_))));
    }

    #[test]
    fn join_plan_shared_column() {
        let mut db = native_db();
        let makers = Table::from_rows(
            Schema::of(&[("product", DataType::Str), ("maker", DataType::Str)]),
            vec![vec![Value::str("Product Alpha"), Value::str("Acme")]],
        )
        .unwrap();
        db.create_table("makers", makers).unwrap();
        let plan = OperatorSynthesizer::new()
            .join_plan(&db, "sales", "makers")
            .unwrap()
            .expect("join key found");
        let out = db.run_plan(&plan).unwrap();
        assert_eq!(out.num_rows(), 2); // alpha rows only
        assert!(out.schema().index_of("maker").is_some());
    }

    #[test]
    fn join_plan_none_when_disjoint() {
        let mut db = Database::new();
        let a = Table::from_rows(Schema::of(&[("x", DataType::Int)]), vec![vec![Value::Int(1)]])
            .unwrap();
        let b = Table::from_rows(Schema::of(&[("y", DataType::Int)]), vec![vec![Value::Int(1)]])
            .unwrap();
        db.create_table("a", a).unwrap();
        db.create_table("b", b).unwrap();
        assert!(OperatorSynthesizer::new().join_plan(&db, "a", "b").unwrap().is_none());
    }

    #[test]
    fn display_period_forms() {
        assert_eq!(display_period("q2 2024"), "Q2 2024");
        assert_eq!(display_period("Q3"), "Q3");
        assert_eq!(display_period("March 2024"), "March 2024");
    }

    #[test]
    fn resolve_metric_synonyms() {
        let s = Schema::of(&[("amount", DataType::Float)]);
        assert_eq!(resolve_metric_column(&s, "sales"), Some("amount".into()));
        assert_eq!(resolve_metric_column(&s, "revenue"), Some("amount".into()));
        let s2 = Schema::of(&[("satisfaction", DataType::Float)]);
        assert_eq!(resolve_metric_column(&s2, "rating"), Some("satisfaction".into()));
        assert_eq!(resolve_metric_column(&s2, "unrelated_xyz"), None);
    }

    #[test]
    fn count_units_question() {
        let out = run("How many products are listed?", &native_db(), "sales");
        assert_eq!(out.cell(0, 0), &Value::Int(4));
    }
}
