//! Healthcare EHR workload (the paper's §I motivating scenario: clinical
//! trial tables + unstructured clinical notes and patient forums).
//!
//! Gold-fact-consistent modalities:
//!
//! - `trials` (drug, condition, efficacy, dosage_mg) and `patients`
//!   (patient, age, condition) relational tables,
//! - `labs` JSON collection,
//! - clinical-note documents ("Patient P-101 received Coradrine on
//!   2024-02-03. The migraine improved within 9 days."),
//! - forum-post documents carrying side-effect reports,
//! - QA across all six categories, including the paper's flagship
//!   Multi-Entity example: comparing trial efficacy (structured) with
//!   patient-reported side effects (unstructured).

use detkit::Rng;

use unisem_docstore::DocStore;
use unisem_relstore::{DataType, Database, Date, Schema, Table, Value};
use unisem_semistore::{JsonValue, SemiStore};
use unisem_slm::ner::EntityKind;
use unisem_slm::Lexicon;

use crate::names;
use crate::qa::{GoldAnswer, QaCategory, QaItem};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct HealthcareConfig {
    /// Number of drugs.
    pub drugs: usize,
    /// Number of patients.
    pub patients: usize,
    /// Trials per drug (different dosages).
    pub trials_per_drug: usize,
    /// QA items per category.
    pub qa_per_category: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for HealthcareConfig {
    fn default() -> Self {
        Self { drugs: 8, patients: 16, trials_per_drug: 3, qa_per_category: 5, seed: 0x4EA17 }
    }
}

/// Side-effect pool reported in forum posts.
const SIDE_EFFECTS: &[&str] =
    &["drowsiness", "nausea", "dizziness", "dry mouth", "fatigue", "restlessness"];

/// The generated workload.
#[derive(Debug, Clone)]
pub struct HealthcareWorkload {
    /// Parameters used.
    pub config: HealthcareConfig,
    /// Relational substrate: `trials`, `patients`.
    pub db: Database,
    /// Semi-structured substrate: `labs` collection.
    pub semi: SemiStore,
    /// Unstructured documents in docstore order.
    pub documents: Vec<crate::ecommerce::DocSpec>,
    /// Domain lexicon.
    pub lexicon: Lexicon,
    /// QA benchmark.
    pub qa: Vec<QaItem>,
    /// Gold: average efficacy per drug.
    pub gold_efficacy: Vec<f64>,
    /// Gold: condition per drug.
    pub gold_condition: Vec<String>,
    /// Gold: drug received per patient.
    pub gold_patient_drug: Vec<usize>,
    /// Gold: side effect per drug.
    pub gold_side_effect: Vec<String>,
}

impl HealthcareWorkload {
    /// Generates the workload deterministically.
    pub fn generate(config: HealthcareConfig) -> Self {
        assert!(config.drugs >= 4, "need at least 4 drugs");
        assert!(config.patients >= 4, "need at least 4 patients");
        let mut rng = Rng::new(config.seed);
        let nd = config.drugs;
        let np = config.patients;

        let gold_condition: Vec<String> = (0..nd).map(|i| names::condition(i % 6)).collect();
        let gold_side_effect: Vec<String> =
            (0..nd).map(|i| SIDE_EFFECTS[i % SIDE_EFFECTS.len()].to_string()).collect();

        // ---- trials ----
        let mut trials = Table::empty(Schema::of(&[
            ("drug", DataType::Str),
            ("condition", DataType::Str),
            ("efficacy", DataType::Float),
            ("dosage_mg", DataType::Int),
        ]));
        let mut gold_efficacy = vec![0.0; nd];
        for i in 0..nd {
            let base = rng.gen_range(40..90) as f64;
            let mut total = 0.0;
            for t in 0..config.trials_per_drug {
                let eff = (base + rng.gen_range(-50..50) as f64 / 10.0).clamp(5.0, 99.0);
                let eff = (eff * 10.0).round() / 10.0;
                total += eff;
                trials
                    .push_row(vec![
                        Value::str(names::drug(i)),
                        Value::str(gold_condition[i].clone()),
                        Value::float(eff),
                        Value::Int((t as i64 + 1) * 10),
                    ])
                    .expect("schema fixed");
            }
            gold_efficacy[i] = {
                let avg = total / config.trials_per_drug as f64;
                (avg * 100.0).round() / 100.0
            };
        }

        // ---- patients ----
        let mut patients = Table::empty(Schema::of(&[
            ("patient", DataType::Str),
            ("age", DataType::Int),
            ("condition", DataType::Str),
        ]));
        let gold_patient_drug: Vec<usize> = (0..np).map(|k| k % nd).collect();
        for k in 0..np {
            patients
                .push_row(vec![
                    Value::str(names::patient_id(k)),
                    Value::Int(rng.gen_range(18..90i64)),
                    Value::str(gold_condition[gold_patient_drug[k]].clone()),
                ])
                .expect("schema fixed");
        }

        let mut db = Database::new();
        db.create_table("trials", trials).expect("fresh db");
        db.create_table("patients", patients).expect("fresh db");

        // ---- labs JSON ----
        let mut semi = SemiStore::new();
        for k in 0..np {
            semi.insert(
                "labs",
                JsonValue::object([
                    ("patient", JsonValue::String(names::patient_id(k))),
                    ("marker", JsonValue::String("crp".to_string())),
                    ("value", JsonValue::Number(rng.gen_range(1..120) as f64 / 10.0)),
                    ("date", JsonValue::String(format!("2024-0{}-1{}", k % 9 + 1, k % 9))),
                ]),
            );
        }

        // ---- documents ----
        let mut documents = Vec::new();
        // Clinical notes: doc id = k.
        for k in 0..np {
            let patient = names::patient_id(k);
            let drug = names::drug(gold_patient_drug[k]);
            let condition = &gold_condition[gold_patient_drug[k]];
            let date = Date::new(2024, (k % 12 + 1) as u8, (k % 27 + 1) as u8).expect("valid");
            let days = rng.gen_range(3..21);
            documents.push(crate::ecommerce::DocSpec {
                title: format!("note {patient}"),
                text: format!(
                    "Patient {patient} received {drug} on {date}. \
                     The {condition} improved within {days} days. \
                     Patient {patient} tolerated {drug} well."
                ),
                source: "clinical_note".to_string(),
            });
        }
        // Forum posts: doc id = np + i.
        let forum_doc = |i: usize| np + i;
        for i in 0..nd {
            let drug = names::drug(i);
            let effect = &gold_side_effect[i];
            documents.push(crate::ecommerce::DocSpec {
                title: format!("forum {drug}"),
                text: format!(
                    "I started {drug} last month and the main problem was {effect}. \
                     Several forum users taking {drug} also reported {effect}."
                ),
                source: "forum".to_string(),
            });
        }

        // ---- lexicon ----
        let mut lexicon = Lexicon::new();
        for i in 0..nd {
            lexicon.add(&names::drug(i), EntityKind::Drug);
        }
        for c in gold_condition.iter() {
            lexicon.add(c, EntityKind::Condition);
        }
        for e in SIDE_EFFECTS {
            lexicon.add(e, EntityKind::Condition);
        }
        for k in 0..np {
            lexicon.add(&format!("Patient {}", names::patient_id(k)), EntityKind::Person);
            lexicon.add(&names::patient_id(k), EntityKind::Person);
        }

        // ---- QA ----
        let mut qa = Vec::new();
        let mut next_id = 0usize;
        let mut push = |qa: &mut Vec<QaItem>,
                        question: String,
                        gold,
                        category,
                        docs: Vec<usize>,
                        ents: Vec<String>| {
            qa.push(QaItem {
                id: {
                    let id = next_id;
                    next_id += 1;
                    id
                },
                question,
                gold,
                category,
                gold_doc_ids: docs,
                entities: ents,
            });
        };

        for k in 0..config.qa_per_category {
            let pk = (k * 5 + 1) % np;
            let patient = names::patient_id(pk);
            let drug_idx = gold_patient_drug[pk];
            let drug = names::drug(drug_idx);

            // Lookup: which drug did a patient receive (only in notes).
            push(
                &mut qa,
                format!("Which drug did Patient {patient} receive?"),
                GoldAnswer::AnyOf(vec![drug.clone()]),
                QaCategory::SingleEntityLookup,
                vec![pk],
                vec![patient.to_lowercase()],
            );

            // Aggregate: average efficacy of a drug (trials table).
            let di = (k * 3 + 1) % nd;
            push(
                &mut qa,
                format!("What is the average efficacy of {}?", names::drug(di)),
                GoldAnswer::Numeric { value: gold_efficacy[di], tolerance: 0.02 },
                QaCategory::Aggregate,
                vec![],
                vec![names::drug(di).to_lowercase()],
            );

            // Multi-entity filter: drugs above an efficacy threshold.
            let mut effs: Vec<(usize, f64)> = gold_efficacy.iter().cloned().enumerate().collect();
            effs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let take = 1 + k % 3.min(nd - 1);
            let threshold = ((effs[take - 1].1 + effs[take].1) / 2.0).round();
            let qualifying: Vec<String> =
                effs.iter().filter(|(_, e)| *e > threshold).map(|(i, _)| names::drug(*i)).collect();
            if !qualifying.is_empty() && qualifying.len() < nd {
                push(
                    &mut qa,
                    format!("Which drugs had an average efficacy above {threshold}?"),
                    GoldAnswer::AllOf(qualifying.clone()),
                    QaCategory::MultiEntityFilter,
                    vec![],
                    qualifying.iter().map(|s| s.to_lowercase()).collect(),
                );
            }

            // Comparative: two drugs by efficacy.
            let a = (k * 7) % nd;
            let b = (k * 7 + 3) % nd;
            if a != b {
                let (da, db_) = (names::drug(a), names::drug(b));
                let winner =
                    if gold_efficacy[a] >= gold_efficacy[b] { da.clone() } else { db_.clone() };
                push(
                    &mut qa,
                    format!(
                        "Compare the efficacy of {da} and {db_}: which drug is more effective?"
                    ),
                    GoldAnswer::AnyOf(vec![winner]),
                    QaCategory::Comparative,
                    vec![],
                    vec![da.to_lowercase(), db_.to_lowercase()],
                );
            }

            // Cross-modal: side effects reported for a drug (forum text),
            // asked about the drug identified via the trials table framing.
            let ds = (k * 2 + 1) % nd;
            push(
                &mut qa,
                format!("What side effect did forum users report for {}?", names::drug(ds)),
                GoldAnswer::AnyOf(vec![gold_side_effect[ds].clone()]),
                QaCategory::CrossModal,
                vec![forum_doc(ds)],
                vec![names::drug(ds).to_lowercase()],
            );

            // Unanswerable: nonexistent drug.
            push(
                &mut qa,
                format!("What is the average efficacy of Fantasmol{k}?"),
                GoldAnswer::Abstain,
                QaCategory::Unanswerable,
                vec![],
                vec![format!("fantasmol{k}")],
            );
        }

        Self {
            config,
            db,
            semi,
            documents,
            lexicon,
            qa,
            gold_efficacy,
            gold_condition,
            gold_patient_drug,
            gold_side_effect,
        }
    }

    /// Builds a [`DocStore`] with the workload documents.
    pub fn docstore(&self) -> DocStore {
        let mut d = DocStore::default();
        for spec in &self.documents {
            d.add_document(spec.title.clone(), spec.text.clone(), spec.source.clone());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_relstore::{AggExpr, AggFunc, Expr, LogicalPlan};

    fn small() -> HealthcareWorkload {
        HealthcareWorkload::generate(HealthcareConfig {
            drugs: 5,
            patients: 8,
            trials_per_drug: 2,
            qa_per_category: 2,
            seed: 11,
        })
    }

    #[test]
    fn deterministic() {
        assert_eq!(small().documents, small().documents);
        assert_eq!(small().qa, small().qa);
    }

    #[test]
    fn trials_match_gold_efficacy() {
        let w = small();
        for i in 0..5 {
            let input = Expr::col("efficacy");
            let avg = AggExpr { func: AggFunc::Avg, input, output_name: "e".into() };
            let plan = LogicalPlan::scan("trials")
                .filter(Expr::col("drug").eq(Expr::lit(names::drug(i))))
                .aggregate(vec![], vec![avg]);
            let out = w.db.run_plan(&plan).unwrap();
            let avg = out.cell(0, 0).as_f64().unwrap();
            assert!((avg - w.gold_efficacy[i]).abs() < 0.01, "{avg} vs {}", w.gold_efficacy[i]);
        }
    }

    #[test]
    fn notes_contain_patient_drug_facts() {
        let w = small();
        for k in 0..8 {
            let note = &w.documents[k];
            assert!(note.text.contains(&names::patient_id(k)));
            assert!(note.text.contains(&names::drug(w.gold_patient_drug[k])));
        }
    }

    #[test]
    fn forum_posts_contain_side_effects() {
        let w = small();
        for i in 0..5 {
            let post = &w.documents[8 + i];
            assert!(post.text.contains(&w.gold_side_effect[i]));
            assert!(post.text.contains(&names::drug(i)));
        }
    }

    #[test]
    fn qa_all_categories() {
        let w = small();
        for cat in QaCategory::ALL {
            assert!(w.qa.iter().any(|i| i.category == cat), "missing {cat:?}");
        }
    }

    #[test]
    fn lexicon_recognizes_drugs_and_patients() {
        let w = small();
        assert!(w.lexicon.get(&names::drug(0).to_lowercase()).is_some());
        assert!(w.lexicon.get(&names::patient_id(0).to_lowercase()).is_some());
    }

    #[test]
    fn labs_flatten() {
        let w = small();
        let t = w.semi.to_table("labs").unwrap();
        assert_eq!(t.num_rows(), 8);
        assert!(t.schema().index_of("value").is_some());
    }
}
