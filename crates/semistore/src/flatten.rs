//! Schema discovery and relational flattening.
//!
//! Converts a homogeneous-ish collection of JSON documents into a
//! `unisem-relstore` [`Table`]: nested objects flatten to dot-separated
//! column names (`user.name`), scalar arrays are serialized to JSON text,
//! and column types are inferred as the narrowest type admitting every
//! observed value.
//!
//! This is the bridge that lets JSON logs participate in the TableQA
//! pipelines of §III.C.

use std::collections::BTreeMap;
use std::fmt;

use unisem_relstore::{Column, DataType, Date, RelError, Schema, Table, Value};

use crate::json::JsonValue;

/// Errors from flattening.
#[derive(Debug, Clone, PartialEq)]
pub enum FlattenError {
    /// A document was not an object.
    NonObjectDocument(usize),
    /// The relational layer rejected the result.
    Rel(RelError),
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenError::NonObjectDocument(i) => {
                write!(f, "document {i} is not a JSON object")
            }
            FlattenError::Rel(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for FlattenError {}

impl From<RelError> for FlattenError {
    fn from(e: RelError) -> Self {
        FlattenError::Rel(e)
    }
}

/// Flattens one object into `(dotted path, leaf value)` pairs.
fn flatten_doc(doc: &JsonValue, prefix: &str, out: &mut Vec<(String, JsonValue)>) {
    match doc {
        JsonValue::Object(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                match v {
                    JsonValue::Object(_) => flatten_doc(v, &path, out),
                    other => out.push((path, other.clone())),
                }
            }
        }
        other => out.push((prefix.to_string(), other.clone())),
    }
}

/// Converts a JSON leaf into a relational value.
fn leaf_value(v: &JsonValue) -> Value {
    match v {
        JsonValue::Null => Value::Null,
        JsonValue::Bool(b) => Value::Bool(*b),
        JsonValue::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                Value::Int(*n as i64)
            } else {
                Value::float(*n)
            }
        }
        JsonValue::String(s) => {
            // Date-looking strings become dates.
            match Date::parse(s) {
                Some(d) => Value::Date(d),
                None => Value::str(s.clone()),
            }
        }
        // Arrays (and any nested structure reaching here) serialize to text.
        other => Value::str(other.to_json()),
    }
}

/// Discovers the union schema of a document collection.
///
/// Column order is alphabetical by dotted path (deterministic); types are
/// the narrowest unifying type, falling back to `Str` on conflict.
pub fn discover_schema(docs: &[JsonValue]) -> Result<Schema, FlattenError> {
    let mut types: BTreeMap<String, Option<DataType>> = BTreeMap::new();
    for (i, d) in docs.iter().enumerate() {
        if !matches!(d, JsonValue::Object(_)) {
            return Err(FlattenError::NonObjectDocument(i));
        }
        let mut pairs = Vec::new();
        flatten_doc(d, "", &mut pairs);
        for (path, v) in pairs {
            let val = leaf_value(&v);
            let entry = types.entry(path).or_insert(None);
            if let Some(dt) = DataType::of(&val) {
                *entry = match entry {
                    None => Some(dt),
                    Some(prev) => Some(DataType::unify(*prev, dt).unwrap_or(DataType::Str)),
                };
            }
        }
    }
    let cols: Vec<Column> = types
        .into_iter()
        .map(|(name, dt)| Column::new(name, dt.unwrap_or(DataType::Str)))
        .collect();
    Schema::new(cols).map_err(FlattenError::from)
}

/// Flattens a document collection into a table with the discovered schema.
///
/// Missing fields become NULL; type conflicts stringify the column.
pub fn flatten_collection(docs: &[JsonValue]) -> Result<Table, FlattenError> {
    let schema = discover_schema(docs)?;
    let mut table = Table::empty(schema.clone());
    for d in docs {
        let mut pairs = Vec::new();
        flatten_doc(d, "", &mut pairs);
        let by_path: BTreeMap<String, Value> =
            pairs.into_iter().map(|(p, v)| (p, leaf_value(&v))).collect();
        let row: Vec<Value> = schema
            .columns()
            .iter()
            .map(|c| {
                let v = by_path.get(&c.name).cloned().unwrap_or(Value::Null);
                // Stringify when the column fell back to Str but the value
                // is typed differently.
                if !c.dtype.admits(&v) {
                    Value::str(v.to_string())
                } else {
                    v
                }
            })
            .collect();
        table.push_row(row)?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn docs() -> Vec<JsonValue> {
        vec![
            parse_json(r#"{"id": 1, "user": {"name": "alice"}, "score": 9.5, "ts": "2024-01-02"}"#)
                .unwrap(),
            parse_json(r#"{"id": 2, "user": {"name": "bob", "vip": true}, "score": 7}"#).unwrap(),
        ]
    }

    #[test]
    fn schema_union_and_order() {
        let s = discover_schema(&docs()).unwrap();
        let names: Vec<&str> = s.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["id", "score", "ts", "user.name", "user.vip"]);
    }

    #[test]
    fn types_inferred() {
        let s = discover_schema(&docs()).unwrap();
        let ty = |n: &str| s.column(s.index_of(n).unwrap()).dtype;
        assert_eq!(ty("id"), DataType::Int);
        assert_eq!(ty("score"), DataType::Float); // 9.5 and 7 unify to Float
        assert_eq!(ty("ts"), DataType::Date);
        assert_eq!(ty("user.vip"), DataType::Bool);
    }

    #[test]
    fn missing_fields_are_null() {
        let t = flatten_collection(&docs()).unwrap();
        assert_eq!(t.num_rows(), 2);
        let vip = t.schema().index_of("user.vip").unwrap();
        assert!(t.cell(0, vip).is_null());
        assert_eq!(t.cell(1, vip), &Value::Bool(true));
        let ts = t.schema().index_of("ts").unwrap();
        assert!(t.cell(1, ts).is_null());
    }

    #[test]
    fn type_conflict_stringifies() {
        let docs = vec![parse_json(r#"{"x": 1}"#).unwrap(), parse_json(r#"{"x": "one"}"#).unwrap()];
        let t = flatten_collection(&docs).unwrap();
        let x = t.schema().index_of("x").unwrap();
        assert_eq!(t.schema().column(x).dtype, DataType::Str);
        assert_eq!(t.cell(0, x), &Value::str("1"));
        assert_eq!(t.cell(1, x), &Value::str("one"));
    }

    #[test]
    fn arrays_serialize() {
        let docs = vec![parse_json(r#"{"tags": ["a", "b"]}"#).unwrap()];
        let t = flatten_collection(&docs).unwrap();
        assert_eq!(t.cell(0, 0), &Value::str("[\"a\",\"b\"]"));
    }

    #[test]
    fn non_object_rejected() {
        let docs = vec![parse_json("[1,2]").unwrap()];
        assert!(matches!(flatten_collection(&docs), Err(FlattenError::NonObjectDocument(0))));
    }

    #[test]
    fn empty_collection() {
        let t = flatten_collection(&[]).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    #[test]
    fn flattened_table_queryable() {
        use unisem_relstore::{Database, Expr, LogicalPlan};
        let t = flatten_collection(&docs()).unwrap();
        let mut db = Database::new();
        db.create_table("logs", t).unwrap();
        let plan = LogicalPlan::scan("logs").filter(Expr::col("score").gt(Expr::lit(8i64)));
        let out = db.run_plan(&plan).unwrap();
        assert_eq!(out.num_rows(), 1);
        let id = out.schema().require("id").unwrap();
        assert_eq!(out.cell(0, id), &Value::Int(1));
    }
}
