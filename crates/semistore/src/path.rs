//! JSONPath-lite: `$.field.nested[0].x`, `$.items[*].name`.
//!
//! Supported steps after the root `$`:
//! - `.name` — object field,
//! - `[N]` — array index,
//! - `[*]` — all array elements (fan-out),
//! - `.*` — all object values (fan-out).

use std::fmt;

use crate::json::JsonValue;

/// Path parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError(pub String);

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path error: {}", self.0)
    }
}

impl std::error::Error for PathError {}

/// One step of a parsed path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Field(String),
    Index(usize),
    AllElements,
    AllValues,
}

/// A compiled JSON path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonPath {
    steps: Vec<Step>,
    source: String,
}

impl JsonPath {
    /// Parses a path expression.
    ///
    /// ```
    /// use unisem_semistore::{parse_json, JsonPath};
    /// let doc = parse_json(r#"{"items": [{"n": 1}, {"n": 2}]}"#).unwrap();
    /// let path = JsonPath::parse("$.items[*].n").unwrap();
    /// let hits = path.eval(&doc);
    /// assert_eq!(hits.len(), 2);
    /// ```
    pub fn parse(path: &str) -> Result<JsonPath, PathError> {
        let mut chars = path.chars().peekable();
        if chars.next() != Some('$') {
            return Err(PathError("path must start with '$'".into()));
        }
        let mut steps = Vec::new();
        while let Some(&c) = chars.peek() {
            match c {
                '.' => {
                    chars.next();
                    if chars.peek() == Some(&'*') {
                        chars.next();
                        steps.push(Step::AllValues);
                        continue;
                    }
                    let mut name = String::new();
                    while let Some(&c2) = chars.peek() {
                        if c2 == '.' || c2 == '[' {
                            break;
                        }
                        name.push(c2);
                        chars.next();
                    }
                    if name.is_empty() {
                        return Err(PathError("empty field name".into()));
                    }
                    steps.push(Step::Field(name));
                }
                '[' => {
                    chars.next();
                    if chars.peek() == Some(&'*') {
                        chars.next();
                        if chars.next() != Some(']') {
                            return Err(PathError("expected ']' after '*'".into()));
                        }
                        steps.push(Step::AllElements);
                        continue;
                    }
                    let mut digits = String::new();
                    while let Some(&c2) = chars.peek() {
                        if c2 == ']' {
                            break;
                        }
                        digits.push(c2);
                        chars.next();
                    }
                    if chars.next() != Some(']') {
                        return Err(PathError("unterminated index".into()));
                    }
                    let idx: usize =
                        digits.parse().map_err(|_| PathError(format!("bad index: {digits}")))?;
                    steps.push(Step::Index(idx));
                }
                other => return Err(PathError(format!("unexpected character: {other}"))),
            }
        }
        Ok(JsonPath { steps, source: path.to_string() })
    }

    /// The original path text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Evaluates the path, returning all matching values.
    pub fn eval<'a>(&self, root: &'a JsonValue) -> Vec<&'a JsonValue> {
        let mut current: Vec<&'a JsonValue> = vec![root];
        for step in &self.steps {
            let mut next = Vec::new();
            for v in current {
                match step {
                    Step::Field(name) => {
                        if let Some(x) = v.get(name) {
                            next.push(x);
                        }
                    }
                    Step::Index(i) => {
                        if let Some(x) = v.at(*i) {
                            next.push(x);
                        }
                    }
                    Step::AllElements => {
                        if let JsonValue::Array(items) = v {
                            next.extend(items.iter());
                        }
                    }
                    Step::AllValues => {
                        if let JsonValue::Object(fields) = v {
                            next.extend(fields.iter().map(|(_, x)| x));
                        }
                    }
                }
            }
            current = next;
        }
        current
    }

    /// Evaluates expecting exactly one match.
    pub fn eval_one<'a>(&self, root: &'a JsonValue) -> Option<&'a JsonValue> {
        let hits = self.eval(root);
        if hits.len() == 1 {
            Some(hits[0])
        } else {
            None
        }
    }
}

impl fmt::Display for JsonPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn doc() -> JsonValue {
        parse_json(
            r#"{
                "user": {"name": "alice", "age": 30},
                "orders": [
                    {"sku": "A1", "qty": 2},
                    {"sku": "B2", "qty": 5}
                ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn field_chain() {
        let p = JsonPath::parse("$.user.name").unwrap();
        assert_eq!(p.eval_one(&doc()).unwrap().as_str(), Some("alice"));
    }

    #[test]
    fn array_index() {
        let p = JsonPath::parse("$.orders[1].sku").unwrap();
        assert_eq!(p.eval_one(&doc()).unwrap().as_str(), Some("B2"));
    }

    #[test]
    fn wildcard_elements() {
        let p = JsonPath::parse("$.orders[*].qty").unwrap();
        let d = doc();
        let hits = p.eval(&d);
        let qtys: Vec<f64> = hits.iter().filter_map(|v| v.as_f64()).collect();
        assert_eq!(qtys, vec![2.0, 5.0]);
    }

    #[test]
    fn wildcard_values() {
        let p = JsonPath::parse("$.user.*").unwrap();
        assert_eq!(p.eval(&doc()).len(), 2);
    }

    #[test]
    fn missing_yields_empty() {
        let p = JsonPath::parse("$.nope.deeper").unwrap();
        assert!(p.eval(&doc()).is_empty());
        assert!(p.eval_one(&doc()).is_none());
    }

    #[test]
    fn root_only() {
        let p = JsonPath::parse("$").unwrap();
        assert_eq!(p.eval(&doc()).len(), 1);
    }

    #[test]
    fn out_of_bounds_index() {
        let p = JsonPath::parse("$.orders[9]").unwrap();
        assert!(p.eval(&doc()).is_empty());
    }

    #[test]
    fn eval_one_rejects_multi() {
        let p = JsonPath::parse("$.orders[*]").unwrap();
        assert!(p.eval_one(&doc()).is_none());
    }

    #[test]
    fn parse_errors() {
        assert!(JsonPath::parse("user.name").is_err());
        assert!(JsonPath::parse("$.").is_err());
        assert!(JsonPath::parse("$.a[b]").is_err());
        assert!(JsonPath::parse("$.a[1").is_err());
        assert!(JsonPath::parse("$.a[*").is_err());
        assert!(JsonPath::parse("$x").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let p = JsonPath::parse("$.orders[*].sku").unwrap();
        assert_eq!(p.to_string(), "$.orders[*].sku");
    }
}
