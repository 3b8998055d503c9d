//! Minimal XML support: the paper's §I lists "XML configurations" among the
//! semi-structured formats. Parsed documents convert into the same
//! [`JsonValue`] model as JSON, so the whole downstream pipeline (path
//! queries, flattening, TableQA) works unchanged.
//!
//! Supported subset: elements, attributes, text content, self-closing tags,
//! comments, XML declarations, and the five predefined entities. Not
//! supported (rejected or skipped): DTDs, CDATA, processing instructions,
//! namespaces-as-semantics (prefixes are kept verbatim in names).
//!
//! Mapping rules (the common "attributes with `@`, text with `#text`"
//! convention):
//! - `<a x="1">t</a>`        → `{"@x": "1", "#text": "t"}`
//! - repeated child elements → a JSON array,
//! - a pure-text element     → its text string,
//! - an empty element        → `null`.

use std::fmt;

use crate::json::JsonValue;

/// XML parse errors with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset where the error was detected.
    pub position: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parses an XML document into a [`JsonValue`] rooted at an object with one
/// key — the root element's name.
pub fn parse_xml(input: &str) -> Result<JsonValue, XmlError> {
    let mut p = XmlParser { chars: input.char_indices().collect(), pos: 0 };
    p.skip_prolog()?;
    let (name, value) = p.parse_element()?;
    p.skip_ws_and_comments()?;
    if p.pos < p.chars.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(JsonValue::object([(name, value)]))
}

struct XmlParser {
    chars: Vec<(usize, char)>,
    pos: usize,
}

impl XmlParser {
    fn err(&self, msg: &str) -> XmlError {
        let position = self.chars.get(self.pos).map_or(0, |&(b, _)| b);
        XmlError { message: msg.to_string(), position }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.chars[self.pos..].iter().map(|&(_, c)| c).take(s.chars().count()).eq(s.chars())
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.advance(4);
                loop {
                    if self.pos >= self.chars.len() {
                        return Err(self.err("unterminated comment"));
                    }
                    if self.starts_with("-->") {
                        self.advance(3);
                        break;
                    }
                    self.pos += 1;
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws_and_comments()?;
        if self.starts_with("<?") {
            while self.pos < self.chars.len() && !self.starts_with("?>") {
                self.pos += 1;
            }
            if !self.starts_with("?>") {
                return Err(self.err("unterminated XML declaration"));
            }
            self.advance(2);
        }
        self.skip_ws_and_comments()
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                name.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        if name.is_empty() {
            Err(self.err("expected a name"))
        } else {
            Ok(name)
        }
    }

    /// Parses `<name attr="v" ...>children</name>` starting at `<`.
    /// Returns `(name, value)`.
    fn parse_element(&mut self) -> Result<(String, JsonValue), XmlError> {
        if self.peek() != Some('<') {
            return Err(self.err("expected '<'"));
        }
        self.advance(1);
        let name = self.parse_name()?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.advance(1);
                    if self.peek() != Some('>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.advance(1);
                    return Ok((name, finalize(fields, String::new())));
                }
                Some('>') => {
                    self.advance(1);
                    break;
                }
                Some(c) if c.is_alphanumeric() || c == '_' => {
                    let attr = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some('=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.advance(1);
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    self.advance(1);
                    let mut value = String::new();
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated attribute value")),
                            Some(c) if c == quote => {
                                self.advance(1);
                                break;
                            }
                            Some('&') => value.push_str(&self.parse_entity()?),
                            Some(c) => {
                                value.push(c);
                                self.advance(1);
                            }
                        }
                    }
                    fields.push((format!("@{attr}"), JsonValue::String(value)));
                }
                _ => return Err(self.err("malformed tag")),
            }
        }

        // Children and text.
        let mut text = String::new();
        loop {
            if self.pos >= self.chars.len() {
                return Err(self.err("unterminated element"));
            }
            if self.starts_with("<!--") {
                self.skip_ws_and_comments()?;
                continue;
            }
            if self.starts_with("</") {
                self.advance(2);
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(&format!("mismatched close tag </{close}> for <{name}>")));
                }
                self.skip_ws();
                if self.peek() != Some('>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.advance(1);
                return Ok((name, finalize(fields, text)));
            }
            if self.peek() == Some('<') {
                let (child_name, child_value) = self.parse_element()?;
                fields.push((child_name, child_value));
                continue;
            }
            match self.peek() {
                Some('&') => text.push_str(&self.parse_entity()?),
                Some(c) => {
                    text.push(c);
                    self.advance(1);
                }
                None => return Err(self.err("unterminated element")),
            }
        }
    }

    fn parse_entity(&mut self) -> Result<String, XmlError> {
        // At '&'.
        let entities: [(&str, &str); 5] =
            [("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&"), ("&quot;", "\""), ("&apos;", "'")];
        for (pat, rep) in entities {
            if self.starts_with(pat) {
                self.advance(pat.chars().count());
                return Ok(rep.to_string());
            }
        }
        Err(self.err("unknown entity"))
    }
}

/// XML carries no value types; infer numbers and booleans from text so
/// downstream flattening produces typed columns (`<port>8080</port>` →
/// an INT column, not a STR one).
fn infer_text(s: &str) -> JsonValue {
    if s.eq_ignore_ascii_case("true") {
        return JsonValue::Bool(true);
    }
    if s.eq_ignore_ascii_case("false") {
        return JsonValue::Bool(false);
    }
    if let Ok(n) = s.parse::<f64>() {
        if n.is_finite() {
            return JsonValue::Number(n);
        }
    }
    JsonValue::String(s.to_string())
}

/// Builds the element's JSON value from attribute/child fields plus text.
fn finalize(mut fields: Vec<(String, JsonValue)>, text: String) -> JsonValue {
    let text = text.trim();
    if fields.is_empty() {
        return if text.is_empty() { JsonValue::Null } else { infer_text(text) };
    }
    if !text.is_empty() {
        fields.push(("#text".to_string(), infer_text(text)));
    }
    // Merge repeated child names into arrays (stable order of first
    // occurrence).
    let mut merged: Vec<(String, JsonValue)> = Vec::new();
    for (k, v) in fields {
        match merged.iter_mut().find(|(mk, _)| *mk == k) {
            Some((_, existing)) => match existing {
                JsonValue::Array(items) => items.push(v),
                other => {
                    let prev = std::mem::replace(other, JsonValue::Null);
                    *other = JsonValue::Array(vec![prev, v]);
                }
            },
            None => merged.push((k, v)),
        }
    }
    JsonValue::Object(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_element() {
        let v = parse_xml("<config><host>localhost</host><port>8080</port></config>").unwrap();
        let c = v.get("config").unwrap();
        assert_eq!(c.get("host").unwrap().as_str(), Some("localhost"));
        assert_eq!(c.get("port").unwrap().as_f64(), Some(8080.0));
    }

    #[test]
    fn attributes_and_text() {
        let v = parse_xml(r#"<server env="prod">primary</server>"#).unwrap();
        let s = v.get("server").unwrap();
        assert_eq!(s.get("@env").unwrap().as_str(), Some("prod"));
        assert_eq!(s.get("#text").unwrap().as_str(), Some("primary"));
    }

    #[test]
    fn repeated_children_become_array() {
        let v = parse_xml("<list><item>a</item><item>b</item><item>c</item></list>").unwrap();
        let items = v.get("list").unwrap().get("item").unwrap();
        match items {
            JsonValue::Array(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected array, got {other}"),
        }
    }

    #[test]
    fn self_closing_and_empty() {
        let v = parse_xml("<a><b/><c></c></a>").unwrap();
        assert!(v.get("a").unwrap().get("b").unwrap().is_null());
        assert!(v.get("a").unwrap().get("c").unwrap().is_null());
    }

    #[test]
    fn prolog_and_comments_skipped() {
        let v = parse_xml("<?xml version=\"1.0\"?>\n<!-- top comment -->\n<r><!-- inner -->ok</r>")
            .unwrap();
        assert_eq!(v.get("r").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn entities_decoded() {
        let v = parse_xml("<t>a &lt; b &amp; c &quot;q&quot;</t>").unwrap();
        assert_eq!(v.get("t").unwrap().as_str(), Some("a < b & c \"q\""));
    }

    #[test]
    fn nested_structures() {
        let xml = r#"
            <catalog>
              <product sku="A1"><name>Aero Widget</name><price>99.5</price></product>
              <product sku="B2"><name>Nova Speaker</name><price>59.0</price></product>
            </catalog>"#;
        let v = parse_xml(xml).unwrap();
        let products = v.get("catalog").unwrap().get("product").unwrap();
        let name = |i| products.at(i).unwrap().get("name").unwrap().as_str();
        assert_eq!(name(0), Some("Aero Widget"));
        assert_eq!(name(1), Some("Nova Speaker"));
        assert!(products.at(2).is_none());
    }

    #[test]
    fn errors() {
        assert!(parse_xml("").is_err());
        assert!(parse_xml("<a><b></a></b>").is_err());
        assert!(parse_xml("<a>unclosed").is_err());
        assert!(parse_xml("<a x=unquoted></a>").is_err());
        assert!(parse_xml("<a>&unknown;</a>").is_err());
        assert!(parse_xml("<a></a><b></b>").is_err());
        let e = parse_xml("<a><b>x</c></a>").unwrap_err();
        assert!(e.to_string().contains("mismatched"));
    }

    #[test]
    fn xml_flattens_into_tables() {
        use crate::flatten::flatten_collection;
        let docs: Vec<JsonValue> = [
            r#"<log><level>info</level><code>200</code></log>"#,
            r#"<log><level>error</level><code>500</code></log>"#,
        ]
        .iter()
        .map(|x| parse_xml(x).unwrap().get("log").unwrap().clone())
        .collect();
        let t = flatten_collection(&docs).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert!(t.schema().index_of("level").is_some());
    }
}
