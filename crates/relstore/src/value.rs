//! Typed values: the cell type of the engine.

use std::cmp::Ordering;
use std::fmt;

/// A calendar date (proleptic Gregorian, no time component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year (e.g. 2024).
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–31.
    pub day: u8,
}

impl Date {
    /// Creates a date, validating month/day ranges (not month lengths).
    pub fn new(year: i32, month: u8, day: u8) -> Option<Self> {
        ((1..=12).contains(&month) && (1..=31).contains(&day)).then_some(Self { year, month, day })
    }

    /// Parses `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = parts.next()?.parse().ok()?;
        let day: u8 = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Self::new(year, month, day)
    }

    /// The fiscal quarter (1–4) this date falls in.
    pub fn quarter(self) -> u8 {
        (self.month - 1) / 3 + 1
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A typed cell value.
///
/// `Float` uses `f64`; NaN never enters tables (constructors and parsers
/// reject it), so the `PartialOrd`-based comparisons used by sorting are
/// total in practice.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (never NaN).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Creates a float value; NaN is mapped to `Null`.
    pub fn float(f: f64) -> Self {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Float(f)
        }
    }

    /// True when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and floats as f64; others `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The [`crate::schema::DataType`] name of this value, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Date(_) => "date",
        }
    }

    /// SQL-style three-valued comparison.
    ///
    /// Returns `None` when either side is NULL or the types are
    /// incomparable. Ints and floats compare numerically.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order for sorting: NULLs first, then by type, then by value.
    ///
    /// Unlike [`Self::compare`], this never returns `None`, which makes it
    /// usable as a sort comparator over heterogeneous columns.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn type_rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Date(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match self.compare(other) {
            Some(o) => o,
            None => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                _ => type_rank(self).cmp(&type_rank(other)).then_with(|| {
                    // Same rank but incomparable can only be NaN-free float
                    // vs int edge handled above; fall back to display.
                    self.to_string().cmp(&other.to_string())
                }),
            },
        }
    }

    /// A hashable group-by key form. Floats are keyed by bit pattern of
    /// their canonicalized value (−0.0 → 0.0).
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) => {
                let f = if *f == 0.0 { 0.0 } else { *f };
                // Integral floats group with equal ints (numeric equality).
                if f.fract() == 0.0 && f.abs() < 9e15 {
                    GroupKey::Int(f as i64)
                } else {
                    GroupKey::FloatBits(f.to_bits())
                }
            }
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::Date(d) => GroupKey::Date(*d),
        }
    }
}

/// Hashable key for grouping and join probing, ordered so that a column's
/// distinct values can sit in a sorted set (the order itself carries no
/// meaning).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupKey {
    /// NULL key (groups with other NULLs, per GROUP BY semantics).
    Null,
    /// Boolean key.
    Bool(bool),
    /// Integer key (integral floats normalize here).
    Int(i64),
    /// Non-integral float, keyed by bits.
    FloatBits(u64),
    /// String key.
    Str(String),
    /// Date key.
    Date(Date),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_parse_and_display() {
        let d = Date::parse("2024-03-05").unwrap();
        assert_eq!(d.to_string(), "2024-03-05");
        assert!(Date::parse("2024-13-05").is_none());
        assert!(Date::parse("2024-03").is_none());
        assert!(Date::parse("garbage").is_none());
    }

    #[test]
    fn date_quarters() {
        assert_eq!(Date::new(2024, 1, 15).unwrap().quarter(), 1);
        assert_eq!(Date::new(2024, 6, 30).unwrap().quarter(), 2);
        assert_eq!(Date::new(2024, 12, 1).unwrap().quarter(), 4);
    }

    #[test]
    fn compare_numeric_coercion() {
        assert_eq!(Value::Int(2).compare(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(2).compare(&Value::Float(2.5)), Some(Ordering::Less));
    }

    #[test]
    fn compare_null_is_none() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Null.compare(&Value::Null), None);
    }

    #[test]
    fn compare_cross_type_none() {
        assert_eq!(Value::str("a").compare(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).compare(&Value::Int(1)), None);
    }

    #[test]
    fn sort_cmp_total() {
        let mut vals = vec![
            Value::str("b"),
            Value::Null,
            Value::Int(5),
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("a"),
        ];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals.last().unwrap(), &Value::str("b"));
    }

    #[test]
    fn nan_never_enters() {
        assert_eq!(Value::float(f64::NAN), Value::Null);
        assert_eq!(Value::from(f64::NAN), Value::Null);
    }

    #[test]
    fn group_key_numeric_unification() {
        assert_eq!(Value::Int(3).group_key(), Value::Float(3.0).group_key());
        assert_ne!(Value::Int(3).group_key(), Value::Float(3.5).group_key());
        assert_eq!(Value::Float(0.0).group_key(), Value::Float(-0.0).group_key());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.25).to_string(), "2.25");
        assert_eq!(Value::str("x").to_string(), "x");
    }
}
