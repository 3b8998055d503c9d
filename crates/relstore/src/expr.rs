//! Scalar expressions: AST, binder and row-at-a-time evaluator.
//!
//! An [`Expr`] names its columns; `Expr::bind` resolves the names against
//! one schema and prepares the `LIKE` patterns, once per operator, and the
//! resulting `Bound` tree is what evaluates — against cells read in place
//! (a table row, or a slice for [`Expr::eval`]), yielding borrowed values
//! wherever the result is a cell or a literal.
//!
//! Comparison and logic follow SQL three-valued semantics: any comparison
//! with NULL yields NULL, `AND`/`OR` propagate unknowns, and `WHERE` treats
//! NULL as false (enforced by the executor, not here).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::value::Value;

/// Binary operators: comparisons and three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Equality.
    Eq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by name (resolved against the schema at bind; an
    /// unknown name is an error only once a row evaluates it).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// SQL LIKE with `%` and `_` wildcards (case-insensitive).
    Like {
        /// The tested expression (must evaluate to a string or NULL).
        expr: Box<Expr>,
        /// The pattern.
        pattern: String,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinOp::Gt, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        self.binary(BinOp::Ge, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinOp::Lt, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        self.binary(BinOp::Le, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinOp::Or, other)
    }

    fn binary(self, op: BinOp, other: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(self), right: Box::new(other) }
    }

    /// Evaluates against one materialized row: binds to `schema`, then
    /// reads the cells out of `row`.
    pub fn eval(&self, row: &[Value], schema: &Schema) -> RelResult<Value> {
        let bound = self.bind(schema);
        let value = bound.eval(&|col| &row[col])?;
        Ok(value.into_owned())
    }

    /// Resolves column names to indices in `schema` and prepares `LIKE`
    /// patterns, so evaluation does neither per row.
    pub(crate) fn bind<'e>(&'e self, schema: &Schema) -> Bound<'e> {
        let bind = |e: &'e Expr| Box::new(e.bind(schema));
        match self {
            Expr::Column(name) => Bound::Column(schema.require(name)),
            Expr::Literal(v) => Bound::Literal(v),
            Expr::Binary { op, left, right } => {
                Bound::Binary { op: *op, left: bind(left), right: bind(right) }
            }
            Expr::Like { expr, pattern } => {
                Bound::Like { expr: bind(expr), pattern: like_pattern(pattern) }
            }
        }
    }
}

/// An [`Expr`] bound to one schema by [`Expr::bind`]. Binding never fails:
/// an unknown column keeps its error and raises it only if a row gets as
/// far as evaluating it (not behind a short-circuit, not over no rows).
#[derive(Debug)]
pub(crate) enum Bound<'e> {
    Column(RelResult<usize>),
    Literal(&'e Value),
    Binary { op: BinOp, left: Box<Bound<'e>>, right: Box<Bound<'e>> },
    Like { expr: Box<Bound<'e>>, pattern: Vec<char> },
}

impl Bound<'_> {
    /// Evaluates against one row, read through `cell` (column index →
    /// cell). Cells and literals come back borrowed; only computed values
    /// are owned.
    pub(crate) fn eval<'a>(
        &'a self,
        cell: &impl Fn(usize) -> &'a Value,
    ) -> RelResult<Cow<'a, Value>> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match self {
            Bound::Column(Ok(idx)) => Ok(Cow::Borrowed(cell(*idx))),
            Bound::Column(Err(unknown)) => Err(unknown.clone()),
            Bound::Literal(v) => Ok(Cow::Borrowed(v)),
            Bound::Binary { op, left, right } => {
                let l = left.eval(cell)?;
                // Short-circuit three-valued AND/OR.
                match op {
                    BinOp::And if *l == Value::Bool(false) => return Ok(l),
                    BinOp::Or if *l == Value::Bool(true) => return Ok(l),
                    _ => {}
                }
                eval_binary(*op, &l, &*right.eval(cell)?).map(Cow::Owned)
            }
            Bound::Like { expr, pattern } => match &*expr.eval(cell)? {
                Value::Null => owned(Value::Null),
                Value::Str(s) => owned(Value::Bool(like_prepared(s, pattern))),
                other => Err(type_err("str", other)),
            },
        }
    }
}

fn bool_or_null(v: &Value) -> RelResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(type_err("bool", other)),
    }
}

fn three_valued_and(l: &Value, r: &Value) -> RelResult<Value> {
    Ok(match (bool_or_null(l)?, bool_or_null(r)?) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn three_valued_or(l: &Value, r: &Value) -> RelResult<Value> {
    Ok(match (bool_or_null(l)?, bool_or_null(r)?) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

/// Evaluates a binary operator on two values (`AND`/`OR` without the
/// evaluator's short-circuit: both sides are already values). A comparison
/// with NULL, or across incomparable types, is NULL.
fn eval_binary(op: BinOp, l: &Value, r: &Value) -> RelResult<Value> {
    let holds: fn(Ordering) -> bool = match op {
        BinOp::And => return three_valued_and(l, r),
        BinOp::Or => return three_valued_or(l, r),
        BinOp::Eq => Ordering::is_eq,
        BinOp::Lt => Ordering::is_lt,
        BinOp::Le => Ordering::is_le,
        BinOp::Gt => Ordering::is_gt,
        BinOp::Ge => Ordering::is_ge,
    };
    Ok(l.compare(r).map_or(Value::Null, |ord| Value::Bool(holds(ord))))
}

fn type_err(expected: &'static str, v: &Value) -> RelError {
    RelError::TypeMismatch { expected, found: v.type_name().to_string() }
}

/// SQL LIKE matching: `%` = any run, `_` = any single char; case-insensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    like_prepared(s, &like_pattern(pattern))
}

/// A `LIKE` pattern ready to match: lower-cased, as chars.
fn like_pattern(pattern: &str) -> Vec<char> {
    pattern.to_lowercase().chars().collect()
}

/// Matches `s`, lower-cased, against a [`like_pattern`]. An ASCII subject is
/// folded byte by byte as it is read; any other goes through
/// `str::to_lowercase` first, whose result depends on context (final sigma)
/// and can be longer than its input.
fn like_prepared(s: &str, pattern: &[char]) -> bool {
    if s.is_ascii() {
        let bytes = s.as_bytes();
        wildcard_match(bytes.len(), |i| char::from(bytes[i].to_ascii_lowercase()), pattern)
    } else {
        let lowered: Vec<char> = s.to_lowercase().chars().collect();
        wildcard_match(lowered.len(), |i| lowered[i], pattern)
    }
}

/// Two-pointer wildcard match of the `n` subject chars `at(0..n)` against
/// `p`: O(n·|p|) at worst, no recursion. On a mismatch only the most recent
/// `%` is retried, one subject char further on — an earlier `%` could not do
/// better, since whatever it absorbs the later one can absorb instead.
fn wildcard_match(n: usize, at: impl Fn(usize) -> char, p: &[char]) -> bool {
    let (mut i, mut j) = (0, 0);
    // (pattern index after the last `%`, subject index it resumes from)
    let mut retry: Option<(usize, usize)> = None;
    while i < n {
        match p.get(j) {
            Some('%') => {
                j += 1;
                retry = Some((j, i));
            }
            Some(&c) if c == '_' || c == at(i) => {
                i += 1;
                j += 1;
            }
            _ => match retry {
                Some((after, from)) => {
                    retry = Some((after, from + 1));
                    (i, j) = (from + 1, after);
                }
                None => return false,
            },
        }
    }
    p[j..].iter().all(|&c| c == '%')
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(n) => write!(f, "{n}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, left, right } => {
                let sym = match op {
                    BinOp::Eq => "=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({left} {sym} {right})")
            }
            Expr::Like { expr, pattern } => write!(f, "({expr} LIKE '{pattern}')"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn schema() -> Schema {
        Schema::of(&[("a", DataType::Int), ("b", DataType::Float), ("s", DataType::Str)])
    }

    fn row() -> Vec<Value> {
        vec![Value::Int(10), Value::Float(2.5), Value::str("Widget")]
    }

    #[test]
    fn column_and_literal() {
        let s = schema();
        assert_eq!(Expr::col("a").eval(&row(), &s).unwrap(), Value::Int(10));
        assert_eq!(Expr::lit(5i64).eval(&row(), &s).unwrap(), Value::Int(5));
        assert!(Expr::col("zz").eval(&row(), &s).is_err());
    }

    #[test]
    fn comparisons() {
        let s = schema();
        assert_eq!(Expr::col("a").gt(Expr::lit(5i64)).eval(&row(), &s).unwrap(), Value::Bool(true));
        assert_eq!(
            Expr::col("a").le(Expr::lit(5i64)).eval(&row(), &s).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::col("a").eq(Expr::lit(10.0)).eval(&row(), &s).unwrap(),
            Value::Bool(true),
            "numeric coercion in comparison"
        );
    }

    #[test]
    fn null_propagation() {
        let s = schema();
        let e = Expr::lit(Value::Null).eq(Expr::lit(1i64));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Null);
        let e = Expr::col("s").lt(Expr::lit(Value::Null));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let null = || Expr::lit(Value::Null);
        let t = || Expr::lit(true);
        let f = || Expr::lit(false);
        assert_eq!(f().and(null()).eval(&row(), &s).unwrap(), Value::Bool(false));
        assert_eq!(t().and(null()).eval(&row(), &s).unwrap(), Value::Null);
        assert_eq!(t().or(null()).eval(&row(), &s).unwrap(), Value::Bool(true));
        assert_eq!(f().or(null()).eval(&row(), &s).unwrap(), Value::Null);
    }

    #[test]
    fn short_circuit_skips_errors() {
        let s = schema();
        // false AND (unknown column) must not error.
        let unknown = Expr::col("zz").eq(Expr::lit(1i64));
        let e = Expr::lit(false).and(unknown.clone());
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Bool(false));
        let e = Expr::lit(true).or(unknown.clone());
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Bool(true));
        let e = Expr::lit(true).and(unknown);
        assert_eq!(e.eval(&row(), &s), Err(RelError::UnknownColumn("zz".into())));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("widget", "wid%"));
        assert!(like_match("widget", "%get"));
        assert!(like_match("widget", "w_dget"));
        assert!(like_match("Widget", "widget"));
        assert!(!like_match("widget", "gadget%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%b%"));
    }

    #[test]
    fn like_work_is_bounded() {
        // Eight `%` ahead of a char the subject lacks: backtracking per `%`
        // doubles the work every few subject chars and never gets here.
        assert!(!like_match(&"a".repeat(2000), "%a%a%a%a%a%a%a%a%b"));
        assert!(like_match(&"a".repeat(2000), "%a%a%a%a%a%a%a%a%"));
    }

    #[test]
    fn like_folds_case_like_to_lowercase() {
        // Final sigma: "ΟΣ" lower-cases to "ος", not "οσ".
        assert!(like_match("\u{39f}\u{3a3}", "_\u{3c2}"));
        assert!(!like_match("\u{39f}\u{3a3}", "_\u{3c3}"));
        // "İ" lower-cases to two chars.
        assert!(like_match("\u{130}", "__"));
        assert!(like_match("\u{130}x", "\u{130}X"));
        assert!(like_match("WIDGET", "w%T"));
    }

    #[test]
    fn like_expr() {
        let s = schema();
        let e = Expr::Like { expr: Box::new(Expr::col("s")), pattern: "wid%".into() };
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Bool(true));
    }

    #[test]
    fn display_roundtrip_reads() {
        let e = Expr::col("a").gt(Expr::lit(5i64)).and(Expr::col("s").eq(Expr::lit("x")));
        let shown = e.to_string();
        assert!(shown.contains("a > 5"));
        assert!(shown.contains("'x'"));
    }
}
