//! Scalar expressions: AST, binder and the one row-at-a-time evaluator.
//!
//! An [`Expr`] names its columns; `Expr::bind` resolves each name to the
//! column's cells and prepares the `LIKE` patterns, once per operator (for
//! [`Expr::eval`], each column is the one cell of a materialized row). The
//! resulting `Bound` tree is the one evaluator, asked one row at a time,
//! in ascending order:
//!
//! - a filter asks for the row's three-valued truth. A comparison of a
//!   column with a literal, on either side, compares the cell in place, and
//!   a `LIKE` matches the cell in place: a condition builds no `Value`;
//! - an aggregate input, a group key or a sort key asks for the row's
//!   value, borrowed when it is a cell or a literal.
//!
//! Comparison and logic follow SQL three-valued semantics: any comparison
//! with NULL (or across types that do not compare) is unknown, `AND`/`OR`
//! short-circuit on their left side and propagate unknowns, and `WHERE`
//! keeps only true rows (enforced by the executor, not here). Errors come
//! in operand order, and a non-boolean `AND`/`OR` operand is reported only
//! after the other side has been evaluated.

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

    /// Evaluates against one materialized row: binds to `schema`, with each
    /// column's cells the one cell of `row`, then reads that row.
    pub fn eval(&self, row: &[Value], schema: &Schema) -> RelResult<Value> {
        let bound = self.bind(schema, &|col| std::slice::from_ref(&row[col]));
        bound.value(0).map(Cow::into_owned)
    }

    /// Resolves each column name in `schema` to the column's cells
    /// (`cells(index)`) and prepares `LIKE` patterns, so evaluation does
    /// neither per row.
    pub(crate) fn bind<'a>(
        &'a self,
        schema: &Schema,
        cells: &impl Fn(usize) -> &'a [Value],
    ) -> Bound<'a> {
        let column = |name: &'a str| schema.index_of(name).map(cells).ok_or(name);
        let bind = |e: &'a Expr| Box::new(e.bind(schema, cells));
        match self {
            Expr::Column(name) => Bound::Column(column(name)),
            Expr::Literal(v) => Bound::Literal(v),
            Expr::Binary { op, left, right } => {
                let cmp = match op {
                    BinOp::And => return Bound::And(bind(left), bind(right)),
                    BinOp::Or => return Bound::Or(bind(left), bind(right)),
                    BinOp::Eq => Cmp::Eq,
                    BinOp::Lt => Cmp::Lt,
                    BinOp::Le => Cmp::Le,
                    BinOp::Gt => Cmp::Gt,
                    BinOp::Ge => Cmp::Ge,
                };
                match (&**left, &**right) {
                    (Expr::Column(name), Expr::Literal(literal)) => {
                        Bound::CellCmp { cells: column(name), cmp, literal }
                    }
                    (Expr::Literal(literal), Expr::Column(name)) => {
                        Bound::CellCmp { cells: column(name), cmp: cmp.flipped(), literal }
                    }
                    _ => Bound::Compare { cmp, left: bind(left), right: bind(right) },
                }
            }
            Expr::Like { expr, pattern } => {
                Bound::Like { subject: bind(expr), pattern: like_pattern(pattern) }
            }
        }
    }
}

/// A column's cells, or the name of a column the schema lacks, raised as
/// [`RelError::UnknownColumn`] only when a row reaches it.
type Cells<'a> = Result<&'a [Value], &'a str>;

/// Row `row` of `cells`.
fn cell<'a>(cells: &Cells<'a>, row: usize) -> RelResult<&'a Value> {
    match cells {
        Ok(cells) => Ok(&cells[row]),
        Err(unknown) => Err(RelError::UnknownColumn(unknown.to_string())),
    }
}

/// An [`Expr`] bound by [`Expr::bind`] to the cells of one table (or one
/// row): the one evaluator. A filter asks it for a row's [`Truth`]; an
/// aggregate input, a group key or a sort key for a row's value. Binding
/// never fails: an unknown column keeps its error and raises it only if a
/// row gets as far as evaluating it (not behind a short-circuit, not over
/// no rows).
#[derive(Debug)]
pub(crate) enum Bound<'a> {
    Column(Cells<'a>),
    Literal(&'a Value),
    /// `cell cmp literal`: a comparison of a column with a literal on
    /// either side, read straight off the cell (`5 < a` binds as `a > 5`).
    CellCmp {
        cells: Cells<'a>,
        cmp: Cmp,
        literal: &'a Value,
    },
    /// Any other comparison: both sides evaluated, left first.
    Compare {
        cmp: Cmp,
        left: Box<Bound<'a>>,
        right: Box<Bound<'a>>,
    },
    And(Box<Bound<'a>>, Box<Bound<'a>>),
    Or(Box<Bound<'a>>, Box<Bound<'a>>),
    Like {
        subject: Box<Bound<'a>>,
        pattern: Vec<char>,
    },
}

/// What a row makes of a [`Bound`] read as a condition: SQL's three
/// truth values, or — for a column or literal only — a value that is
/// none of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Truth {
    False,
    True,
    /// NULL.
    Unknown,
    /// A value of this type, neither a boolean nor NULL. A filter keeps no
    /// row on it; an `AND`/`OR` operand raises it as a type mismatch, once
    /// both operands have been evaluated.
    NotBool(&'static str),
}

impl Truth {
    fn of(v: &Value) -> Truth {
        match v {
            Value::Null => Truth::Unknown,
            Value::Bool(b) => Truth::from(*b),
            other => Truth::NotBool(other.type_name()),
        }
    }

    /// The truth of `cmp` on two values that compare as `ord` (`None`: a
    /// NULL, or types that do not compare).
    fn compared(cmp: Cmp, ord: Option<Ordering>) -> Truth {
        ord.map_or(Truth::Unknown, |ord| Truth::from(cmp.holds(ord)))
    }

    /// As an `AND`/`OR` operand: a boolean or NULL, or the type mismatch.
    fn logical(self) -> RelResult<Option<bool>> {
        match self {
            Truth::False => Ok(Some(false)),
            Truth::True => Ok(Some(true)),
            Truth::Unknown => Ok(None),
            Truth::NotBool(found) => {
                Err(RelError::TypeMismatch { expected: "bool", found: found.to_string() })
            }
        }
    }
}

impl From<bool> for Truth {
    fn from(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn holds(self, ord: Ordering) -> bool {
        match self {
            Cmp::Eq => ord.is_eq(),
            Cmp::Lt => ord.is_lt(),
            Cmp::Le => ord.is_le(),
            Cmp::Gt => ord.is_gt(),
            Cmp::Ge => ord.is_ge(),
        }
    }

    /// The operator with its operands swapped: `x < y` is `y > x`.
    /// [`Value::compare`] is antisymmetric, so the swap is exact.
    fn flipped(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Eq,
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
        }
    }
}

impl<'a> Bound<'a> {
    /// The truth of row `row`. `AND`/`OR` short-circuit on their left side
    /// and are three-valued; errors come in operand order, and a
    /// non-boolean operand is raised only after the right side has run.
    pub(crate) fn truth(&self, row: usize) -> RelResult<Truth> {
        match self {
            Bound::Column(cells) => Ok(Truth::of(cell(cells, row)?)),
            Bound::Literal(v) => Ok(Truth::of(v)),
            Bound::CellCmp { cells, cmp, literal } => {
                Ok(Truth::compared(*cmp, cell(cells, row)?.compare(literal)))
            }
            Bound::Compare { cmp, left, right } => {
                let l = left.value(row)?;
                Ok(Truth::compared(*cmp, l.compare(&*right.value(row)?)))
            }
            Bound::And(left, right) => {
                let l = left.truth(row)?;
                if l == Truth::False {
                    return Ok(Truth::False);
                }
                let r = right.truth(row)?;
                Ok(match (l.logical()?, r.logical()?) {
                    (Some(false), _) | (_, Some(false)) => Truth::False,
                    (Some(true), Some(true)) => Truth::True,
                    _ => Truth::Unknown,
                })
            }
            Bound::Or(left, right) => {
                let l = left.truth(row)?;
                if l == Truth::True {
                    return Ok(Truth::True);
                }
                let r = right.truth(row)?;
                Ok(match (l.logical()?, r.logical()?) {
                    (Some(true), _) | (_, Some(true)) => Truth::True,
                    (Some(false), Some(false)) => Truth::False,
                    _ => Truth::Unknown,
                })
            }
            Bound::Like { subject, pattern } => match &*subject.value(row)? {
                Value::Null => Ok(Truth::Unknown),
                Value::Str(s) => Ok(Truth::from(like_prepared(s, pattern))),
                other => Err(type_err("str", other)),
            },
        }
    }

    /// The value of row `row`: the cell or the literal itself, borrowed, or
    /// a condition's truth as a boolean or NULL.
    pub(crate) fn value(&self, row: usize) -> RelResult<Cow<'a, Value>> {
        match self {
            Bound::Column(cells) => Ok(Cow::Borrowed(cell(cells, row)?)),
            Bound::Literal(v) => Ok(Cow::Borrowed(v)),
            condition => {
                let truth = condition.truth(row)?.logical()?;
                Ok(Cow::Owned(truth.map_or(Value::Null, Value::Bool)))
            }
        }
    }
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
    fn null_cells_under_and_or() {
        let s = schema();
        let row = vec![Value::Null, Value::Float(2.5), Value::Null];
        let a_big = || Expr::col("a").gt(Expr::lit(5i64));
        let b_over = |x: f64| Expr::col("b").gt(Expr::lit(x));
        let s_like = || Expr::Like { expr: Box::new(Expr::col("s")), pattern: "x".into() };
        let cases = [
            (a_big(), Value::Null),
            (a_big().and(b_over(1.0)), Value::Null),
            (a_big().and(b_over(3.0)), Value::Bool(false)),
            (b_over(3.0).and(a_big()), Value::Bool(false)),
            (a_big().or(b_over(1.0)), Value::Bool(true)),
            (a_big().or(b_over(3.0)), Value::Null),
            (s_like(), Value::Null),
            (s_like().or(b_over(3.0)), Value::Null),
            (s_like().and(b_over(3.0)), Value::Bool(false)),
            // A NULL cell is a logical operand like any unknown.
            (Expr::col("a").and(Expr::lit(true)), Value::Null),
            (Expr::col("s").or(Expr::lit(false)), Value::Null),
            (Expr::col("s").or(Expr::lit(true)), Value::Bool(true)),
        ];
        for (e, expected) in cases {
            assert_eq!(e.eval(&row, &s), Ok(expected), "{e}");
        }
    }

    #[test]
    fn a_literal_on_the_left_compares_as_written() {
        let s = schema();
        let literals = [
            Value::Null,
            Value::Int(10),
            Value::Int(3),
            Value::Float(2.5),
            Value::Float(10.0),
            Value::str("Widget"),
            Value::str("widget"),
            Value::Bool(true),
        ];
        let ops = [BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        for (column, cell) in ["a", "b", "s"].into_iter().zip(row()) {
            for literal in &literals {
                for op in ops {
                    let holds = |o: Ordering| match op {
                        BinOp::Eq => o.is_eq(),
                        BinOp::Lt => o.is_lt(),
                        BinOp::Le => o.is_le(),
                        BinOp::Gt => o.is_gt(),
                        _ => o.is_ge(),
                    };
                    let expected = literal.compare(&cell).map_or(Value::Null, |o| holds(o).into());
                    let e = Expr::lit(literal.clone()).binary(op, Expr::col(column));
                    assert_eq!(e.eval(&row(), &s), Ok(expected.clone()), "{e}");
                    let mirrored = Expr::col(column).binary(op, Expr::lit(literal.clone()));
                    let expected = cell.compare(literal).map_or(Value::Null, |o| holds(o).into());
                    assert_eq!(mirrored.eval(&row(), &s), Ok(expected), "{mirrored}");
                }
            }
        }
    }

    #[test]
    fn column_against_column() {
        let s = Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Int),
            ("s", DataType::Str),
            ("n", DataType::Int),
        ]);
        let row =
            vec![Value::Int(10), Value::Float(2.5), Value::Int(10), Value::str("x"), Value::Null];
        let col = Expr::col;
        let cases = [
            (col("a").gt(col("b")), Value::Bool(true)),
            (col("b").ge(col("a")), Value::Bool(false)),
            (col("a").eq(col("c")), Value::Bool(true)),
            (col("c").lt(col("a")), Value::Bool(false)),
            (col("a").lt(col("s")), Value::Null),
            (col("n").eq(col("n")), Value::Null),
            (col("a").eq(col("c")).eq(col("b").lt(col("a"))), Value::Bool(true)),
        ];
        for (e, expected) in cases {
            assert_eq!(e.eval(&row, &s), Ok(expected), "{e}");
        }
        assert_eq!(
            col("a").gt(col("zz")).eval(&row, &s),
            Err(RelError::UnknownColumn("zz".into()))
        );
    }

    #[test]
    fn a_non_boolean_logical_operand_is_raised_after_the_right_side() {
        let s = schema();
        let not_a_bool =
            |found: &str| RelError::TypeMismatch { expected: "bool", found: found.into() };
        let like_a = Expr::Like { expr: Box::new(Expr::col("a")), pattern: "x".into() };
        let cases = [
            // The right side runs first, and its own error wins.
            (Expr::col("a").and(Expr::col("zz")), Err(RelError::UnknownColumn("zz".into()))),
            (
                Expr::col("a").and(like_a),
                Err(RelError::TypeMismatch { expected: "str", found: "int".into() }),
            ),
            // Then the left operand's, even where the right decides.
            (Expr::col("a").and(Expr::lit(true)), Err(not_a_bool("int"))),
            (Expr::col("a").and(Expr::lit(false)), Err(not_a_bool("int"))),
            (Expr::col("a").or(Expr::lit(true)), Err(not_a_bool("int"))),
            (Expr::col("b").or(Expr::col("s")), Err(not_a_bool("float"))),
            (Expr::lit(true).and(Expr::col("s")), Err(not_a_bool("str"))),
            (Expr::lit(false).or(Expr::lit(1i64)), Err(not_a_bool("int"))),
            // A short-circuit never reads the right side.
            (Expr::lit(false).and(Expr::col("a")), Ok(Value::Bool(false))),
            (Expr::lit(true).or(Expr::col("s")), Ok(Value::Bool(true))),
        ];
        for (e, expected) in cases {
            assert_eq!(e.eval(&row(), &s), expected, "{e}");
        }
    }

    #[test]
    fn an_unknown_column_behind_a_short_circuit_is_fine_on_every_node() {
        let s = schema();
        let nope = || Expr::col("nope");
        let unknown = Err(RelError::UnknownColumn("nope".into()));
        let like_nope = || Expr::Like { expr: Box::new(nope()), pattern: "x".into() };
        let guarded = [
            Expr::lit(1i64).lt(nope()),
            nope().ge(Expr::lit(1i64)),
            nope().eq(Expr::col("a")),
            like_nope(),
            nope(),
        ];
        for e in guarded {
            let skipped = Expr::lit(false).and(e.clone());
            assert_eq!(skipped.eval(&row(), &s), Ok(Value::Bool(false)), "{skipped}");
            let skipped = Expr::col("a").gt(Expr::lit(5i64)).or(e.clone());
            assert_eq!(skipped.eval(&row(), &s), Ok(Value::Bool(true)), "{skipped}");
            let reached = Expr::lit(true).and(e.clone());
            assert_eq!(reached.eval(&row(), &s), unknown, "{reached}");
        }
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
