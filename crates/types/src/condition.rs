//! The condition language of fusion queries.
//!
//! Each query condition `c_i` "involves only one `u_i` variable and `U`
//! attributes, and is supported by the wrappers" (§2.2). Concretely a
//! condition is a boolean predicate over the attributes of the common
//! schema, evaluated tuple-at-a-time.

use crate::error::{FusionError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering between two values.
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean predicate over common-schema attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `attr op literal`, e.g. `V = 'dui'`.
    Cmp {
        /// Attribute name.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal right-hand side.
        value: Value,
    },
    /// `attr BETWEEN lo AND hi` (inclusive).
    Between {
        /// Attribute name.
        attr: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `attr IN (v1, v2, ...)`.
    InList {
        /// Attribute name.
        attr: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// `attr LIKE 'pattern'` with `%` (any run) and `_` (any char).
    Like {
        /// Attribute name.
        attr: String,
        /// SQL LIKE pattern.
        pattern: String,
    },
    /// `attr IS NULL`.
    IsNull {
        /// Attribute name.
        attr: String,
    },
    /// Conjunction of sub-predicates; empty conjunction is TRUE.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates; empty disjunction is FALSE.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Constant truth value (useful in tests and as a neutral element).
    Const(bool),
}

impl Predicate {
    /// Convenience constructor: `attr = value`.
    pub fn eq(attr: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor: `attr op value`.
    pub fn cmp(attr: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// Evaluates the predicate on `tuple` under `schema`.
    ///
    /// NULL handling is two-valued set semantics: a NULL attribute fails
    /// every comparison except `IS NULL`, and `NOT` is plain negation.
    ///
    /// # Errors
    /// Fails if an attribute does not resolve against the schema.
    pub fn eval(&self, tuple: &Tuple, schema: &Schema) -> Result<bool> {
        match self {
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(tuple, schema)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(tuple, schema)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Predicate::Not(p) => Ok(!p.eval(tuple, schema)?),
            leaf => leaf.bind(schema)?.eval(tuple),
        }
    }

    /// Resolves every attribute name against `schema`, once, so that a
    /// loop over rows does not look the names up again for each of them:
    /// every product row loop evaluates through the [`Bound`] form.
    ///
    /// # Errors
    /// Fails if an attribute does not resolve — also one that evaluation
    /// would have skipped on every row, and also when there are no rows.
    pub fn bind(&self, schema: &Schema) -> Result<Bound<'_>> {
        fn all<'a>(ps: &'a [Predicate], schema: &Schema) -> Result<Vec<Bound<'a>>> {
            ps.iter().map(|p| p.bind(schema)).collect()
        }
        Ok(match self {
            Predicate::Cmp { attr, op, value } => {
                let col = schema.index_of(attr)?;
                match value {
                    Value::Null => Bound::Const(false),
                    _ => Bound::Cmp(col, *op, value),
                }
            }
            Predicate::Between { attr, lo, hi } => Bound::Between(schema.index_of(attr)?, lo, hi),
            Predicate::InList { attr, values } => Bound::InList(schema.index_of(attr)?, values),
            Predicate::Like { attr, pattern } => Bound::Like(schema.index_of(attr)?, pattern),
            Predicate::IsNull { attr } => Bound::IsNull(schema.index_of(attr)?),
            Predicate::And(ps) => Bound::And(all(ps, schema)?),
            Predicate::Or(ps) => Bound::Or(all(ps, schema)?),
            Predicate::Not(p) => Bound::Not(Box::new(p.bind(schema)?)),
            Predicate::Const(b) => Bound::Const(*b),
        })
    }

    /// Validates that every referenced attribute exists in `schema` and has
    /// a type comparable with the literals applied to it.
    pub fn check(&self, schema: &Schema) -> Result<()> {
        match self {
            Predicate::Cmp { attr, value, .. } => {
                let idx = schema.index_of(attr)?;
                let at = schema.attribute(idx).ty;
                let vt = value.value_type();
                if !matches!(value, Value::Null) && !at.comparable_with(vt) {
                    return Err(FusionError::TypeMismatch {
                        detail: format!("attribute `{attr}` ({at}) compared with {vt} literal"),
                    });
                }
                Ok(())
            }
            Predicate::Between { attr, lo, hi } => {
                let idx = schema.index_of(attr)?;
                let at = schema.attribute(idx).ty;
                for v in [lo, hi] {
                    if !at.comparable_with(v.value_type()) {
                        return Err(FusionError::TypeMismatch {
                            detail: format!(
                                "attribute `{attr}` ({at}) BETWEEN bound of type {}",
                                v.value_type()
                            ),
                        });
                    }
                }
                Ok(())
            }
            Predicate::InList { attr, values } => {
                let idx = schema.index_of(attr)?;
                let at = schema.attribute(idx).ty;
                for v in values {
                    if !at.comparable_with(v.value_type()) {
                        return Err(FusionError::TypeMismatch {
                            detail: format!(
                                "attribute `{attr}` ({at}) IN list contains {}",
                                v.value_type()
                            ),
                        });
                    }
                }
                Ok(())
            }
            Predicate::Like { attr, .. } => {
                let idx = schema.index_of(attr)?;
                let at = schema.attribute(idx).ty;
                if at != crate::schema::ValueType::Str {
                    return Err(FusionError::TypeMismatch {
                        detail: format!("LIKE on non-string attribute `{attr}` ({at})"),
                    });
                }
                Ok(())
            }
            Predicate::IsNull { attr } => schema.index_of(attr).map(|_| ()),
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().try_for_each(|p| p.check(schema)),
            Predicate::Not(p) => p.check(schema),
            Predicate::Const(_) => Ok(()),
        }
    }

    /// Estimated wire size in bytes of the predicate text when shipped to a
    /// source as part of a query: its `Display` length, counted unbuilt.
    pub fn wire_size(&self) -> usize {
        struct Count(usize);
        impl fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut count = Count(0);
        fmt::write(&mut count, format_args!("{self}")).expect("a count never fails");
        count.0
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { attr, op, value } => write!(f, "{attr} {op} {value}"),
            Predicate::Between { attr, lo, hi } => {
                write!(f, "{attr} BETWEEN {lo} AND {hi}")
            }
            Predicate::InList { attr, values } => {
                write!(f, "{attr} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::Like { attr, pattern } => {
                write!(f, "{attr} LIKE '{}'", pattern.replace('\'', "''"))
            }
            Predicate::IsNull { attr } => write!(f, "{attr} IS NULL"),
            Predicate::And(ps) => {
                if ps.is_empty() {
                    return write!(f, "TRUE");
                }
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    if matches!(p, Predicate::Or(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Predicate::Or(ps) => {
                if ps.is_empty() {
                    return write!(f, "FALSE");
                }
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    if matches!(p, Predicate::And(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Predicate::Not(p) => write!(f, "NOT ({p})"),
            Predicate::Const(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

/// A [`Predicate`] with its attribute names resolved to column positions
/// of one schema ([`Predicate::bind`]); what [`Predicate::eval`] means is
/// written here. Each variant mirrors the predicate's, a column position
/// in place of the attribute name.
#[derive(Debug)]
pub enum Bound<'a> {
    /// `col op value`; the constant is not NULL (a comparison with NULL
    /// binds to `Const(false)`).
    Cmp(usize, CmpOp, &'a Value),
    /// `col BETWEEN lo AND hi`.
    Between(usize, &'a Value, &'a Value),
    /// `col IN (values)`.
    InList(usize, &'a [Value]),
    /// `col LIKE pattern`.
    Like(usize, &'a str),
    /// `col IS NULL`.
    IsNull(usize),
    /// Conjunction; empty is TRUE.
    And(Vec<Bound<'a>>),
    /// Disjunction; empty is FALSE.
    Or(Vec<Bound<'a>>),
    /// Negation.
    Not(Box<Bound<'a>>),
    /// Constant truth value.
    Const(bool),
}

impl Bound<'_> {
    /// Evaluates the predicate on a tuple of the schema it was bound to.
    ///
    /// # Errors
    /// Fails if `LIKE` meets a value that is neither a string nor NULL.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        Ok(match self {
            Bound::Cmp(col, op, value) => {
                let v = tuple.get(*col);
                !matches!(v, Value::Null) && op.holds(v.cmp(value))
            }
            Bound::Between(col, lo, hi) => {
                let v = tuple.get(*col);
                !matches!(v, Value::Null) && v >= *lo && v <= *hi
            }
            Bound::InList(col, values) => {
                let v = tuple.get(*col);
                !matches!(v, Value::Null) && values.contains(v)
            }
            Bound::Like(col, pattern) => match tuple.get(*col) {
                Value::Str(s) => like_match(pattern, s),
                Value::Null => false,
                other => {
                    return Err(FusionError::TypeMismatch {
                        detail: format!("LIKE applied to non-string value {other}"),
                    })
                }
            },
            Bound::IsNull(col) => matches!(tuple.get(*col), Value::Null),
            Bound::And(ps) => {
                for p in ps {
                    if !p.eval(tuple)? {
                        return Ok(false);
                    }
                }
                true
            }
            Bound::Or(ps) => {
                for p in ps {
                    if p.eval(tuple)? {
                        return Ok(true);
                    }
                }
                false
            }
            Bound::Not(p) => !p.eval(tuple)?,
            Bound::Const(b) => *b,
        })
    }
}

/// A fusion query condition `c_i`: a predicate on the common schema.
///
/// The thin wrapper exists so conditions can be referred to by their
/// position in a query and printed either symbolically (`c_2`) or verbosely
/// (`V = 'sp'`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Condition {
    /// The underlying predicate.
    pub pred: Predicate,
}

impl Condition {
    /// Wraps a predicate as a condition.
    pub(crate) fn new(pred: Predicate) -> Condition {
        Condition { pred }
    }

    /// Evaluates the condition on one tuple; see [`Predicate::eval`].
    ///
    /// # Errors
    /// Propagates attribute-resolution and type errors.
    pub fn eval(&self, tuple: &Tuple, schema: &Schema) -> Result<bool> {
        self.pred.eval(tuple, schema)
    }

    /// Validates the condition against a schema; see [`Predicate::check`].
    ///
    /// # Errors
    /// Propagates attribute-resolution and type errors.
    pub fn check(&self, schema: &Schema) -> Result<()> {
        self.pred.check(schema)
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)
    }
}

impl From<Predicate> for Condition {
    fn from(pred: Predicate) -> Self {
        Condition::new(pred)
    }
}

/// SQL LIKE matcher: `%` matches any run of characters (including empty),
/// `_` matches exactly one character. Case-sensitive, no escape syntax.
///
/// One pass with a single point to return to: the latest `%` and how much
/// text it has swallowed so far. An earlier `%` never needs revisiting —
/// whatever it could give up, the later one can take — so the work is
/// `O(|pattern| · |text|)` for any pattern, with no allocation.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    // The pattern after the latest `%`, and the text after its run.
    let mut resume: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let (mut p_next, mut t_next) = (p.clone(), t.clone());
        match (p_next.next(), t_next.next()) {
            (Some('%'), _) => {
                p = p_next;
                resume = Some((p.clone(), t.clone()));
                continue;
            }
            (Some(c), Some(d)) if c == '_' || c == d => {
                (p, t) = (p_next, t_next);
                continue;
            }
            (None, None) => return true,
            _ => {}
        }
        // Mismatch: let the latest `%` take one more character.
        let Some((after_percent, run_end)) = &mut resume else {
            return false;
        };
        if run_end.next().is_none() {
            return false;
        }
        (p, t) = (after_percent.clone(), run_end.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::dmv_schema;
    use crate::tuple;

    fn dui_row() -> Tuple {
        tuple!["J55", "dui", 1993i64]
    }

    #[test]
    fn cmp_eval() {
        let s = dmv_schema();
        let t = dui_row();
        assert!(Predicate::eq("V", "dui").eval(&t, &s).unwrap());
        assert!(!Predicate::eq("V", "sp").eval(&t, &s).unwrap());
        assert!(Predicate::cmp("D", CmpOp::Lt, 1995i64)
            .eval(&t, &s)
            .unwrap());
        assert!(Predicate::cmp("D", CmpOp::Ge, 1993i64)
            .eval(&t, &s)
            .unwrap());
    }

    #[test]
    fn unknown_attribute_is_error() {
        let s = dmv_schema();
        let err = Predicate::eq("Z", 1i64).eval(&dui_row(), &s).unwrap_err();
        assert!(matches!(err, FusionError::UnknownAttribute { .. }));
    }

    #[test]
    fn between_and_inlist() {
        let s = dmv_schema();
        let t = dui_row();
        let between = Predicate::Between {
            attr: "D".into(),
            lo: Value::Int(1990),
            hi: Value::Int(1993),
        };
        assert!(between.eval(&t, &s).unwrap());
        let inlist = Predicate::InList {
            attr: "V".into(),
            values: vec![Value::str("sp"), Value::str("dui")],
        };
        assert!(inlist.eval(&t, &s).unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("d%", "dui"));
        assert!(like_match("%u%", "dui"));
        assert!(like_match("d_i", "dui"));
        assert!(!like_match("d_i", "duii"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("abc", "abd"));
    }

    /// The backtracking definition `like_match` replaced: exponential in
    /// the number of `%`, kept as the oracle.
    fn like_match_recursive(pattern: &str, text: &str) -> bool {
        fn rec(p: &[char], t: &[char]) -> bool {
            match p.split_first() {
                None => t.is_empty(),
                Some(('%', rest)) => (0..=t.len()).any(|k| rec(rest, &t[k..])),
                Some(('_', rest)) => !t.is_empty() && rec(rest, &t[1..]),
                Some((c, rest)) => t.first() == Some(c) && rec(rest, &t[1..]),
            }
        }
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        rec(&p, &t)
    }

    #[test]
    fn like_matches_the_recursive_definition() {
        // Three letters plus a two-byte and a four-byte character, so `_`
        // must step over whole characters.
        const TEXT: [char; 5] = ['a', 'b', 'c', 'é', '🦀'];
        const PATTERN: [char; 7] = ['a', 'b', 'c', 'é', '🦀', '%', '_'];
        let mut below = crate::xorshift_below();
        for case in 0..20_000 {
            let pattern: String = (0..below(7)).map(|_| PATTERN[below(7)]).collect();
            let text: String = (0..below(9)).map(|_| TEXT[below(5)]).collect();
            assert_eq!(
                like_match(&pattern, &text),
                like_match_recursive(&pattern, &text),
                "case {case}: {pattern:?} against {text:?}"
            );
        }
    }

    #[test]
    fn like_is_not_exponential_in_the_percent_signs() {
        // Backtracking into every `%` took 209 ms on 28 characters.
        let pattern = format!("{}b", "%a".repeat(9));
        let text = "a".repeat(10_000);
        let t = std::time::Instant::now();
        assert!(!like_match(&pattern, &text));
        assert!(like_match(&pattern, &format!("{text}b")));
        assert!(t.elapsed() < std::time::Duration::from_millis(50));
    }

    #[test]
    fn like_eval_and_type_error() {
        let s = dmv_schema();
        let t = dui_row();
        let p = Predicate::Like {
            attr: "V".into(),
            pattern: "d%".into(),
        };
        assert!(p.eval(&t, &s).unwrap());
        let bad = Predicate::Like {
            attr: "D".into(),
            pattern: "19%".into(),
        };
        assert!(bad.eval(&t, &s).is_err());
    }

    #[test]
    fn null_semantics() {
        let s = dmv_schema();
        let t = Tuple::new(vec![Value::str("X"), Value::Null, Value::Int(2000)]);
        assert!(!Predicate::eq("V", "dui").eval(&t, &s).unwrap());
        assert!(!Predicate::cmp("V", CmpOp::Ne, "dui").eval(&t, &s).unwrap());
        assert!(Predicate::IsNull { attr: "V".into() }.eval(&t, &s).unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let s = dmv_schema();
        let t = dui_row();
        let p = Predicate::And(vec![
            Predicate::eq("V", "dui"),
            Predicate::cmp("D", CmpOp::Le, 1994i64),
        ]);
        assert!(p.eval(&t, &s).unwrap());
        let q = Predicate::Or(vec![Predicate::eq("V", "sp"), Predicate::eq("V", "dui")]);
        assert!(q.eval(&t, &s).unwrap());
        assert!(!Predicate::Not(Box::new(q)).eval(&t, &s).unwrap());
        assert!(Predicate::And(vec![]).eval(&t, &s).unwrap());
        assert!(!Predicate::Or(vec![]).eval(&t, &s).unwrap());
    }

    #[test]
    fn check_catches_type_mismatch() {
        let s = dmv_schema();
        assert!(Predicate::eq("V", "dui").check(&s).is_ok());
        assert!(Predicate::eq("V", 7i64).check(&s).is_err());
        assert!(Predicate::eq("D", 7i64).check(&s).is_ok());
        assert!(Predicate::eq("D", 7.5f64).check(&s).is_ok());
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Predicate::eq("V", "dui").to_string(), "V = 'dui'");
        let p = Predicate::And(vec![
            Predicate::eq("V", "dui"),
            Predicate::Or(vec![
                Predicate::cmp("D", CmpOp::Lt, 1995i64),
                Predicate::cmp("D", CmpOp::Gt, 2000i64),
            ]),
        ]);
        assert_eq!(p.to_string(), "V = 'dui' AND (D < 1995 OR D > 2000)");
    }

    #[test]
    fn cmp_op_holds() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Le.holds(Equal));
        assert!(CmpOp::Le.holds(Less));
        assert!(!CmpOp::Le.holds(Greater));
    }
}
