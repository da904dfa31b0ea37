//! Dynamically typed values and merge-attribute items.

use crate::text::Text;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A cell value in the common schema exported by every wrapper.
///
/// Values carry a total order and a hash so that any value can serve as a
/// merge-attribute item. Floats are ordered with NaN greater than every
/// other float and hashed through canonical bit patterns (`-0.0` folds onto
/// `0.0`, all NaNs fold onto one bit pattern), which keeps `Eq`/`Ord`/`Hash`
/// mutually consistent.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL; sorts before every other value and only equals itself
    /// (set semantics, not three-valued logic — see [`Predicate::eval`]).
    ///
    /// [`Predicate::eval`]: crate::condition::Predicate::eval
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with canonicalized NaN/zero semantics.
    Float(f64),
    /// UTF-8 string; short ones are stored in place (see [`Text`]).
    Str(Text),
}

impl Value {
    /// Returns the [`ValueType`](crate::schema::ValueType) tag of this value.
    pub fn value_type(&self) -> crate::schema::ValueType {
        use crate::schema::ValueType;
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
        }
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<Text>) -> Self {
        Value::Str(s.into())
    }

    /// Estimated wire size in bytes when shipped between mediator and
    /// source (used by the network cost simulator).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        }
    }

    /// True if both values are numeric (`Int` or `Float`).
    pub fn both_numeric(a: &Value, b: &Value) -> bool {
        matches!(a, Value::Int(_) | Value::Float(_)) && matches!(b, Value::Int(_) | Value::Float(_))
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Rank of the type in the cross-type total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Canonical bits for hashing a float consistently with its ordering.
    fn canonical_float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) if Value::both_numeric(a, b) => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                // NaN sorts above all other numerics.
                match (x.is_nan(), y.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => x.partial_cmp(&y).unwrap(),
                }
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when they compare equal
            // (e.g. Int(2) == Float(2.0)), so both hash via canonical f64
            // bits when the integer is exactly representable.
            Value::Int(i) => {
                let f = *i as f64;
                if f as i64 == *i {
                    2u8.hash(state);
                    Value::canonical_float_bits(f).hash(state);
                } else {
                    3u8.hash(state);
                    i.hash(state);
                }
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && *f >= -(2f64.powi(63)) && *f < 2f64.powi(63) {
                    2u8.hash(state);
                    Value::canonical_float_bits(*f).hash(state);
                } else {
                    4u8.hash(state);
                    Value::canonical_float_bits(*f).hash(state);
                }
            }
            Value::Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
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
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A merge-attribute value: the identity of a real-world entity.
///
/// The paper calls these *items* — "we use the term item to refer to a merge
/// attribute value" (§2.1). `Item` is a thin newtype over [`Value`] so item
/// sets cannot be confused with arbitrary value collections.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item(pub Value);

impl Item {
    /// Constructs an item from anything convertible to a [`Value`].
    pub fn new(v: impl Into<Value>) -> Self {
        Item(v.into())
    }

    /// The underlying value.
    pub fn value(&self) -> &Value {
        &self.0
    }

    /// Estimated wire size in bytes when shipped in a semijoin set.
    pub fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            // Items print without quotes in plan listings, matching the
            // paper's `{J55, T80, T21}` notation.
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{other}"),
        }
    }
}

impl<T: Into<Value>> From<T> for Item {
    fn from(v: T) -> Self {
        Item(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_across_types() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Int(7),
            Value::str("abc"),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {} failed", w[0], w[1]);
        }
    }

    #[test]
    fn int_float_cross_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn nan_is_self_equal_and_maximal_numeric() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert!(nan > Value::Float(f64::INFINITY));
        assert!(nan < Value::str(""));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("o'hare").to_string(), "'o''hare'");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn item_display_is_unquoted() {
        assert_eq!(Item::new("J55").to_string(), "J55");
        assert_eq!(Item::new(17i64).to_string(), "17");
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Int(1).wire_size(), 8);
        assert_eq!(Value::str("ab").wire_size(), 6);
        assert_eq!(Value::Null.wire_size(), 1);
    }

    #[test]
    fn inline_strings_do_not_widen_values() {
        // The same enum with a `String` in it, as `Value` was declared
        // before `Text`: tuples and item sets must not grow.
        #[allow(dead_code)]
        enum WithString {
            Null,
            Bool(bool),
            Int(i64),
            Float(f64),
            Str(String),
        }
        assert_eq!(
            std::mem::size_of::<Value>(),
            std::mem::size_of::<WithString>()
        );
        assert!(std::mem::size_of::<Value>() <= 32);
        assert_eq!(std::mem::size_of::<Item>(), std::mem::size_of::<Value>());
    }

    #[test]
    fn strings_order_hash_and_size_as_before_at_any_length() {
        let short = Value::str("E0001234");
        let long = Value::str("E0001234-with-a-tail-past-the-inline-limit");
        assert!(short < long, "a prefix sorts first");
        assert!(long < Value::str("E0001235"));
        assert_eq!(short.wire_size(), 4 + 8);
        assert_eq!(long.wire_size(), 4 + 42);
        assert_eq!(long, long.clone());
        assert_eq!(hash_of(&long), hash_of(&long.clone()));
        assert_ne!(hash_of(&short), hash_of(&long));
        assert_eq!(
            long.to_string(),
            "'E0001234-with-a-tail-past-the-inline-limit'"
        );
    }

    #[test]
    fn large_int_ordering_against_floats() {
        // i64::MAX is not exactly representable as f64; make sure ordering
        // is still sane (approximate comparison through f64 is acceptable
        // for cross-type ordering, exactness only matters within a type).
        assert!(Value::Int(i64::MAX) > Value::Float(1e10));
        assert!(Value::Int(i64::MIN) < Value::Float(-1e10));
    }
}
