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
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            _ => self.cmp_mixed(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Merge keys are strings or integers, so those two pairings are
    /// decided here, in the caller's loop body; every other pairing is one
    /// call away.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            _ => self.cmp_mixed(other),
        }
    }
}

impl Value {
    /// The total order in full: by type rank, numerics by exact value.
    #[inline(never)]
    fn cmp_mixed(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => cmp_floats(*a, *b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

/// Floats in numeric order (`-0.0` equals `0.0`), every NaN equal to every
/// other and above all else.
fn cmp_floats(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// An integer against a float, exactly. Casting the integer to `f64`
/// rounds beyond 2^53 — `2^53 + 1` would equal `2^53 as f64`, which equals
/// `2^53`, which does not equal `2^53 + 1` — so compare the float's
/// integral part as an `i64` and let its fraction break the tie.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    // In `[-2^63, 2^63)` the cast is exact and the subtraction too.
    let whole = f.trunc();
    i.cmp(&(whole as i64)).then(cmp_floats(0.0, f - whole))
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

    /// The item as an integer that orders as it does, if it is a string
    /// stored inline; see [`Text::inline_key`].
    #[inline]
    pub(crate) fn inline_key(&self) -> Option<u128> {
        match &self.0 {
            Value::Str(s) => s.inline_key(),
            _ => None,
        }
    }

    /// The string item `key` was taken from by [`Item::inline_key`].
    #[inline]
    pub(crate) fn from_inline_key(key: u128) -> Item {
        Item(Value::Str(Text::from_inline_key(key)))
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
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Item>(), std::mem::size_of::<Value>());
    }

    #[test]
    fn every_payload_starts_on_the_second_word() {
        // What makes a clone three whole-word moves: the integer, the
        // float and the inline string's bytes all sit at offset 8.
        fn offset<T>(v: &Value, payload: *const T) -> usize {
            payload as usize - std::ptr::from_ref(v) as usize
        }
        let (i, f, s) = (Value::Int(7), Value::Float(7.5), Value::str("E0001234"));
        let (Value::Int(pi), Value::Float(pf), Value::Str(ps)) = (&i, &f, &s) else {
            unreachable!()
        };
        assert_eq!(offset(&i, std::ptr::from_ref(pi)), 8);
        assert_eq!(offset(&f, std::ptr::from_ref(pf)), 8);
        assert_eq!(offset(&s, ps.as_bytes().as_ptr()), 8);
        assert_eq!(std::mem::align_of::<Value>(), 8);
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

    /// Numerics where a cast to `f64` loses the integer: around ±2^53,
    /// the ends of `i64`, ±2^63 as floats, zeros, infinities, NaN and
    /// subnormals.
    fn hostile_numerics() -> Vec<Value> {
        const TWO_53: i64 = 1 << 53;
        let mut v = Vec::new();
        for base in [0, TWO_53, -TWO_53] {
            for d in -2..=2i64 {
                v.push(Value::Int(base + d));
                v.push(Value::Float((base + d) as f64));
            }
        }
        for i in [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX] {
            v.push(Value::Int(i));
        }
        let two_63 = 9_223_372_036_854_775_808.0f64;
        for f in [
            two_63,
            -two_63,
            two_63 * 2.0,
            -two_63 * 2.0,
            // The floats next to ±2^63 towards zero.
            f64::from_bits(two_63.to_bits() - 1),
            -f64::from_bits(two_63.to_bits() - 1),
            0.5,
            -0.5,
            TWO_53 as f64 + 2.0,
            TWO_53 as f64 - 0.5,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            v.push(Value::Float(f));
        }
        v
    }

    #[test]
    fn numeric_order_is_a_total_order_consistent_with_hash() {
        let vals = hostile_numerics();
        for a in &vals {
            assert_eq!(a.cmp(a), Ordering::Equal, "{a:?}");
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                assert_eq!(a == b, a.cmp(b) == Ordering::Equal, "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
                for c in &vals {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                    if a == b {
                        assert_eq!(a.cmp(c), b.cmp(c), "{a:?} == {b:?} vs {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn integers_beyond_2_pow_53_keep_their_identity_against_floats() {
        const TWO_53: i64 = 1 << 53;
        let f = Value::Float(TWO_53 as f64);
        assert_eq!(Value::Int(TWO_53), f);
        assert!(Value::Int(TWO_53 + 1) > f);
        assert!(Value::Int(TWO_53 - 1) < f);
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Float(-9_223_372_036_854_775_808.0)
        );
        assert!(Value::Int(i64::MAX) > Value::Float(1e10));
        assert!(Value::Int(i64::MIN) < Value::Float(-1e10));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(-3) > Value::Float(-3.5));
        assert!(Value::Int(-3) < Value::Float(-2.5));
    }

    #[test]
    fn from_items_of_hostile_numerics_ignores_input_order() {
        // Under the cast-based order `Int(2^53 + 1)`, `Float(2^53)` and
        // `Int(2^53)` gave a different set for each order they came in.
        use crate::ItemSet;
        let mut vals = hostile_numerics();
        let want = ItemSet::from_items(vals.iter().cloned().map(Item));
        assert!(want.iter().zip(want.iter().skip(1)).all(|(a, b)| a < b));
        for turn in 0..vals.len() {
            vals.rotate_left(1);
            let rotated = ItemSet::from_items(vals.iter().cloned().map(Item));
            assert_eq!(rotated, want, "rotation {turn}");
            let reversed = ItemSet::from_items(vals.iter().rev().cloned().map(Item));
            assert_eq!(reversed, want, "reversed rotation {turn}");
        }
    }
}
