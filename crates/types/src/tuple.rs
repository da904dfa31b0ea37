//! Row values conforming to the common schema.

use crate::schema::Schema;
use crate::value::{Item, Value};
use std::fmt;
use std::sync::Arc;

/// A row of the common schema: one value per attribute.
///
/// The values sit behind one [`Arc`], so a copy of a row — a record
/// selection's answer, a fetch, a load, a cached harvest, the relations a
/// source set is built from — is a reference-count bump, not an
/// allocation. A tuple is never changed in place, so the sharing cannot
/// be observed: it hashes, compares and prints as the slice of its values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from values in schema attribute order. The values
    /// move into a fresh shared block — one allocation and copy more than
    /// collecting them straight into a tuple (`FromIterator`), which code
    /// that builds rows by the thousand uses.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// The value at column `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The merge-attribute item of this tuple under `schema`.
    pub fn item(&self, schema: &Schema) -> Item {
        Item(self.values[schema.merge_index()].clone())
    }

    /// Estimated wire size in bytes when the full record is shipped.
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }
}

/// Collects values in schema attribute order. An iterator of known exact
/// length — an array, a `map` over a slice or a range, a `chain` of those —
/// writes its values straight into the shared block, one allocation per
/// row.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Tuple {
            values: values.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a tuple from a list of `Into<Value>` expressions.
///
/// ```
/// use fusion_types::{tuple, Value};
/// let t = tuple!["J55", "dui", 1993i64];
/// assert_eq!(t.get(1), &Value::str("dui"));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        <$crate::Tuple as ::std::iter::FromIterator<$crate::Value>>::from_iter([
            $($crate::Value::from($v)),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::dmv_schema;
    use std::hash::{BuildHasher, RandomState};

    #[test]
    fn tuple_macro_and_accessors() {
        let t = tuple!["J55", "dui", 1993i64];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), &Value::str("J55"));
        assert_eq!(t.get(2), &Value::Int(1993));
    }

    #[test]
    fn item_extraction_uses_merge_attribute() {
        let t = tuple!["J55", "dui", 1993i64];
        assert_eq!(t.item(&dmv_schema()), Item::new("J55"));
    }

    #[test]
    fn display_and_wire_size() {
        let t = tuple!["J55", 1993i64];
        assert_eq!(t.to_string(), "('J55', 1993)");
        assert_eq!(t.wire_size(), (4 + 3) + 8);
    }

    #[test]
    fn a_shared_row_is_two_words_and_looks_like_its_values() {
        assert_eq!(std::mem::size_of::<Tuple>(), 16);
        let values = vec![Value::str("J55"), Value::Null, Value::Float(2.0)];
        let t = Tuple::new(values.clone());
        // Hashes exactly as its values did when a tuple held a `Vec`.
        let state = RandomState::new();
        assert_eq!(state.hash_one(&t), state.hash_one(t.values()));
        assert_eq!(state.hash_one(&t), state.hash_one(&values));
        assert_eq!(
            format!("{t:?}"),
            r#"Tuple { values: [Str("J55"), Null, Float(2.0)] }"#
        );
        assert_eq!(format!("{t:?}"), format!("Tuple {{ values: {values:?} }}"));
        // A copy shares the values.
        let copy = t.clone();
        assert!(std::ptr::eq(copy.values(), t.values()));
        assert_eq!(copy, t);
        // Collected, it is the same tuple.
        let collected: Tuple = values.iter().cloned().collect();
        assert_eq!(format!("{collected:?}"), format!("{t:?}"));
        assert_eq!(tuple![], Tuple::new(Vec::new()));
    }
}
