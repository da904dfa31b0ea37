//! The common schema exported by wrappers (§2.1).
//!
//! All source relations in a fusion query share one schema that includes
//! the merge attribute `M`. Internally each source may use a different
//! model; the wrapper maps it to this common view.

use crate::error::{FusionError, Result};
use std::fmt;
use std::sync::Arc;

/// Type tag for [`Value`](crate::Value)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// The type of `NULL`.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "NULL",
            ValueType::Bool => "BOOL",
            ValueType::Int => "INT",
            ValueType::Float => "FLOAT",
            ValueType::Str => "STR",
        };
        write!(f, "{s}")
    }
}

impl ValueType {
    /// True if a value of this type can be compared with one of `other`
    /// (numeric types are mutually comparable).
    pub(crate) fn comparable_with(self, other: ValueType) -> bool {
        use ValueType::*;
        match (self, other) {
            (Int, Float) | (Float, Int) => true,
            (a, b) => a == b,
        }
    }
}

/// A named, typed attribute of the common schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, e.g. `"L"`, `"V"`, `"D"` in the DMV example.
    pub name: String,
    /// Declared value type.
    pub ty: ValueType,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }
}

/// The common relational schema, with a designated merge attribute.
///
/// Cheap to clone: the attribute list is shared behind an [`Arc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Arc<Vec<Attribute>>,
    merge_idx: usize,
}

impl Schema {
    /// Builds a schema; `merge` names the merge attribute `M`.
    ///
    /// # Errors
    /// Fails if `merge` is not among `attrs` or attribute names collide.
    pub fn new(attrs: Vec<Attribute>, merge: &str) -> Result<Schema> {
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(FusionError::TypeMismatch {
                    detail: format!("duplicate attribute `{}` in schema", a.name),
                });
            }
        }
        let merge_idx = attrs.iter().position(|a| a.name == merge).ok_or_else(|| {
            FusionError::UnknownAttribute {
                name: merge.to_string(),
            }
        })?;
        Ok(Schema {
            attrs: Arc::new(attrs),
            merge_idx,
        })
    }

    /// All attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Index of the merge attribute.
    pub fn merge_index(&self) -> usize {
        self.merge_idx
    }

    /// The merge attribute itself.
    pub fn merge_attribute(&self) -> &Attribute {
        &self.attrs[self.merge_idx]
    }

    /// Resolves an attribute name to its column index.
    ///
    /// # Errors
    /// Fails with [`FusionError::UnknownAttribute`] if absent.
    pub(crate) fn index_of(&self, name: &str) -> Result<usize> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| FusionError::UnknownAttribute {
                name: name.to_string(),
            })
    }

    /// The attribute at `idx`.
    pub fn attribute(&self, idx: usize) -> &Attribute {
        &self.attrs[idx]
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if i == self.merge_idx {
                write!(f, "*")?;
            }
            write!(f, "{} {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

/// The DMV schema of the paper's running example: `(L, V, D)` with merge
/// attribute `L` (driver's license number).
pub fn dmv_schema() -> Schema {
    Schema::new(
        vec![
            Attribute::new("L", ValueType::Str),
            Attribute::new("V", ValueType::Str),
            Attribute::new("D", ValueType::Int),
        ],
        "L",
    )
    .expect("static schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmv_schema_shape() {
        let s = dmv_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.merge_index(), 0);
        assert_eq!(s.merge_attribute().name, "L");
        assert_eq!(s.index_of("V").unwrap(), 1);
        assert!(s.index_of("Z").is_err());
    }

    #[test]
    fn rejects_missing_merge_attribute() {
        let err = Schema::new(vec![Attribute::new("A", ValueType::Int)], "M").unwrap_err();
        assert!(matches!(err, FusionError::UnknownAttribute { .. }));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = Schema::new(
            vec![
                Attribute::new("A", ValueType::Int),
                Attribute::new("A", ValueType::Str),
            ],
            "A",
        )
        .unwrap_err();
        assert!(matches!(err, FusionError::TypeMismatch { .. }));
    }

    #[test]
    fn display_marks_merge_attribute() {
        assert_eq!(dmv_schema().to_string(), "(*L STR, V STR, D INT)");
    }

    #[test]
    fn comparability() {
        assert!(ValueType::Int.comparable_with(ValueType::Float));
        assert!(ValueType::Str.comparable_with(ValueType::Str));
        assert!(!ValueType::Str.comparable_with(ValueType::Int));
    }
}
