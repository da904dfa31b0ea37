//! Fundamental data types for fusion query processing.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Value`] — the dynamically typed cell value of the common wrapper
//!   schema (§2.1 of the paper), with a total order and hash so values can
//!   act as merge-attribute items.
//! * [`Text`] — the string inside a `Value`: short ones are stored in
//!   place, so merge keys clone, compare and drop without the allocator.
//! * [`Item`] — a merge-attribute value, i.e. the identity of a real-world
//!   entity that tuples at different sources may refer to.
//! * [`ItemSet`] — an ordered set of items with the `∪` / `∩` / `−` algebra
//!   mediators apply locally (§2.3, §4).
//! * [`Schema`], [`Tuple`], [`Relation`] — the relational view every wrapper
//!   exports; relations are in-memory row stores with optional secondary
//!   indexes and a rank-ordered merge index that answers in merge order.
//! * [`Condition`] / [`Predicate`] — the condition language `c_i` of fusion
//!   queries, with an evaluator and an SQL-ish printer.
//! * [`Cost`] — non-negative, possibly infinite cost values of the paper's
//!   general cost model (§2.4).
//! * [`FusionError`] — the shared error type.

#![forbid(unsafe_code)]

pub mod bloom;
pub mod condition;
mod cost;
pub mod error;
pub mod itemset;
mod relation;
pub mod schema;
mod text;
mod tuple;
mod value;

pub use bloom::BloomFilter;
pub use condition::{Bound, CmpOp, Condition, Predicate};
pub use cost::Cost;
pub use error::FusionError;
pub use itemset::ItemSet;
pub use relation::{Relation, SelectOutcome};
pub use schema::{Attribute, Schema, ValueType};
pub use text::Text;
pub use tuple::Tuple;
pub use value::{Item, Value};

/// Identifier of a source relation `R_j` within a fusion query.
///
/// Sources are dense indexes `0..n`; display uses the paper's 1-based
/// `R_1..R_n` convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub usize);

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0 + 1)
    }
}

/// Identifier of a query condition `c_i` within a fusion query.
///
/// Conditions are dense indexes `0..m`; display uses the paper's 1-based
/// `c_1..c_m` convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondId(pub usize);

impl std::fmt::Display for CondId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0 + 1)
    }
}

/// A fixed-seed generator for the seeded unit tests of this crate (the
/// workspace's `SplitMix64` lives downstream, in `fusion-stats`): each call
/// of the returned closure draws from `0..n`.
#[cfg(test)]
pub(crate) fn xorshift_below() -> impl FnMut(usize) -> usize {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    move |n| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_and_cond_ids_display_one_based() {
        assert_eq!(SourceId(0).to_string(), "R1");
        assert_eq!(SourceId(9).to_string(), "R10");
        assert_eq!(CondId(0).to_string(), "c1");
        assert_eq!(CondId(2).to_string(), "c3");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(SourceId(0) < SourceId(1));
        assert!(CondId(1) < CondId(2));
    }
}
