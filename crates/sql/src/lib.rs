//! Parser for the fusion-query SQL dialect (§1, §2.2).
//!
//! Fusion queries are written against the union view `U` of all source
//! relations:
//!
//! ```sql
//! SELECT u1.L
//! FROM U u1, U u2
//! WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'
//! ```
//!
//! The parser is a hand-written lexer + recursive-descent grammar covering
//! comparisons, `BETWEEN`, `IN`, `LIKE`, `IS [NOT] NULL`, `NOT`, and
//! `AND`/`OR` with standard precedence. After parsing, the WHERE clause is
//! checked against the fusion-query shape of §2.2: the top-level
//! conjunction must contain a merge-equality chain connecting all query
//! variables, and every remaining conjunct must reference exactly one
//! variable — those conjuncts become the conditions `c_1..c_m`.

#![forbid(unsafe_code)]

mod ast;
mod lexer;
mod parser;
mod shape;

pub use ast::{Expr, ParsedQuery};
pub use parser::parse_query;
pub use shape::{into_fusion_shape, FusionShape};
