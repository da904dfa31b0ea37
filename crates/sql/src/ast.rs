//! Parsed representation of a fusion-dialect query.

use fusion_types::{CmpOp, Value};

/// A qualified attribute reference `u1.V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrRef {
    /// Query-variable index (position in the FROM list).
    pub var: usize,
    /// Attribute name.
    pub attr: String,
}

/// A WHERE-clause expression, prior to fusion-shape analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `ref op literal`.
    Cmp {
        /// Left-hand attribute.
        lhs: AttrRef,
        /// Operator (already flipped if the literal was on the left).
        op: CmpOp,
        /// Literal right-hand side.
        rhs: Value,
    },
    /// `ref BETWEEN lo AND hi`.
    Between {
        /// Tested attribute.
        lhs: AttrRef,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `ref IN (v, ...)`.
    InList {
        /// Tested attribute.
        lhs: AttrRef,
        /// Member literals.
        values: Vec<Value>,
    },
    /// `ref LIKE 'pattern'`.
    Like {
        /// Tested attribute.
        lhs: AttrRef,
        /// LIKE pattern.
        pattern: String,
    },
    /// `ref IS NULL`.
    IsNull {
        /// Tested attribute.
        lhs: AttrRef,
    },
    /// `u_i.M = u_j.M` — a link of the merge-equality chain.
    MergeEq {
        /// Left reference.
        left: AttrRef,
        /// Right reference.
        right: AttrRef,
    },
    /// `TRUE` / `FALSE`.
    Const(bool),
}

/// A parsed query: projection, FROM variables, and WHERE expression.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// The projected attribute (`u1.M` → `(0, "M")`).
    pub projection: AttrRef,
    /// Alias of each query variable, in FROM order.
    pub variables: Vec<String>,
    /// Name of the union view (all FROM entries must use the same one).
    pub view: String,
    /// The WHERE expression (`Const(true)` when absent).
    pub where_clause: Expr,
}

impl Expr {
    /// Query variables referenced anywhere in this expression.
    pub(crate) fn referenced_vars(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<usize>) {
        match self {
            Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| e.collect_vars(out)),
            Expr::Not(e) => e.collect_vars(out),
            Expr::Cmp { lhs, .. }
            | Expr::Between { lhs, .. }
            | Expr::InList { lhs, .. }
            | Expr::Like { lhs, .. }
            | Expr::IsNull { lhs } => out.push(lhs.var),
            Expr::MergeEq { left, right } => {
                out.push(left.var);
                out.push(right.var);
            }
            Expr::Const(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_vars_dedup_across_connectives() {
        let e = Expr::And(vec![
            Expr::Cmp {
                lhs: AttrRef {
                    var: 1,
                    attr: "V".into(),
                },
                op: CmpOp::Eq,
                rhs: Value::str("x"),
            },
            Expr::Or(vec![
                Expr::IsNull {
                    lhs: AttrRef {
                        var: 0,
                        attr: "D".into(),
                    },
                },
                Expr::Const(true),
            ]),
            Expr::MergeEq {
                left: AttrRef {
                    var: 0,
                    attr: "L".into(),
                },
                right: AttrRef {
                    var: 2,
                    attr: "L".into(),
                },
            },
        ]);
        assert_eq!(e.referenced_vars(), vec![0, 1, 2]);
    }
}
