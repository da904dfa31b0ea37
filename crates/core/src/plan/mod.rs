//! The plan language of §2.3 (simple plans) and §4 (extended operations).
//!
//! Plans are ANF-style step lists `X_k := op(...)` over single-assignment
//! item-set variables, mirroring the paper's notation one-to-one so that
//! the worked examples of Figures 2 and 5 can be regenerated verbatim.

mod build;
mod display;
mod validate;

pub use build::SimplePlanSpec;

use fusion_types::{CondId, SourceId};

/// An item-set variable (`X`, `X_1`, `X_21`, ... in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// A loaded-relation variable (`T_j` after `lq(R_j)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelVar(pub usize);

/// Per-source strategy for one condition in a semijoin(-adaptive) plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceChoice {
    /// Evaluate the condition at this source with a selection query.
    Selection,
    /// Evaluate it with a semijoin query over the running item set.
    Semijoin,
}

/// One plan step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// `X := sq(c, R)` — selection query at a source (§2.1).
    Sq {
        /// Defined variable.
        out: VarId,
        /// The condition pushed to the source.
        cond: CondId,
        /// The source queried.
        source: SourceId,
    },
    /// `X := sjq(c, R, Y)` — semijoin query at a source (§2.1).
    Sjq {
        /// Defined variable.
        out: VarId,
        /// The condition evaluated.
        cond: CondId,
        /// The source queried.
        source: SourceId,
        /// The semijoin set shipped to the source.
        input: VarId,
    },
    /// `X := sjq(c, R, bloom(Y))` — Bloom-filter semijoin (extension):
    /// ships a hash-bit filter of `Y` instead of `Y` itself and receives a
    /// *superset* of the exact semijoin, which the plan re-intersects with
    /// `Y` in a following step.
    SjqBloom {
        /// Defined variable (the raw superset).
        out: VarId,
        /// The condition evaluated.
        cond: CondId,
        /// The source queried.
        source: SourceId,
        /// The semijoin set the filter is built from.
        input: VarId,
        /// Filter density in bits per item.
        bits: u8,
    },
    /// `T := lq(R)` — load the entire source (§4).
    Lq {
        /// Defined relation variable.
        out: RelVar,
        /// The source loaded.
        source: SourceId,
    },
    /// `X := sq(c, T)` — local application of a condition to a loaded
    /// source (§4; zero cost at the mediator).
    LocalSq {
        /// Defined variable.
        out: VarId,
        /// The condition applied locally.
        cond: CondId,
        /// The loaded relation.
        rel: RelVar,
    },
    /// `X := Y_1 ∪ ... ∪ Y_k` — local union (§2.3).
    Union {
        /// Defined variable.
        out: VarId,
        /// Operands, in order.
        inputs: Vec<VarId>,
    },
    /// `X := Y_1 ∩ ... ∩ Y_k` — local intersection (§2.3).
    Intersect {
        /// Defined variable.
        out: VarId,
        /// Operands, in order.
        inputs: Vec<VarId>,
    },
    /// `X := Y − Z` — local set difference (§4, SJA+ only).
    Diff {
        /// Defined variable.
        out: VarId,
        /// Minuend.
        left: VarId,
        /// Subtrahend.
        right: VarId,
    },
}

impl Step {
    /// The item-set variable this step defines, if any (`Lq` defines a
    /// relation variable instead).
    pub fn defined_var(&self) -> Option<VarId> {
        match self {
            Step::Sq { out, .. }
            | Step::Sjq { out, .. }
            | Step::SjqBloom { out, .. }
            | Step::LocalSq { out, .. }
            | Step::Union { out, .. }
            | Step::Intersect { out, .. }
            | Step::Diff { out, .. } => Some(*out),
            Step::Lq { .. } => None,
        }
    }

    /// The item-set variables this step reads.
    pub fn used_vars(&self) -> Vec<VarId> {
        match self {
            Step::Sq { .. } | Step::Lq { .. } | Step::LocalSq { .. } => vec![],
            Step::Sjq { input, .. } | Step::SjqBloom { input, .. } => vec![*input],
            Step::Union { inputs, .. } | Step::Intersect { inputs, .. } => inputs.clone(),
            Step::Diff { left, right, .. } => vec![*left, *right],
        }
    }

    /// The source this step contacts, if it is a remote operation.
    pub fn source(&self) -> Option<SourceId> {
        match self {
            Step::Sq { source, .. }
            | Step::Sjq { source, .. }
            | Step::SjqBloom { source, .. }
            | Step::Lq { source, .. } => Some(*source),
            _ => None,
        }
    }

    /// True if this step costs money under the paper's model (remote
    /// operations only; local `∪`/`∩`/`−`/local selection are free, §2.4).
    pub fn is_remote(&self) -> bool {
        self.source().is_some()
    }
}

/// Classification of a plan within the paper's taxonomy (§2.5, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanClass {
    /// Only selection queries and local `∪`/`∩` (§2.5, class 1).
    Filter,
    /// Condition-at-a-time with a uniform per-condition choice between
    /// selection and semijoin queries (§2.5, class 2).
    Semijoin,
    /// Condition-at-a-time with per-condition *and per-source* choices
    /// (§2.5, class 3).
    SemijoinAdaptive,
    /// Uses the extended operations of §4 (`lq`, local selection, `−`):
    /// outside the space of simple plans.
    Extended,
}

impl std::fmt::Display for PlanClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlanClass::Filter => "filter",
            PlanClass::Semijoin => "semijoin",
            PlanClass::SemijoinAdaptive => "semijoin-adaptive",
            PlanClass::Extended => "extended",
        };
        write!(f, "{s}")
    }
}

/// A fusion query plan: a step list computing one result variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The steps, in execution order.
    pub steps: Vec<Step>,
    /// The variable holding the query answer after the last step.
    pub result: VarId,
    /// Number of query conditions `m` the plan serves.
    pub n_conditions: usize,
    /// Number of sources `n` the plan may contact.
    pub n_sources: usize,
    /// Display names per item-set variable (`X1`, `X21`, ...). Indexed by
    /// `VarId`; generated names are used for unnamed variables.
    pub var_names: Vec<String>,
    /// Display names per relation variable (`T3`, ...).
    pub rel_names: Vec<String>,
}

impl Plan {
    /// Creates a plan, generating default display names.
    pub fn new(steps: Vec<Step>, result: VarId, n_conditions: usize, n_sources: usize) -> Plan {
        let mut n_vars = 0usize;
        let mut n_rels = 0usize;
        for s in &steps {
            if let Some(v) = s.defined_var() {
                n_vars = n_vars.max(v.0 + 1);
            }
            if let Step::Lq { out, .. } = s {
                n_rels = n_rels.max(out.0 + 1);
            }
        }
        let var_names = (0..n_vars).map(|i| format!("X{i}")).collect();
        let rel_names = (0..n_rels).map(|i| format!("T{i}")).collect();
        Plan {
            steps,
            result,
            n_conditions,
            n_sources,
            var_names,
            rel_names,
        }
    }

    /// Fresh item-set variable, extending the name table.
    pub fn fresh_var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.var_names.len());
        self.var_names.push(name.into());
        id
    }

    /// Fresh relation variable, extending the name table.
    pub fn fresh_rel(&mut self, name: impl Into<String>) -> RelVar {
        let id = RelVar(self.rel_names.len());
        self.rel_names.push(name.into());
        id
    }

    /// The display name of an item-set variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0]
    }

    /// The display name of a relation variable.
    pub fn rel_name(&self, r: RelVar) -> &str {
        &self.rel_names[r.0]
    }

    /// Number of remote operations (the steps that cost money).
    pub fn remote_ops(&self) -> usize {
        self.steps.iter().filter(|s| s.is_remote()).count()
    }

    /// Number of steps of each remote kind `(sq, sjq, lq)`.
    pub fn remote_op_counts(&self) -> (usize, usize, usize) {
        let mut sq = 0;
        let mut sjq = 0;
        let mut lq = 0;
        for s in &self.steps {
            match s {
                Step::Sq { .. } => sq += 1,
                Step::Sjq { .. } => sjq += 1,
                Step::Lq { .. } => lq += 1,
                _ => {}
            }
        }
        (sq, sjq, lq)
    }

    /// Classifies the plan in the paper's taxonomy.
    ///
    /// A plan is *extended* if it uses `lq`, local selection, or set
    /// difference. Otherwise it is *filter* if it has no semijoin queries.
    /// Otherwise, it is *semijoin* when, for every condition, either all
    /// its source queries are selections or all are semijoins, and
    /// *semijoin-adaptive* when some condition mixes the two.
    pub fn class(&self) -> PlanClass {
        let mut has_sjq = false;
        for s in &self.steps {
            match s {
                Step::Lq { .. }
                | Step::LocalSq { .. }
                | Step::Diff { .. }
                | Step::SjqBloom { .. } => {
                    return PlanClass::Extended;
                }
                Step::Sjq { .. } => has_sjq = true,
                _ => {}
            }
        }
        if !has_sjq {
            return PlanClass::Filter;
        }
        // Per condition: the set of remote query kinds used.
        let mut kinds: Vec<(bool, bool)> = vec![(false, false); self.n_conditions];
        for s in &self.steps {
            match s {
                Step::Sq { cond, .. } => kinds[cond.0].0 = true,
                Step::Sjq { cond, .. } => kinds[cond.0].1 = true,
                _ => {}
            }
        }
        if kinds.iter().any(|&(sel, semi)| sel && semi) {
            PlanClass::SemijoinAdaptive
        } else {
            PlanClass::Semijoin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built miniature: 1 condition, 2 sources, filter shape.
    fn tiny_filter() -> Plan {
        Plan::new(
            vec![
                Step::Sq {
                    out: VarId(0),
                    cond: CondId(0),
                    source: SourceId(0),
                },
                Step::Sq {
                    out: VarId(1),
                    cond: CondId(0),
                    source: SourceId(1),
                },
                Step::Union {
                    out: VarId(2),
                    inputs: vec![VarId(0), VarId(1)],
                },
            ],
            VarId(2),
            1,
            2,
        )
    }

    #[test]
    fn defined_and_used_vars() {
        let s = Step::Sjq {
            out: VarId(3),
            cond: CondId(1),
            source: SourceId(0),
            input: VarId(2),
        };
        assert_eq!(s.defined_var(), Some(VarId(3)));
        assert_eq!(s.used_vars(), vec![VarId(2)]);
        assert!(s.is_remote());
        let u = Step::Union {
            out: VarId(4),
            inputs: vec![VarId(0), VarId(1)],
        };
        assert!(!u.is_remote());
        let lq = Step::Lq {
            out: RelVar(0),
            source: SourceId(1),
        };
        assert_eq!(lq.defined_var(), None);
        assert_eq!(lq.source(), Some(SourceId(1)));
    }

    #[test]
    fn classification() {
        assert_eq!(tiny_filter().class(), PlanClass::Filter);

        let mut semi = tiny_filter();
        semi.n_conditions = 2;
        let v3 = semi.fresh_var("X3");
        let v4 = semi.fresh_var("X4");
        let v5 = semi.fresh_var("X5");
        semi.steps.push(Step::Sjq {
            out: v3,
            cond: CondId(1),
            source: SourceId(0),
            input: VarId(2),
        });
        semi.steps.push(Step::Sjq {
            out: v4,
            cond: CondId(1),
            source: SourceId(1),
            input: VarId(2),
        });
        semi.steps.push(Step::Union {
            out: v5,
            inputs: vec![v3, v4],
        });
        semi.result = v5;
        assert_eq!(semi.class(), PlanClass::Semijoin);

        // Make condition 2 mixed: replace second sjq by sq.
        let mut adaptive = semi.clone();
        adaptive.steps[4] = Step::Sq {
            out: v4,
            cond: CondId(1),
            source: SourceId(1),
        };
        assert_eq!(adaptive.class(), PlanClass::SemijoinAdaptive);

        // Any extended op forces Extended.
        let mut ext = semi.clone();
        let t = ext.fresh_rel("T1");
        ext.steps.push(Step::Lq {
            out: t,
            source: SourceId(0),
        });
        assert_eq!(ext.class(), PlanClass::Extended);
    }

    #[test]
    fn op_counts() {
        let p = tiny_filter();
        assert_eq!(p.remote_ops(), 2);
        assert_eq!(p.remote_op_counts(), (2, 0, 0));
    }

    #[test]
    fn default_names() {
        let p = tiny_filter();
        assert_eq!(p.var_name(VarId(0)), "X0");
        assert_eq!(p.var_name(VarId(2)), "X2");
    }
}
