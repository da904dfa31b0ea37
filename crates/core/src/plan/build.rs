//! Building plans from condition-at-a-time specifications.

use super::{Plan, SourceChoice, Step, VarId};
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, SourceId};

/// The shape of a condition-at-a-time simple plan: an ordering of the
/// conditions plus, for every round after the first, a per-source choice
/// between selection and semijoin queries.
///
/// This is exactly the decision space of the SJ and SJA algorithms
/// (Figures 3 and 4): a *semijoin plan* constrains every round to a uniform
/// choice, a *semijoin-adaptive plan* does not, and a *filter plan* chooses
/// selection everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimplePlanSpec {
    /// The processing order `[c_{o_1}, ..., c_{o_m}]`.
    pub order: Vec<CondId>,
    /// `choices[r][j]`: the strategy for round `r` at source `j`.
    /// `choices[0]` must be all [`SourceChoice::Selection`] — "the first
    /// condition in a semijoin plan is always evaluated by selection
    /// queries" (§2.5).
    pub choices: Vec<Vec<SourceChoice>>,
}

impl SimplePlanSpec {
    /// The filter-plan specification: identity order, selections only.
    pub fn filter(m: usize, n: usize) -> SimplePlanSpec {
        SimplePlanSpec {
            order: (0..m).map(CondId).collect(),
            choices: vec![vec![SourceChoice::Selection; n]; m],
        }
    }

    /// The all-semijoin specification: identity order, selections in
    /// round 0 (§2.5 requires it), semijoin queries everywhere after.
    pub fn all_semijoin(m: usize, n: usize) -> SimplePlanSpec {
        SimplePlanSpec {
            order: (0..m).map(CondId).collect(),
            choices: (0..m)
                .map(|r| {
                    let choice = if r == 0 {
                        SourceChoice::Selection
                    } else {
                        SourceChoice::Semijoin
                    };
                    vec![choice; n]
                })
                .collect(),
        }
    }

    /// Checks the structural invariants of the specification.
    ///
    /// # Errors
    /// Fails when the order is not a permutation, the choice matrix shape
    /// is wrong, or round 0 contains a semijoin choice.
    pub fn validate(&self, n_sources: usize) -> Result<()> {
        let m = self.order.len();
        if m == 0 {
            return Err(FusionError::invalid_plan("empty condition order"));
        }
        let mut seen = vec![false; m];
        for c in &self.order {
            if c.0 >= m || seen[c.0] {
                return Err(FusionError::invalid_plan(format!(
                    "order is not a permutation of 0..{m}"
                )));
            }
            seen[c.0] = true;
        }
        if self.choices.len() != m {
            return Err(FusionError::invalid_plan(format!(
                "expected {m} choice rounds, got {}",
                self.choices.len()
            )));
        }
        for (r, row) in self.choices.iter().enumerate() {
            if row.len() != n_sources {
                return Err(FusionError::invalid_plan(format!(
                    "round {r} has {} choices for {n_sources} sources",
                    row.len()
                )));
            }
        }
        if self.choices[0].contains(&SourceChoice::Semijoin) {
            return Err(FusionError::invalid_plan(
                "the first round must use selection queries only",
            ));
        }
        Ok(())
    }

    /// Emits the plan for this specification, with paper-style variable
    /// names (`X11`, `X1`, ...).
    ///
    /// Round `r ≥ 1` producing per-source sets `X_rj` combines them as the
    /// paper's figures do: `X_r := ∪_j X_rj` followed by
    /// `X_r := X_r ∩ X_{r-1}` — the intersection omitted when every source
    /// used a semijoin query (each `X_rj` is then already a subset of
    /// `X_{r-1}`, cf. Figure 2(b)).
    ///
    /// # Errors
    /// Propagates [`SimplePlanSpec::validate`] failures.
    pub fn build(&self, n_sources: usize) -> Result<Plan> {
        self.validate(n_sources)?;
        let m = self.order.len();
        let mut plan = Plan {
            steps: Vec::new(),
            result: VarId(0),
            n_conditions: m,
            n_sources,
            var_names: Vec::new(),
            rel_names: Vec::new(),
        };
        let mut prev: Option<VarId> = None;
        for (r, &cond) in self.order.iter().enumerate() {
            let round_no = r + 1;
            let mut per_source = Vec::with_capacity(n_sources);
            let all_semijoin = self.choices[r].iter().all(|c| *c == SourceChoice::Semijoin);
            for j in 0..n_sources {
                let out = plan.fresh_var(format!("X{round_no}{}", j + 1));
                let step = match self.choices[r][j] {
                    SourceChoice::Selection => Step::Sq {
                        out,
                        cond,
                        source: SourceId(j),
                    },
                    SourceChoice::Semijoin => Step::Sjq {
                        out,
                        cond,
                        source: SourceId(j),
                        input: prev.expect("validated: round 0 has no semijoins"),
                    },
                };
                plan.steps.push(step);
                per_source.push(out);
            }
            let union_out = plan.fresh_var(format!("X{round_no}"));
            plan.steps.push(Step::Union {
                out: union_out,
                inputs: per_source,
            });
            let round_result = match prev {
                Some(p) if !all_semijoin => {
                    let inter = plan.fresh_var(format!("X{round_no}"));
                    plan.steps.push(Step::Intersect {
                        out: inter,
                        inputs: vec![union_out, p],
                    });
                    inter
                }
                _ => union_out,
            };
            prev = Some(round_result);
        }
        plan.result = prev.expect("at least one round");
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanClass;

    #[test]
    fn filter_spec_builds_figure2a_shape() {
        // 3 conditions, 2 sources → 11 steps as in Figure 2(a).
        let plan = SimplePlanSpec::filter(3, 2).build(2).unwrap();
        assert_eq!(plan.steps.len(), 11);
        assert_eq!(plan.class(), PlanClass::Filter);
        assert_eq!(plan.remote_op_counts(), (6, 0, 0));
        plan.validate().unwrap();
    }

    #[test]
    fn all_semijoin_round_skips_intersection() {
        // Figure 2(b): c2 by semijoins (no ∩ after), c3 by selections
        // (∩ after) → 10 steps.
        let spec = SimplePlanSpec {
            order: vec![CondId(0), CondId(1), CondId(2)],
            choices: vec![
                vec![SourceChoice::Selection; 2],
                vec![SourceChoice::Semijoin; 2],
                vec![SourceChoice::Selection; 2],
            ],
        };
        let plan = spec.build(2).unwrap();
        assert_eq!(plan.steps.len(), 10);
        assert_eq!(plan.class(), PlanClass::Semijoin);
        plan.validate().unwrap();
    }

    #[test]
    fn mixed_round_is_adaptive_with_intersection() {
        // Figure 2(c): c2 mixed (sjq at R1, sq at R2) → 11 steps.
        let spec = SimplePlanSpec {
            order: vec![CondId(0), CondId(1), CondId(2)],
            choices: vec![
                vec![SourceChoice::Selection; 2],
                vec![SourceChoice::Semijoin, SourceChoice::Selection],
                vec![SourceChoice::Selection; 2],
            ],
        };
        let plan = spec.build(2).unwrap();
        assert_eq!(plan.steps.len(), 11);
        assert_eq!(plan.class(), PlanClass::SemijoinAdaptive);
        plan.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_specs() {
        // Not a permutation.
        let bad = SimplePlanSpec {
            order: vec![CondId(0), CondId(0)],
            choices: vec![vec![SourceChoice::Selection]; 2],
        };
        assert!(bad.validate(1).is_err());
        // Semijoin in round 0.
        let bad = SimplePlanSpec {
            order: vec![CondId(0)],
            choices: vec![vec![SourceChoice::Semijoin]],
        };
        assert!(bad.validate(1).is_err());
        // Wrong row width.
        let bad = SimplePlanSpec {
            order: vec![CondId(0)],
            choices: vec![vec![SourceChoice::Selection; 3]],
        };
        assert!(bad.validate(2).is_err());
        // Empty.
        let bad = SimplePlanSpec {
            order: vec![],
            choices: vec![],
        };
        assert!(bad.validate(2).is_err());
    }

    #[test]
    fn non_identity_order_uses_round_names() {
        let spec = SimplePlanSpec {
            order: vec![CondId(1), CondId(0)],
            choices: vec![vec![SourceChoice::Selection; 2]; 2],
        };
        let plan = spec.build(2).unwrap();
        // First round evaluates c2 but the variable is named X11.
        assert_eq!(plan.var_name(VarId(0)), "X11");
        match &plan.steps[0] {
            Step::Sq { cond, .. } => assert_eq!(*cond, CondId(1)),
            other => panic!("expected Sq, got {other:?}"),
        }
        plan.validate().unwrap();
    }
}
