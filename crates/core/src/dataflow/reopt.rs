//! Certification of a mid-flight plan switch.
//!
//! When an observed cardinality leaves its believed interval, the runtime
//! re-optimizer splices a freshly searched suffix onto the rounds already
//! executed. The splice is only taken if this module can *certify* it:
//!
//! 1. **Prefix identity** — the new plan's first `executed` steps are
//!    byte-identical to the old plan's (same ops, same variables), so
//!    every value bound so far means the same thing under the new plan;
//! 2. **Semantics** — the BDD analyzer proves the spliced plan still
//!    computes the fusion query `⋂ᵢ⋃ⱼ sq(cᵢ,Rⱼ)` exactly;
//! 3. **Race freedom** — the spliced plan's stage schedule re-verifies
//!    ([`stage_decomposition`]: partition, dependencies,
//!    source-disjointness, the BDD stage-order replay, and no unordered
//!    conflicting pair in its certified event graph, cache events
//!    included).
//!
//! A switch that fails any check is refused; the executor keeps the plan
//! it already has. Certification never trusts the optimizer that proposed
//! the switch — the checks recompute everything from the plan itself.

use super::stage_decomposition;
use crate::analyze::analyze_plan;
use crate::plan::Plan;
use fusion_types::error::{FusionError, Result};

/// Evidence that a suffix switch is sound, returned by
/// [`certify_switch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchCertificate {
    /// Steps of the old plan already executed and shared verbatim by the
    /// spliced plan.
    pub shared_prefix: usize,
    /// Total steps of the spliced plan.
    pub steps: usize,
    /// Stages of the spliced plan's verified decomposition.
    pub stages: usize,
}

impl std::fmt::Display for SwitchCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "switch certified: prefix {} of {} steps, {} race-free stages, semantics proved",
            self.shared_prefix, self.steps, self.stages
        )
    }
}

fn refuse(msg: impl std::fmt::Display) -> FusionError {
    FusionError::invalid_plan(format!("refusing plan switch: {msg}"))
}

/// Certifies that replacing `old_plan` by `new_plan` after `executed`
/// steps have run is sound. See the module docs for the three checks.
///
/// # Errors
/// Fails with the violated check; the caller must then keep `old_plan`.
pub fn certify_switch(
    old_plan: &Plan,
    new_plan: &Plan,
    executed: usize,
) -> Result<SwitchCertificate> {
    new_plan.validate()?;
    if new_plan.n_conditions != old_plan.n_conditions || new_plan.n_sources != old_plan.n_sources {
        return Err(refuse("spliced plan serves a different query shape"));
    }
    if executed > new_plan.steps.len() || executed > old_plan.steps.len() {
        return Err(refuse(format!(
            "prefix of {executed} steps exceeds a plan ({} old / {} new steps)",
            old_plan.steps.len(),
            new_plan.steps.len()
        )));
    }
    for i in 0..executed {
        if old_plan.steps[i] != new_plan.steps[i] {
            return Err(refuse(format!(
                "step #{} diverges inside the executed prefix",
                i + 1
            )));
        }
    }
    // Executed steps bound variables by id; the splice is only sound if
    // those ids name the same slots in the new plan.
    let named = |plan: &Plan, i: usize| -> Vec<String> {
        plan.steps[i]
            .used_vars()
            .into_iter()
            .chain(plan.steps[i].defined_var())
            .map(|v| plan.var_names[v.0].clone())
            .collect()
    };
    for i in 0..executed {
        if named(old_plan, i) != named(new_plan, i) {
            return Err(refuse(format!(
                "step #{} renames a variable inside the executed prefix",
                i + 1
            )));
        }
    }
    let analysis = analyze_plan(new_plan)?;
    if !analysis.verdict().is_proved() {
        return Err(refuse(
            "the BDD analyzer cannot prove the spliced plan computes the fusion query",
        ));
    }
    let stages = stage_decomposition(new_plan)?;
    Ok(SwitchCertificate {
        shared_prefix: executed,
        steps: new_plan.steps.len(),
        stages: stages.stages.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::optimizer::sja_optimal;
    use crate::plan::{SimplePlanSpec, SourceChoice, Step};
    use fusion_types::CondId;

    fn model(m: usize, n: usize) -> TableCostModel {
        TableCostModel::uniform(m, n, 5.0, 1.0, 0.5, 1e9, 4.0, 50.0)
    }

    fn all_selection_spec(order: Vec<usize>, n: usize) -> SimplePlanSpec {
        let m = order.len();
        SimplePlanSpec {
            order: order.into_iter().map(CondId).collect(),
            choices: vec![vec![SourceChoice::Selection; n]; m],
        }
    }

    #[test]
    fn identical_plan_certifies_at_any_prefix() {
        let opt = sja_optimal(&model(3, 2));
        for executed in [0, 2, opt.plan.steps.len()] {
            let cert = certify_switch(&opt.plan, &opt.plan, executed).unwrap();
            assert_eq!(cert.shared_prefix, executed);
            assert_eq!(cert.steps, opt.plan.steps.len());
            assert!(cert.stages > 0);
        }
    }

    #[test]
    fn suffix_reordering_with_shared_prefix_certifies() {
        let n = 2;
        // Same first round (condition 0); the suffix order flips.
        let a = all_selection_spec(vec![0, 1, 2], n).build(n).unwrap();
        let b = all_selection_spec(vec![0, 2, 1], n).build(n).unwrap();
        // Round 0 emits n selections + a union = n + 1 identical steps.
        let cert = certify_switch(&a, &b, n + 1).unwrap();
        assert_eq!(cert.shared_prefix, n + 1);
    }

    #[test]
    fn diverging_prefix_is_refused() {
        let n = 2;
        let a = all_selection_spec(vec![0, 1, 2], n).build(n).unwrap();
        let b = all_selection_spec(vec![1, 0, 2], n).build(n).unwrap();
        let err = certify_switch(&a, &b, 1).unwrap_err();
        assert!(err.to_string().contains("diverges"), "{err}");
    }

    #[test]
    fn semantically_wrong_splice_is_refused() {
        let n = 2;
        let a = all_selection_spec(vec![0, 1, 2], n).build(n).unwrap();
        // Drop the last condition entirely: still a valid plan for m=2,
        // but it no longer computes the 3-condition query.
        let mut b = a.clone();
        // Truncate to the first two rounds and retarget the result.
        let keep = 2 * (n + 1) + 1; // rounds 0,1 + the intersect of round 1
        b.steps.truncate(keep);
        let last_out = b
            .steps
            .last()
            .and_then(Step::defined_var)
            .expect("intersect has an output");
        b.result = last_out;
        let err = certify_switch(&a, &b, n + 1).unwrap_err();
        assert!(
            err.to_string().contains("prove") || err.to_string().contains("shape"),
            "{err}"
        );
    }

    #[test]
    fn prefix_longer_than_plan_is_refused() {
        let a = all_selection_spec(vec![0, 1], 2).build(2).unwrap();
        let err = certify_switch(&a, &a, a.steps.len() + 1).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
