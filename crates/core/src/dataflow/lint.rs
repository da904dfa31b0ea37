//! Dataflow-powered lint rules.
//!
//! These rules need more than the BDD semantics the base rules work
//! from: they read the def-use graph, the cardinality intervals, and the
//! guaranteed-cost bounds computed by [`analyze_dataflow`]. Like every
//! rule they are plain functions of the inputs they read;
//! [`dataflow_lint_plan`] computes each analysis once and calls all
//! eleven plan rules.

use super::{
    analyze_dataflow, cache_commit_race_findings, conflicting_footprint_findings,
    epoch_read_before_bump_findings, stage_levels, Dataflow, EventGraph, SourceBounds,
};
use crate::analyze::{
    analyze_plan, bloom_not_reintersected_findings, dead_step_findings, duplicate_query_findings,
    loaded_unused_findings, merge_sorted, superset_semijoin_input_findings, Analysis, Diagnostic,
    Severity,
};
use crate::cost::CostModel;
use crate::plan::{Plan, Step};
use fusion_types::error::Result;

/// `retry-non-idempotent-step`: a remote step that is unsafe to re-issue
/// under the executor's retry policy. Re-querying a source can observe a
/// *shrunken* relation (autonomous sources update between attempts); a
/// step is retry-safe when the plan is monotone in its source's answers —
/// exactly the droppability condition the fault-tolerance machinery
/// proves. A step whose source-suffix is *not* droppable (an antitone
/// use, e.g. feeding the right side of a difference) can make a retried
/// partial answer unsound, so it is flagged.
pub(crate) fn retry_non_idempotent_findings(
    plan: &Plan,
    analysis: &mut Analysis,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (t, s) in plan.steps.iter().enumerate() {
        let Some(src) = s.source() else { continue };
        // The answers a retry can shrink: this step and every later
        // query at the same source (a mid-plan re-issue re-runs the
        // source's remaining schedule).
        let suffix: Vec<usize> = (t..plan.steps.len())
            .filter(|&u| plan.steps[u].source() == Some(src))
            .collect();
        if !analysis.droppable(plan, &suffix) {
            out.push(Diagnostic {
                rule: "retry-non-idempotent-step",
                severity: Severity::Warning,
                step: t + 1,
                message: format!(
                    "re-issuing this query at R{} is not idempotent: the plan \
                     uses the source's answers non-monotonically, so a retry \
                     against changed source state can corrupt the answer",
                    src.0 + 1
                ),
            });
        }
    }
    out
}

/// `narrow-then-widen`: a semijoin ships a set that was first narrowed
/// by a difference and then re-widened by a union, so its guaranteed
/// upper bound *exceeds* the bound of the narrowed set it descends from
/// — the difference bought nothing for this shipment and the union is
/// paying transfer for items the difference already excluded.
pub(crate) fn narrow_then_widen_findings(plan: &Plan, df: &Dataflow) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for (t, s) in plan.steps.iter().enumerate() {
        let (Step::Sjq { input, .. } | Step::SjqBloom { input, .. }) = s else {
            continue;
        };
        let Some(def) = df.def_of[input.0] else {
            continue;
        };
        // Walk the def-use ancestry of the shipped set, tracking
        // whether the path to each ancestor crossed a union.
        let mut widened_diff: Option<usize> = None;
        let mut seen = vec![false; plan.steps.len() * 2];
        let mut stack = vec![(def, false)];
        while let Some((u, crossed_union)) = stack.pop() {
            let slot = u * 2 + usize::from(crossed_union);
            if seen[slot] {
                continue;
            }
            seen[slot] = true;
            if crossed_union
                && matches!(plan.steps[u], Step::Diff { .. })
                && df.step_bounds[t].hi > df.step_bounds[u].hi + 1e-9
            {
                widened_diff = Some(u);
                break;
            }
            let next_union = crossed_union || matches!(plan.steps[u], Step::Union { .. });
            stack.extend(df.deps[u].iter().map(|&d| (d, next_union)));
        }
        if let Some(d) = widened_diff {
            findings.push(Diagnostic {
                rule: "narrow-then-widen",
                severity: Severity::Warning,
                step: t + 1,
                message: format!(
                    "ships {} (bound {}) although it descends, through a \
                     union, from the difference {} already narrowed to {}",
                    plan.var_name(*input),
                    df.step_bounds[t],
                    plan.steps[d]
                        .defined_var()
                        .map_or_else(String::new, |v| plan.var_name(v).to_string()),
                    df.step_bounds[d]
                ),
            });
        }
    }
    findings
}

/// `transfer-exceeds-load`: the *guaranteed minimum* a plan spends
/// querying one source already exceeds the flat `lq` cost of loading the
/// whole relation — the §4 extended space provably contains a cheaper
/// plan that loads the source once and selects locally for free.
pub(crate) fn transfer_exceeds_load_findings<M: CostModel>(
    plan: &Plan,
    model: &M,
    df: &Dataflow,
) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for j in 0..plan.n_sources {
        let src = fusion_types::SourceId(j);
        let lq = model.lq_cost(src);
        if !lq.is_finite() {
            continue; // source cannot be loaded at all
        }
        let query_steps: Vec<usize> = plan
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.source() == Some(src) && !matches!(s, Step::Lq { .. }))
            .map(|(t, _)| t)
            .collect();
        let lo: fusion_types::Cost = query_steps.iter().map(|&t| df.step_costs[t].lo).sum();
        if lo > lq {
            findings.push(Diagnostic {
                rule: "transfer-exceeds-load",
                severity: Severity::Warning,
                step: query_steps[0] + 1,
                message: format!(
                    "queries at R{} cost at least {lo} even in the best case, \
                     more than loading the whole relation for {lq}",
                    j + 1
                ),
            });
        }
    }
    findings
}

/// Runs the dataflow analysis, then every plan rule — the five base
/// semantic rules, the three dataflow-powered ones, and the three
/// interference rules over the plan's certified cached event graph
/// (built once) — and returns the merged findings sorted by (step, rule).
///
/// # Errors
/// Propagates structural validation and certificate failures.
pub fn dataflow_lint_plan<M: CostModel>(
    plan: &Plan,
    model: &M,
    bounds: &SourceBounds,
) -> Result<Vec<Diagnostic>> {
    let df = analyze_dataflow(plan, model, bounds)?;
    let graph = EventGraph::certified(plan, &stage_levels(plan).stages, true);
    let mut analysis = analyze_plan(plan)?;
    Ok(merge_sorted([
        dead_step_findings(plan),
        duplicate_query_findings(plan, &analysis),
        superset_semijoin_input_findings(plan, &mut analysis),
        loaded_unused_findings(plan),
        bloom_not_reintersected_findings(plan, &analysis),
        retry_non_idempotent_findings(plan, &mut analysis),
        narrow_then_widen_findings(plan, &df),
        transfer_exceeds_load_findings(plan, model, &df),
        conflicting_footprint_findings(plan, &graph),
        cache_commit_race_findings(plan, &graph),
        epoch_read_before_bump_findings(plan, &graph),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::optimizer::{filter_plan, sja_optimal};
    use crate::plan::{Plan, SimplePlanSpec, Step, VarId};
    use fusion_types::{CondId, SourceId};

    fn model() -> TableCostModel {
        TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0)
    }

    fn run_lints(plan: &Plan, m: &TableCostModel) -> Vec<Diagnostic> {
        dataflow_lint_plan(plan, m, &SourceBounds::from_model(m)).unwrap()
    }

    #[test]
    fn optimizer_plans_are_quiet() {
        let m = model();
        for opt in [filter_plan(&m), sja_optimal(&m)] {
            let d = run_lints(&opt.plan, &m);
            assert_eq!(d, vec![], "plan:\n{}", opt.plan);
        }
    }

    /// `sq(c1, R1) − sq(c2, R1)`: the second query at R1 feeds the right
    /// side of a difference, so re-issuing it against changed source
    /// state can grow the answer.
    fn antitone_plan() -> Plan {
        let mut plan = Plan::new(vec![], VarId(0), 2, 1);
        let a = plan.fresh_var("A");
        let b = plan.fresh_var("B");
        let d = plan.fresh_var("D");
        plan.steps = vec![
            Step::Sq {
                out: a,
                cond: CondId(0),
                source: SourceId(0),
            },
            Step::Sq {
                out: b,
                cond: CondId(1),
                source: SourceId(0),
            },
            Step::Diff {
                out: d,
                left: a,
                right: b,
            },
        ];
        plan.result = d;
        plan
    }

    #[test]
    fn retry_non_idempotent_fires_on_antitone_use() {
        let m = TableCostModel::uniform(2, 1, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        let d = run_lints(&antitone_plan(), &m);
        let hits: Vec<_> = d
            .iter()
            .filter(|x| x.rule == "retry-non-idempotent-step")
            .collect();
        // Step 2 feeds the difference's right side: its suffix {2} is not
        // droppable. Step 1's suffix {1, 2} drops *both* R1 queries and
        // degrades to the empty (sound) answer, so only step 2 fires.
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].step, 2);
        assert!(hits[0].message.contains("not idempotent"));
        assert!(hits.iter().all(|x| x.severity == Severity::Warning));
    }

    /// X := sq(c1,R1); Z := sq(c2,R2); D := X − Z; W := D ∪ X;
    /// out := sjq(c2, R1, W) — W's bound re-widens past D's.
    fn narrow_widen_plan() -> Plan {
        let mut plan = Plan::new(vec![], VarId(0), 2, 2);
        let x = plan.fresh_var("X");
        let z = plan.fresh_var("Z");
        let d = plan.fresh_var("D");
        let w = plan.fresh_var("W");
        let out = plan.fresh_var("OUT");
        plan.steps = vec![
            Step::Sq {
                out: x,
                cond: CondId(0),
                source: SourceId(0),
            },
            Step::Sq {
                out: z,
                cond: CondId(1),
                source: SourceId(1),
            },
            Step::Diff {
                out: d,
                left: x,
                right: z,
            },
            Step::Union {
                out: w,
                inputs: vec![d, x],
            },
            Step::Sjq {
                out,
                cond: CondId(1),
                source: SourceId(0),
                input: w,
            },
        ];
        plan.result = out;
        plan
    }

    #[test]
    fn narrow_then_widen_fires_on_rewidened_difference() {
        let m = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        // Exact-style seeds with distinct sizes so D's bound is strictly
        // below W's: |sq(c1,R1)| = 10, |sq(c2,R2)| = 4.
        let mut b = SourceBounds::from_model(&m);
        b.sq[0][0] = super::super::Interval::point(10.0);
        b.sq[1][1] = super::super::Interval::point(4.0);
        let plan = narrow_widen_plan();
        let d = dataflow_lint_plan(&plan, &m, &b).unwrap();
        let hits: Vec<_> = d.iter().filter(|x| x.rule == "narrow-then-widen").collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].step, 5);
        assert!(hits[0].message.contains("descends"));
    }

    #[test]
    fn narrow_then_widen_quiet_without_union() {
        // Shipping the difference directly is fine.
        let m = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        let mut plan = narrow_widen_plan();
        // Re-point the semijoin at D instead of W (W becomes dead).
        let d_var = plan
            .steps
            .iter()
            .find_map(|s| match s {
                Step::Diff { out, .. } => Some(*out),
                _ => None,
            })
            .unwrap();
        match &mut plan.steps[4] {
            Step::Sjq { input, .. } => *input = d_var,
            other => panic!("expected semijoin, found {other:?}"),
        }
        let d = run_lints(&plan, &m);
        assert!(d.iter().all(|x| x.rule != "narrow-then-widen"), "{d:?}");
    }

    /// The composed entry point is the eleven plan rules in run order,
    /// stable-sorted by `(step, rule)` — dropping or reordering one in
    /// `dataflow_lint_plan` breaks the equality on a loud plan.
    #[test]
    fn composed_entry_point_is_the_eleven_rules_sorted_once() {
        fn by_hand(plan: &Plan, m: &TableCostModel, b: &SourceBounds) -> Vec<Diagnostic> {
            let df = analyze_dataflow(plan, m, b).unwrap();
            let graph = EventGraph::certified(plan, &stage_levels(plan).stages, true);
            let mut a = analyze_plan(plan).unwrap();
            let mut all = [
                dead_step_findings(plan),
                duplicate_query_findings(plan, &a),
                superset_semijoin_input_findings(plan, &mut a),
                loaded_unused_findings(plan),
                bloom_not_reintersected_findings(plan, &a),
                retry_non_idempotent_findings(plan, &mut a),
                narrow_then_widen_findings(plan, &df),
                transfer_exceeds_load_findings(plan, m, &df),
                conflicting_footprint_findings(plan, &graph),
                cache_commit_race_findings(plan, &graph),
                epoch_read_before_bump_findings(plan, &graph),
            ]
            .concat();
            all.sort_by_key(|d| (d.step, d.rule));
            all
        }
        let m = model();
        let quiet = sja_optimal(&m).plan;
        let b = SourceBounds::from_model(&m);
        assert_eq!(dataflow_lint_plan(&quiet, &m, &b).unwrap(), vec![]);
        assert_eq!(by_hand(&quiet, &m, &b), vec![]);

        let m1 = TableCostModel::uniform(2, 1, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        let m2 = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        let mut b2 = SourceBounds::from_model(&m2);
        b2.sq[0][0] = super::super::Interval::point(10.0);
        b2.sq[1][1] = super::super::Interval::point(4.0);
        for (plan, m, b, rule) in [
            (
                antitone_plan(),
                &m1,
                SourceBounds::from_model(&m1),
                "retry-non-idempotent-step",
            ),
            (narrow_widen_plan(), &m2, b2, "narrow-then-widen"),
        ] {
            let composed = dataflow_lint_plan(&plan, m, &b).unwrap();
            assert!(composed.iter().any(|d| d.rule == rule), "{composed:?}");
            assert_eq!(composed, by_hand(&plan, m, &b));
        }
    }

    #[test]
    fn transfer_exceeds_load_fires_when_lq_is_cheap() {
        // Make loading nearly free: guaranteed query costs exceed it.
        let m = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 5.0, 5.0, 1000.0);
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let d = run_lints(&plan, &m);
        let hits: Vec<_> = d
            .iter()
            .filter(|x| x.rule == "transfer-exceeds-load")
            .collect();
        assert_eq!(hits.len(), 2, "{d:?}"); // one per source
        assert!(hits[0].message.contains("loading the whole relation"));
    }

    #[test]
    fn transfer_exceeds_load_quiet_when_loading_is_expensive() {
        // lq = 100 ≫ 2 selections × 10 per source.
        let m = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let d = run_lints(&plan, &m);
        assert!(d.iter().all(|x| x.rule != "transfer-exceeds-load"), "{d:?}");
    }
}
