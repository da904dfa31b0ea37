//! Plan lints: rule-based diagnostics layered on the semantic analysis.
//!
//! Where [`analyze_plan`](super::analyze_plan) answers *"is this plan
//! correct?"*, the lints answer *"is it sensible?"* — dead work,
//! duplicated queries, provably oversized semijoin inputs, and Bloom
//! supersets that leak into the answer. Each rule is a plain function
//! from the plan (and the analysis it reads) to structured
//! [`Diagnostic`]s with a severity and a 1-based step number, so the CLI
//! and the optimizer's debug checks can render them uniformly;
//! `dataflow_lint_plan` runs these five base rules with the dataflow
//! rules and sorts them once.

use super::Analysis;
use crate::dataflow::{dependencies, liveness};
use crate::plan::{Plan, RelVar, Step, VarId};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Wasteful but harmless: the plan still computes the fusion query.
    Warning,
    /// Correctness-threatening: the result set can be wrong.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired, e.g. `dead-step`.
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// 1-based number of the offending step.
    pub step: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: step {}: {} [{}]",
            self.severity, self.step, self.message, self.rule
        )
    }
}

/// Concatenates per-rule findings in run order and stable-sorts them by
/// `(step, rule)` — the ordering `dataflow_lint_plan` returns.
pub(crate) fn merge_sorted(rules: impl IntoIterator<Item = Vec<Diagnostic>>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = rules.into_iter().flatten().collect();
    out.sort_by_key(|d| (d.step, d.rule));
    out
}

/// `dead-step`: a step whose output never reaches the result.
pub(crate) fn dead_step_findings(plan: &Plan) -> Vec<Diagnostic> {
    let (live, _, _) = liveness(plan, &dependencies(plan).0);
    plan.steps
        .iter()
        .enumerate()
        // Unused loads are `loaded-unused`'s finding, not ours.
        .filter(|(t, s)| !live[*t] && !matches!(s, Step::Lq { .. }))
        .map(|(t, s)| {
            let what = s
                .defined_var()
                .map_or_else(String::new, |v| plan.var_name(v).to_string());
            Diagnostic {
                rule: "dead-step",
                severity: Severity::Warning,
                step: t + 1,
                message: format!("{what} never contributes to the result"),
            }
        })
        .collect()
}

/// `duplicate-query`: the same remote work issued twice.
pub(crate) fn duplicate_query_findings(plan: &Plan, analysis: &Analysis) -> Vec<Diagnostic> {
    use std::collections::HashMap;
    let mut out = Vec::new();
    // Selections (remote or over a loaded copy) keyed by
    // (condition, source): identical ones return identical sets.
    let mut selections: HashMap<(usize, usize), usize> = HashMap::new();
    // Semijoins keyed by (condition, source, input).
    let mut semijoins: HashMap<(usize, usize, usize), usize> = HashMap::new();
    for (t, s) in plan.steps.iter().enumerate() {
        let key_step = match s {
            Step::Sq { cond, source, .. } => Some((cond.0, source.0)),
            Step::LocalSq { cond, rel, .. } => analysis.loaded_source(*rel).map(|j| (cond.0, j)),
            _ => None,
        };
        if let Some(key) = key_step {
            if let Some(&first) = selections.get(&key) {
                out.push(Diagnostic {
                    rule: "duplicate-query",
                    severity: Severity::Warning,
                    step: t + 1,
                    message: format!(
                        "repeats the selection sq(c{}, R{}) of step {}",
                        key.0 + 1,
                        key.1 + 1,
                        first + 1
                    ),
                });
            } else {
                selections.insert(key, t);
            }
        }
        if let Step::Sjq {
            cond,
            source,
            input,
            ..
        } = s
        {
            let key = (cond.0, source.0, input.0);
            if let Some(&first) = semijoins.get(&key) {
                out.push(Diagnostic {
                    rule: "duplicate-query",
                    severity: Severity::Warning,
                    step: t + 1,
                    message: format!(
                        "repeats the semijoin sjq(c{}, R{}, {}) of step {}",
                        cond.0 + 1,
                        source.0 + 1,
                        plan.var_name(*input),
                        first + 1
                    ),
                });
            } else {
                semijoins.insert(key, t);
            }
        }
    }
    out
}

/// `superset-semijoin-input`: a semijoin ships set `Y` although an
/// already-available set `Z ⊊ Y` provably yields the same final result —
/// shipping the smaller set can only be cheaper (§2.4: semijoin cost
/// grows with the bindings shipped).
pub(crate) fn superset_semijoin_input_findings(
    plan: &Plan,
    analysis: &mut Analysis,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let original = analysis.result_value();
    let mut available: Vec<VarId> = Vec::new();
    for (t, s) in plan.steps.iter().enumerate() {
        if let Step::Sjq { input, .. } | Step::SjqBloom { input, .. } = s {
            let vy = analysis.value(*input).unwrap_or(super::bdd::FALSE);
            for &z in &available {
                if z == *input {
                    continue;
                }
                let vz = analysis.value(z).unwrap_or(super::bdd::FALSE);
                if vz == super::bdd::FALSE || vz == vy {
                    continue;
                }
                // Z strictly below Y in every world, and swapping it
                // in provably leaves the final result unchanged.
                if analysis.is_subset(vz, vy)
                    && analysis.result_with_semijoin_input(plan, t, z) == original
                {
                    out.push(Diagnostic {
                        rule: "superset-semijoin-input",
                        severity: Severity::Warning,
                        step: t + 1,
                        message: format!(
                            "ships {} although the provably smaller {} \
                             yields the same result",
                            plan.var_name(*input),
                            plan.var_name(z)
                        ),
                    });
                    break;
                }
            }
        }
        if let Some(v) = s.defined_var() {
            available.push(v);
        }
    }
    out
}

/// `loaded-unused`: a source is loaded in full but its copy never feeds
/// a live local selection — pure wasted transfer (§4 loads pay `lq`'s
/// full-relation cost).
pub(crate) fn loaded_unused_findings(plan: &Plan) -> Vec<Diagnostic> {
    let (_, _, live_rel) = liveness(plan, &dependencies(plan).0);
    plan.steps
        .iter()
        .enumerate()
        .filter_map(|(t, s)| match s {
            Step::Lq { out, source } if !live_rel[out.0] => Some(Diagnostic {
                rule: "loaded-unused",
                severity: Severity::Warning,
                step: t + 1,
                message: format!(
                    "loads R{} into {} but the copy never contributes to the result",
                    source.0 + 1,
                    plan.rel_name(RelVar(out.0))
                ),
            }),
            _ => None,
        })
        .collect()
}

/// `bloom-not-reintersected`: a Bloom semijoin's raw superset reaches
/// the result without being re-intersected with the exact input, so a
/// filter false positive can surface in the answer.
pub(crate) fn bloom_not_reintersected_findings(
    plan: &Plan,
    analysis: &Analysis,
) -> Vec<Diagnostic> {
    plan.steps
        .iter()
        .enumerate()
        .filter_map(|(t, s)| match s {
            Step::SjqBloom { out, .. } if analysis.result_tainted_by_bloom(t) => Some(Diagnostic {
                rule: "bloom-not-reintersected",
                severity: Severity::Error,
                step: t + 1,
                message: format!(
                    "Bloom superset {} reaches the result without \
                         re-intersection; collisions can corrupt the answer",
                    plan.var_name(*out)
                ),
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_plan;
    use crate::plan::{SimplePlanSpec, SourceChoice};
    use fusion_types::{CondId, SourceId};

    fn clean_plan() -> Plan {
        SimplePlanSpec::filter(2, 2).build(2).unwrap()
    }

    /// The five base rules, merged as `dataflow_lint_plan` merges them.
    fn diags(plan: &Plan) -> Vec<Diagnostic> {
        let mut analysis = analyze_plan(plan).unwrap();
        merge_sorted([
            dead_step_findings(plan),
            duplicate_query_findings(plan, &analysis),
            superset_semijoin_input_findings(plan, &mut analysis),
            loaded_unused_findings(plan),
            bloom_not_reintersected_findings(plan, &analysis),
        ])
    }

    #[test]
    fn clean_plans_are_quiet() {
        assert_eq!(diags(&clean_plan()), vec![]);
        let semi = SimplePlanSpec::all_semijoin(3, 2).build(2).unwrap();
        assert_eq!(diags(&semi), vec![]);
    }

    #[test]
    fn dead_step_detected() {
        let mut p = clean_plan();
        let v = p.fresh_var("DEAD");
        p.steps.push(Step::Sq {
            out: v,
            cond: CondId(0),
            source: SourceId(0),
        });
        let ds: Vec<_> = diags(&p)
            .into_iter()
            .filter(|d| d.rule == "dead-step")
            .collect();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].step, p.steps.len());
        assert_eq!(ds[0].severity, Severity::Warning);
        assert_eq!(
            ds[0].to_string(),
            format!(
                "warning: step {}: DEAD never contributes to the result [dead-step]",
                p.steps.len()
            )
        );
    }

    #[test]
    fn duplicate_query_detected() {
        let mut p = clean_plan();
        // Re-issue sq(c1, R1) and fold it into the result so it is not
        // also a dead step.
        let v = p.fresh_var("DUP");
        let out = p.fresh_var("OUT");
        p.steps.push(Step::Sq {
            out: v,
            cond: CondId(0),
            source: SourceId(0),
        });
        p.steps.push(Step::Union {
            out,
            inputs: vec![p.result, v],
        });
        p.result = out;
        let d = diags(&p);
        let dup: Vec<_> = d.iter().filter(|d| d.rule == "duplicate-query").collect();
        assert_eq!(dup.len(), 1, "{d:?}");
        assert!(dup[0].message.contains("sq(c1, R1)"));
        // The extra union of a subset keeps semantics: still proved, so
        // only the duplicate fires.
        assert!(d.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn superset_semijoin_input_detected() {
        // Round 1 computes X1; round 2 semijoins with the *unioned* X1
        // at both sources, but suppose a plan shipped a looser set: take
        // the all-semijoin plan and widen one input to an earlier,
        // larger union.
        let spec = SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection, SourceChoice::Selection],
                // Mixed round: the builder re-intersects with round 1, so
                // widening the semijoin input below stays correct.
                vec![SourceChoice::Semijoin, SourceChoice::Selection],
            ],
        };
        let p = spec.build(2).unwrap();
        // Find the step unioning round 1 (the semijoin input) and an
        // sq output feeding it (a strict subset).
        let (sj_step, input) = p
            .steps
            .iter()
            .enumerate()
            .find_map(|(t, s)| match s {
                Step::Sjq { input, .. } => Some((t, *input)),
                _ => None,
            })
            .unwrap();
        // Build a mutated plan shipping the union of input with an extra
        // full selection — strictly looser, result unchanged.
        let mut q = p.clone();
        let extra = q.fresh_var("WIDE1");
        let wide = q.fresh_var("WIDE");
        q.steps.insert(
            sj_step,
            Step::Sq {
                out: extra,
                cond: CondId(1),
                source: SourceId(0),
            },
        );
        q.steps.insert(
            sj_step + 1,
            Step::Union {
                out: wide,
                inputs: vec![input, extra],
            },
        );
        match &mut q.steps[sj_step + 2] {
            Step::Sjq { input, .. } => *input = wide,
            other => panic!("expected semijoin, found {other:?}"),
        }
        let d = diags(&q);
        let sup: Vec<_> = d
            .iter()
            .filter(|d| d.rule == "superset-semijoin-input")
            .collect();
        assert!(!sup.is_empty(), "{d:?}\n{}", q.listing());
        assert!(sup[0].message.contains("provably smaller"));
        // And the mutation kept the plan correct (warning, not error).
        assert!(crate::analyze::analyze_plan(&q)
            .unwrap()
            .verdict()
            .is_proved());
    }

    #[test]
    fn loaded_unused_detected() {
        let mut p = clean_plan();
        let t = p.fresh_rel("T9");
        p.steps.push(Step::Lq {
            out: t,
            source: SourceId(1),
        });
        let d = diags(&p);
        let lu: Vec<_> = d.iter().filter(|d| d.rule == "loaded-unused").collect();
        assert_eq!(lu.len(), 1);
        assert!(lu[0].message.contains("loads R2"));
        // The load defines no item-set variable: dead-step stays silent.
        assert!(d.iter().all(|d| d.rule != "dead-step"));
    }

    #[test]
    fn bloom_not_reintersected_is_an_error() {
        // All-semijoin final round: no re-intersection follows, so the
        // raw Bloom superset taints the result.
        let mut p = SimplePlanSpec::all_semijoin(2, 2).build(2).unwrap();
        let idx = p
            .steps
            .iter()
            .position(|s| matches!(s, Step::Sjq { .. }))
            .unwrap();
        if let Step::Sjq {
            out,
            cond,
            source,
            input,
        } = p.steps[idx]
        {
            p.steps[idx] = Step::SjqBloom {
                out,
                cond,
                source,
                input,
                bits: 4,
            };
        }
        let d = diags(&p);
        let bl: Vec<_> = d
            .iter()
            .filter(|d| d.rule == "bloom-not-reintersected")
            .collect();
        assert_eq!(bl.len(), 1);
        assert_eq!(bl[0].severity, Severity::Error);
        assert_eq!(bl[0].step, idx + 1);
    }

    #[test]
    fn diagnostics_sorted_by_step() {
        let mut p = clean_plan();
        let dead = p.fresh_var("DEAD");
        let t = p.fresh_rel("T9");
        p.steps.insert(
            0,
            Step::Sq {
                out: dead,
                cond: CondId(1),
                source: SourceId(1),
            },
        );
        p.steps.push(Step::Lq {
            out: t,
            source: SourceId(0),
        });
        let d = diags(&p);
        assert!(d.len() >= 2);
        assert!(d.windows(2).all(|w| w[0].step <= w[1].step));
        // VarId used in this test's insert shifts nothing: still valid.
        assert!(d.iter().any(|x| x.rule == "dead-step" && x.step == 1));
        assert!(d
            .iter()
            .any(|x| x.rule == "loaded-unused" && x.step == p.steps.len()));
    }
}
