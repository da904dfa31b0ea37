//! SJA+ postoptimization (§4).
//!
//! Two techniques that step outside the space of simple plans:
//!
//! 1. **Difference pruning** — within a condition's round, items already
//!    confirmed to satisfy the condition at one source "need not be sent
//!    ... to ascertain the satisfaction of condition `c_i`" at the next:
//!    each semijoin ships `X_{i-1} − confirmed` instead of `X_{i-1}`.
//!    We execute a round's selection queries first (their results cost
//!    nothing extra to use as pruners) and sequence the semijoin queries,
//!    each subtracting everything confirmed so far — a slight
//!    strengthening of the paper's example, which prunes with whatever
//!    happens to precede the semijoin in the listing.
//! 2. **Source loading** — when the total cost of a source's queries
//!    exceeds one `lq`, "the mediator may consider issuing a single query
//!    to load the entire source contents", answering its queries locally;
//!    "advantageous in fusion queries involving extremely small source
//!    databases or large number of conditions".
//!
//! The driver `sja_plus` mimics SJA first and postoptimizes its output,
//! keeping the overall complexity at `O(m!·m·n + m·n)` — the
//! postoptimization itself is `O(mn)`. A systematic search over plans
//! with difference operations would be exponential in `n`, which is
//! exactly why the paper postoptimizes instead.

use crate::cost::CostModel;
use crate::estimate::estimate_plan_cost;
use crate::optimizer::{sja_optimal, OptimizedPlan};
use crate::plan::{Plan, SimplePlanSpec, SourceChoice, Step, VarId};
use fusion_types::{Cost, SourceId};

/// Which postoptimizations to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostOptConfig {
    /// Apply difference pruning to semijoin sets.
    pub use_difference: bool,
    /// Consider replacing a source's queries with one full load.
    pub use_loading: bool,
    /// Consider replacing explicit semijoin sets with Bloom filters
    /// (extension; off by default — not part of the paper's SJA+).
    pub use_bloom: bool,
    /// Filter density for Bloom rewrites, in bits per item.
    pub bloom_bits: u8,
}

impl Default for PostOptConfig {
    /// The paper's SJA+ (§4.1): difference pruning and source loading,
    /// no Bloom rewriting.
    fn default() -> Self {
        PostOptConfig {
            use_difference: true,
            use_loading: true,
            use_bloom: false,
            bloom_bits: 10,
        }
    }
}

/// The result of SJA+ optimization.
#[derive(Debug, Clone)]
pub struct SjaPlusPlan {
    /// The postoptimized (possibly extended) plan.
    pub plan: Plan,
    /// Its estimated cost.
    pub cost: Cost,
    /// The SJA plan postoptimization started from.
    pub base: OptimizedPlan,
    /// The base plan's cost under the same pricing as [`SjaPlusPlan::cost`]
    /// (the plan walker), for apples-to-apples improvement reporting.
    pub base_estimate: Cost,
    /// Sources whose queries were replaced by a full load.
    pub loaded_sources: Vec<SourceId>,
    /// Number of set-difference steps introduced.
    pub difference_steps: usize,
}

impl SjaPlusPlan {
    /// Estimated improvement over the base SJA plan, as a fraction of the
    /// base cost (0 when postoptimization found nothing).
    pub fn improvement(&self) -> f64 {
        match self.base_estimate.ratio(self.cost) {
            Some(r) if r.is_finite() && r > 0.0 => 1.0 - 1.0 / r,
            _ => 0.0,
        }
    }
}

/// The SJA+ algorithm (§4.1): optimal semijoin-adaptive plan, then
/// difference pruning, then source loading.
pub fn sja_plus<M: CostModel>(model: &M) -> SjaPlusPlan {
    sja_plus_with(model, PostOptConfig::default())
}

/// SJA+ with explicit technique selection (used by the ablation bench).
pub fn sja_plus_with<M: CostModel>(model: &M, config: PostOptConfig) -> SjaPlusPlan {
    let base = sja_optimal(model);
    postoptimize(base, model, config)
}

/// Postoptimizes an already-found condition-at-a-time plan.
pub(crate) fn postoptimize<M: CostModel>(
    base: OptimizedPlan,
    model: &M,
    config: PostOptConfig,
) -> SjaPlusPlan {
    let plan = if config.use_difference {
        build_with_difference(&base.spec, base.plan.n_sources)
    } else {
        base.plan.clone()
    };
    let plan = if config.use_bloom {
        apply_bloom(&plan, model, config.bloom_bits)
    } else {
        plan
    };
    let (plan, loaded_sources) = if config.use_loading {
        apply_loading(plan, model)
    } else {
        (plan, Vec::new())
    };
    debug_assert!(
        crate::analyze::analyze_plan(&plan).is_ok_and(|a| a.verdict().is_proved()),
        "postoptimization produced a semantically unsound plan:\n{}",
        plan.listing()
    );
    let difference_steps = plan
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Diff { .. }))
        .count();
    let cost = estimate_plan_cost(&plan, model).cost;
    // Postoptimization must never hurt. Compare both plans under the same
    // pricing (the plan walker) — the optimizer's incremental pricing
    // composes round cardinalities slightly differently.
    let base_walker_cost = estimate_plan_cost(&base.plan, model).cost;
    if cost > base_walker_cost {
        return SjaPlusPlan {
            plan: base.plan.clone(),
            cost: base_walker_cost,
            base,
            base_estimate: base_walker_cost,
            loaded_sources: Vec::new(),
            difference_steps: 0,
        };
    }
    SjaPlusPlan {
        plan,
        cost,
        base,
        base_estimate: base_walker_cost,
        loaded_sources,
        difference_steps,
    }
}

/// Rebuilds a spec's plan with difference-pruned semijoin sets.
///
/// Within each round, selection queries run first; semijoin queries are
/// then sequenced, each shipping `X_{i-1} − confirmed` where `confirmed`
/// unions every result already obtained for this condition.
pub fn build_with_difference(spec: &SimplePlanSpec, n_sources: usize) -> Plan {
    spec.validate(n_sources)
        .expect("spec comes from an optimizer");
    let m = spec.order.len();
    let mut plan = Plan {
        steps: Vec::new(),
        result: VarId(0),
        n_conditions: m,
        n_sources,
        var_names: Vec::new(),
        rel_names: Vec::new(),
    };
    let mut prev: Option<VarId> = None;
    for (r, &cond) in spec.order.iter().enumerate() {
        let round_no = r + 1;
        let mut per_source: Vec<VarId> = Vec::with_capacity(n_sources);
        let selections: Vec<usize> = (0..n_sources)
            .filter(|&j| spec.choices[r][j] == SourceChoice::Selection)
            .collect();
        let semijoins: Vec<usize> = (0..n_sources)
            .filter(|&j| spec.choices[r][j] == SourceChoice::Semijoin)
            .collect();
        // Selections first (they double as pruners).
        let mut sel_vars = Vec::with_capacity(selections.len());
        for &j in &selections {
            let out = plan.fresh_var(format!("X{round_no}{}", j + 1));
            plan.steps.push(Step::Sq {
                out,
                cond,
                source: SourceId(j),
            });
            sel_vars.push(out);
        }
        // Confirmed-so-far accumulator — only materialized when there are
        // semijoin queries left to prune with it.
        let mut confirmed: Option<VarId> = if semijoins.is_empty() {
            None
        } else {
            match sel_vars.len() {
                0 => None,
                1 => Some(sel_vars[0]),
                _ => {
                    let y = plan.fresh_var(format!("Y{round_no}"));
                    plan.steps.push(Step::Union {
                        out: y,
                        inputs: sel_vars.clone(),
                    });
                    Some(y)
                }
            }
        };
        per_source.extend(&sel_vars);
        for (k, &j) in semijoins.iter().enumerate() {
            let input_prev = prev.expect("round 0 is all selections");
            let input = match confirmed {
                None => input_prev,
                Some(c) => {
                    let d = plan.fresh_var(format!("D{round_no}{}", j + 1));
                    plan.steps.push(Step::Diff {
                        out: d,
                        left: input_prev,
                        right: c,
                    });
                    d
                }
            };
            let out = plan.fresh_var(format!("X{round_no}{}", j + 1));
            plan.steps.push(Step::Sjq {
                out,
                cond,
                source: SourceId(j),
                input,
            });
            per_source.push(out);
            // Extend the accumulator unless this was the last semijoin.
            if k + 1 < semijoins.len() {
                confirmed = Some(match confirmed {
                    None => out,
                    Some(c) => {
                        let y = plan.fresh_var(format!("Y{round_no}"));
                        plan.steps.push(Step::Union {
                            out: y,
                            inputs: vec![c, out],
                        });
                        Some(y)
                    }
                    .expect("just constructed"),
                });
            }
        }
        let union_out = plan.fresh_var(format!("X{round_no}"));
        plan.steps.push(Step::Union {
            out: union_out,
            inputs: per_source,
        });
        let all_semijoin = selections.is_empty() && prev.is_some();
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
    debug_assert!(
        crate::analyze::analyze_plan(&plan).is_ok_and(|a| a.verdict().is_proved()),
        "difference pruning broke plan semantics:\n{}",
        plan.listing()
    );
    plan
}

/// Rewrites semijoin queries to Bloom-filter semijoins where the model
/// estimates the filter cheaper than the explicit set (extension).
///
/// Each rewritten `X := sjq(c, R, Y)` becomes
/// `Raw := sjq(c, R, bloom(Y)); X := Raw ∩ Y`, restoring exact semantics
/// at the mediator.
pub fn apply_bloom<M: CostModel>(plan: &Plan, model: &M, bits: u8) -> Plan {
    let est = estimate_plan_cost(plan, model);
    let mut new = Plan {
        steps: Vec::new(),
        result: plan.result,
        n_conditions: plan.n_conditions,
        n_sources: plan.n_sources,
        var_names: plan.var_names.clone(),
        rel_names: plan.rel_names.clone(),
    };
    for step in &plan.steps {
        match step {
            Step::Sjq {
                out,
                cond,
                source,
                input,
            } => {
                let k = est.var_items[input.0];
                let explicit = model.sjq_cost(*cond, *source, k);
                let bloom = model.sjq_bloom_cost(*cond, *source, k, bits);
                if bloom < explicit {
                    let raw = new.fresh_var(format!("B{}{}", cond.0 + 1, source.0 + 1));
                    new.steps.push(Step::SjqBloom {
                        out: raw,
                        cond: *cond,
                        source: *source,
                        input: *input,
                        bits,
                    });
                    new.steps.push(Step::Intersect {
                        out: *out,
                        inputs: vec![raw, *input],
                    });
                } else {
                    new.steps.push(step.clone());
                }
            }
            other => new.steps.push(other.clone()),
        }
    }
    new
}

/// Applies the source-loading postoptimization: for every source whose
/// queries cost more than one `lq`, loads it once and answers its queries
/// locally. Returns the transformed plan and the loaded sources.
pub(crate) fn apply_loading<M: CostModel>(plan: Plan, model: &M) -> (Plan, Vec<SourceId>) {
    let est = estimate_plan_cost(&plan, model);
    let mut to_load: Vec<SourceId> = Vec::new();
    for j in 0..plan.n_sources {
        let source = SourceId(j);
        let queries = est.per_source[j];
        let lq = model.lq_cost(source);
        // Only load when the source has at least one query and the load is
        // strictly cheaper.
        if queries > Cost::ZERO && lq < queries {
            to_load.push(source);
        }
    }
    if to_load.is_empty() {
        return (plan, to_load);
    }
    let mut out = plan;
    for &source in &to_load {
        out = load_one_source(&out, source);
    }
    (out, to_load)
}

/// Rewrites every query at `source` into local evaluation over one `lq`.
fn load_one_source(plan: &Plan, source: SourceId) -> Plan {
    let mut new = Plan {
        steps: Vec::new(),
        result: plan.result,
        n_conditions: plan.n_conditions,
        n_sources: plan.n_sources,
        var_names: plan.var_names.clone(),
        rel_names: plan.rel_names.clone(),
    };
    let rel = new.fresh_rel(format!("T{}", source.0 + 1));
    let mut loaded = false;
    for step in &plan.steps {
        let touches = step.source() == Some(source);
        if touches && !loaded {
            new.steps.push(Step::Lq { out: rel, source });
            loaded = true;
        }
        match step {
            Step::Sq {
                out,
                cond,
                source: s,
            } if *s == source => {
                new.steps.push(Step::LocalSq {
                    out: *out,
                    cond: *cond,
                    rel,
                });
            }
            Step::Sjq {
                out,
                cond,
                source: s,
                input,
            } if *s == source => {
                // Local semijoin: apply the condition locally, then
                // intersect with the semijoin set at the mediator.
                let tmp = new.fresh_var(format!("S{}{}", cond.0 + 1, source.0 + 1));
                new.steps.push(Step::LocalSq {
                    out: tmp,
                    cond: *cond,
                    rel,
                });
                new.steps.push(Step::Intersect {
                    out: *out,
                    inputs: vec![tmp, *input],
                });
            }
            other => new.steps.push(other.clone()),
        }
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::evaluate::evaluate_plan;
    use crate::query::FusionQuery;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, CondId, Predicate, Relation};

    /// Model shaped like Figure 5's setting: 2 conditions, 3 sources,
    /// SJA chooses [sq, sjq, sq] for c2.
    fn figure5_model() -> TableCostModel {
        let mut m = TableCostModel::uniform(2, 3, 10.0, 2.0, 0.5, 1e6, 8.0, 100.0);
        // c1 first (make c2 selections expensive at R2 so sjq wins there).
        m.set_sq_cost(CondId(1), SourceId(1), 60.0);
        // Keep sjq unattractive at R1/R3 for c2.
        m.set_sjq_cost(CondId(1), SourceId(0), 50.0, 1.0);
        m.set_sjq_cost(CondId(1), SourceId(2), 50.0, 1.0);
        // And for c1 everywhere (it is round 1 anyway).
        m
    }

    #[test]
    fn difference_plan_has_expected_shape() {
        let spec = SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection; 3],
                vec![
                    SourceChoice::Selection,
                    SourceChoice::Semijoin,
                    SourceChoice::Selection,
                ],
            ],
        };
        let plan = build_with_difference(&spec, 3);
        plan.validate().unwrap();
        let listing = plan.listing();
        // Selections for c2 run first, the semijoin ships X1 − (X21 ∪ X23).
        assert!(listing.contains("Y2 := X21 ∪ X23"), "{listing}");
        assert!(listing.contains("D22 := X1 − Y2"), "{listing}");
        assert!(listing.contains("X22 := sjq(c2, R2, D22)"), "{listing}");
    }

    #[test]
    fn difference_preserves_semantics() {
        let q = FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap();
        let s = dmv_schema();
        let sources = vec![
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["J55", "dui", 1993i64],
                    tuple!["T21", "sp", 1994i64],
                    tuple!["T80", "dui", 1993i64],
                ],
            ),
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["T21", "dui", 1996i64],
                    tuple!["J55", "sp", 1996i64],
                    tuple!["T11", "sp", 1993i64],
                ],
            ),
            Relation::from_rows(s, vec![tuple!["T21", "sp", 1993i64]]),
        ];
        let truth = q.naive_answer(&sources).unwrap();
        for choices_r2 in [
            vec![
                SourceChoice::Selection,
                SourceChoice::Semijoin,
                SourceChoice::Selection,
            ],
            vec![SourceChoice::Semijoin; 3],
            vec![
                SourceChoice::Semijoin,
                SourceChoice::Semijoin,
                SourceChoice::Selection,
            ],
        ] {
            let spec = SimplePlanSpec {
                order: vec![CondId(0), CondId(1)],
                choices: vec![vec![SourceChoice::Selection; 3], choices_r2],
            };
            let plan = build_with_difference(&spec, 3);
            let got = evaluate_plan(&plan, q.conditions(), &sources).unwrap();
            assert_eq!(got, truth, "plan:\n{plan}");
        }
    }

    #[test]
    fn difference_never_increases_estimated_cost() {
        let m = figure5_model();
        let base = crate::optimizer::sja_optimal(&m);
        let pruned = build_with_difference(&base.spec, base.plan.n_sources);
        let base_est = estimate_plan_cost(&base.plan, &m).cost;
        let pruned_est = estimate_plan_cost(&pruned, &m).cost;
        assert!(pruned_est <= base_est, "{pruned_est} > {base_est}");
    }

    #[test]
    fn loading_replaces_expensive_sources() {
        // Make R3's load trivially cheap.
        let mut m = figure5_model();
        m.set_lq_cost(SourceId(2), 1.0);
        let base = crate::optimizer::sja_optimal(&m);
        let (plan, loaded) = apply_loading(base.plan.clone(), &m);
        assert_eq!(loaded, vec![SourceId(2)]);
        plan.validate().unwrap();
        let listing = plan.listing();
        assert!(listing.contains("T3 := lq(R3)"), "{listing}");
        assert!(listing.contains(", T3)"), "local sq missing: {listing}");
        // No remote queries to R3 remain.
        assert!(
            !plan
                .steps
                .iter()
                .any(|s| !matches!(s, Step::Lq { .. }) && s.source() == Some(SourceId(2))),
            "{listing}"
        );
    }

    #[test]
    fn loading_preserves_semantics_even_for_semijoins() {
        // Force loading of a source that receives a semijoin query.
        let q = FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap();
        let s = dmv_schema();
        let sources = vec![
            Relation::from_rows(
                s.clone(),
                vec![tuple!["J55", "dui", 1993i64], tuple!["T21", "sp", 1994i64]],
            ),
            Relation::from_rows(
                s,
                vec![tuple!["T21", "dui", 1996i64], tuple!["J55", "sp", 1996i64]],
            ),
        ];
        let spec = SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection; 2],
                vec![SourceChoice::Semijoin, SourceChoice::Semijoin],
            ],
        };
        let plan = spec.build(2).unwrap();
        let loaded = load_one_source(&plan, SourceId(1));
        loaded.validate().unwrap();
        let got = evaluate_plan(&loaded, q.conditions(), &sources).unwrap();
        assert_eq!(got, q.naive_answer(&sources).unwrap());
    }

    #[test]
    fn sja_plus_improves_or_matches_sja() {
        let mut m = figure5_model();
        m.set_lq_cost(SourceId(2), 5.0);
        let plus = sja_plus(&m);
        assert!(plus.cost <= plus.base_estimate);
        assert!(plus.improvement() >= 0.0);
        plus.plan.validate().unwrap();
    }

    #[test]
    fn config_toggles_techniques() {
        let mut m = figure5_model();
        m.set_lq_cost(SourceId(2), 1.0);
        let diff_only = sja_plus_with(
            &m,
            PostOptConfig {
                use_difference: true,
                use_loading: false,
                ..PostOptConfig::default()
            },
        );
        assert!(diff_only.loaded_sources.is_empty());
        let load_only = sja_plus_with(
            &m,
            PostOptConfig {
                use_difference: false,
                use_loading: true,
                ..PostOptConfig::default()
            },
        );
        assert_eq!(load_only.difference_steps, 0);
        assert!(!load_only.loaded_sources.is_empty());
    }

    #[test]
    fn no_opportunity_means_base_plan_unchanged() {
        // Loads priced out, no semijoins chosen → SJA+ returns the SJA
        // plan as-is.
        let m = TableCostModel::uniform(2, 2, 1.0, 1000.0, 100.0, 1e9, 50.0, 100.0);
        let plus = sja_plus(&m);
        assert_eq!(plus.cost, plus.base_estimate);
        assert_eq!(plus.difference_steps, 0);
        assert!(plus.loaded_sources.is_empty());
    }
}
