//! Random generation of *correct* simple plans.
//!
//! The paper's optimality theorem (\[24\], summarized in §1 step 3) says the
//! best semijoin-adaptive plan is the best *simple* plan when conditions
//! are independent (always, for m = 2). We validate that claim empirically
//! by sampling from a strictly larger family of correct simple plans than
//! the SJA search space and checking that none beats the SJA optimum.
//!
//! The sampled family generalizes condition-at-a-time plans in two ways:
//!
//! * the semijoin set of a round-`r` query may be **any** earlier round
//!   result `X_k` (`k < r`), not just the tightest `X_{r-1}`;
//! * the condition order and per-source choices are arbitrary.
//!
//! Every sampled plan is correct: a semijoin input `X_k` is always a
//! superset of the final answer, so no qualifying item is lost, and every
//! round intersects with the running result.

use crate::plan::{Plan, Step, VarId};
use fusion_stats::SplitMix64;
use fusion_types::{CondId, SourceId};

/// Describes one sampled plan (for reporting which shape won, if any).
#[derive(Debug, Clone)]
pub struct SampledPlan {
    /// The plan itself.
    pub plan: Plan,
    /// Condition order used.
    pub order: Vec<CondId>,
    /// Per-round, per-source: `None` = selection, `Some(k)` = semijoin
    /// against round `k`'s result.
    pub choices: Vec<Vec<Option<usize>>>,
}

/// Samples a random correct simple plan for `m` conditions and `n`
/// sources, deterministically under `seed`.
pub fn random_simple_plan(m: usize, n: usize, seed: u64) -> SampledPlan {
    assert!(m >= 1 && n >= 1, "need at least one condition and source");
    let mut rng = SplitMix64::new(seed);
    // Random condition order (Fisher–Yates).
    let mut order: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        let j = rng.next_below(i + 1);
        order.swap(i, j);
    }
    let mut choices: Vec<Vec<Option<usize>>> = Vec::with_capacity(m);
    choices.push(vec![None; n]);
    for r in 1..m {
        let row = (0..n)
            .map(|_| {
                if rng.next_f64() < 0.5 {
                    None
                } else {
                    Some(rng.next_below(r))
                }
            })
            .collect();
        choices.push(row);
    }
    let plan = build_sampled(&order, &choices, n);
    SampledPlan {
        plan,
        order: order.into_iter().map(CondId).collect(),
        choices,
    }
}

/// Builds the plan for an explicit sampled shape.
fn build_sampled(order: &[usize], choices: &[Vec<Option<usize>>], n: usize) -> Plan {
    let m = order.len();
    let mut plan = Plan {
        steps: Vec::new(),
        result: VarId(0),
        n_conditions: m,
        n_sources: n,
        var_names: Vec::new(),
        rel_names: Vec::new(),
    };
    let mut round_results: Vec<VarId> = Vec::with_capacity(m);
    for (r, &cond) in order.iter().enumerate() {
        let round_no = r + 1;
        let mut per_source = Vec::with_capacity(n);
        for (j, choice) in choices[r].iter().enumerate() {
            let out = plan.fresh_var(format!("X{round_no}{}", j + 1));
            let step = match *choice {
                None => Step::Sq {
                    out,
                    cond: CondId(cond),
                    source: SourceId(j),
                },
                Some(k) => Step::Sjq {
                    out,
                    cond: CondId(cond),
                    source: SourceId(j),
                    input: round_results[k],
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
        // The intersection with the running result is redundant exactly
        // when every source was semijoined against `X_{r-1}` itself (each
        // output is then already a subset). Omitting it in that case
        // matches the builder convention of `SimplePlanSpec::build` and
        // keeps the independence-based estimator from double-shrinking
        // correlated sets.
        let all_tight_semijoin = r > 0 && choices[r].iter().all(|c| *c == Some(r - 1));
        let result = if r == 0 || all_tight_semijoin {
            union_out
        } else {
            let inter = plan.fresh_var(format!("X{round_no}"));
            plan.steps.push(Step::Intersect {
                out: inter,
                inputs: vec![union_out, round_results[r - 1]],
            });
            inter
        };
        round_results.push(result);
    }
    plan.result = *round_results.last().expect("m >= 1");
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::estimate::estimate_plan_cost;
    use crate::evaluate::evaluate_plan;
    use crate::optimizer::sja_optimal;
    use crate::query::FusionQuery;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Predicate, Relation};

    #[test]
    fn sampled_plans_validate() {
        for seed in 0..200 {
            let s = random_simple_plan(3, 3, seed);
            s.plan.validate().unwrap();
        }
    }

    #[test]
    fn sampled_plans_are_deterministic() {
        let a = random_simple_plan(4, 2, 7);
        let b = random_simple_plan(4, 2, 7);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn sampled_plans_compute_the_right_answer() {
        let q = FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
                Predicate::cmp("D", fusion_types::CmpOp::Ge, 1993i64).into(),
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
                s,
                vec![
                    tuple!["T21", "dui", 1996i64],
                    tuple!["J55", "sp", 1996i64],
                    tuple!["T11", "sp", 1993i64],
                ],
            ),
        ];
        let truth = q.naive_answer(&sources).unwrap();
        for seed in 0..100 {
            let sampled = random_simple_plan(3, 2, seed);
            let got = evaluate_plan(&sampled.plan, q.conditions(), &sources).unwrap();
            assert_eq!(got, truth, "seed {seed}, plan:\n{}", sampled.plan);
        }
    }

    #[test]
    fn no_sample_beats_sja_under_independence() {
        // The empirical optimality check that E10 scales up.
        let m = TableCostModel::uniform(3, 3, 10.0, 1.0, 0.2, 1e9, 6.0, 300.0);
        // Price the SJA optimum with the same plan walker the samples use,
        // so composition differences cannot bias the comparison.
        let best = estimate_plan_cost(&sja_optimal(&m).plan, &m).cost;
        for seed in 0..500 {
            let sampled = random_simple_plan(3, 3, seed);
            let est = estimate_plan_cost(&sampled.plan, &m).cost;
            assert!(
                est.value() >= best.value() * (1.0 - 1e-9),
                "seed {seed} beat SJA: {est} < {best}\n{}",
                sampled.plan
            );
        }
    }
}
