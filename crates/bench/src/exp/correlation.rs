//! E13 (robustness): correlated conditions — stress-testing the
//! independence assumption.
//!
//! The optimality theorem requires independent conditions; "even if the
//! conditions of the query are not independent, the best semijoin-adaptive
//! plan provides an excellent heuristic ... as good a guess as we can
//! make" (§1 step 3). We execute the SJA plan against the best of 60
//! random wider-family plans on three workloads: independent conditions,
//! *nested* conditions (ranges on the same attribute, maximally
//! correlated), and a mix — reporting how close the heuristic stays to
//! the sampled optimum when its cardinality estimates are wrong.

use crate::exp::executed_cost;
use crate::table::{fmt3, Table};
use fusion_core::query::FusionQuery;
use fusion_core::sampler::random_simple_plan;
use fusion_core::{sja_optimal, NetworkCostModel};
use fusion_exec::{run, ExecutionOutcome, ReoptConfig, ReoptReport, ReoptRule, RunOptions, Target};
use fusion_net::LinkProfile;
use fusion_source::ProcessingProfile;
use fusion_stats::CardinalityFeedback;
use fusion_types::Condition;
use fusion_workload::synth::{
    condition_with_selectivity, synth_scenario_for, synth_schema, SynthSpec,
};
use fusion_workload::{CapabilityMix, Scenario};

/// Builds a scenario over the standard synthetic population with explicit
/// conditions (possibly on shared attributes).
fn scenario_with(conditions: Vec<Condition>, seed: u64) -> Scenario {
    let spec = SynthSpec {
        n_sources: 6,
        domain_size: 40_000,
        rows_per_source: 3_000,
        seed,
        capability_mix: CapabilityMix::AllFull,
        link: Some(LinkProfile::Intercontinental),
        processing: ProcessingProfile::indexed_db(),
    };
    let query = FusionQuery::new(synth_schema(), conditions).expect("valid query");
    synth_scenario_for(&spec, query)
}

/// The three workloads: (name, conditions).
fn workloads() -> Vec<(&'static str, Vec<Condition>)> {
    vec![
        (
            "independent (A1,A2,A3)",
            vec![
                condition_with_selectivity(1, 0.05),
                condition_with_selectivity(2, 0.4),
                condition_with_selectivity(3, 0.6),
            ],
        ),
        (
            "nested (all on A1)",
            vec![
                condition_with_selectivity(1, 0.05),
                condition_with_selectivity(1, 0.4),
                condition_with_selectivity(1, 0.6),
            ],
        ),
        (
            "mixed (A1,A1,A2)",
            vec![
                condition_with_selectivity(1, 0.05),
                condition_with_selectivity(1, 0.5),
                condition_with_selectivity(2, 0.4),
            ],
        ),
    ]
}

/// Executed cost of the best of `samples` random wider-family plans.
fn best_sampled(scenario: &Scenario, samples: u64) -> f64 {
    let mut best = f64::INFINITY;
    for seed in 0..samples {
        let sampled = random_simple_plan(scenario.m(), scenario.n(), 13_000 + seed);
        best = best.min(executed_cost(scenario, &sampled.plan));
    }
    best
}

/// E13: SJA (independence-assuming) vs the sampled best, executed.
pub fn e13_correlation() {
    let mut t = Table::new(
        "E13: SJA under correlated conditions (n=6, m=3, executed costs, 60 samples)",
        &["workload", "SJA", "best sampled", "SJA/best"],
    );
    for (name, conditions) in workloads() {
        let scenario = scenario_with(conditions, 13_999);
        let model = scenario.cost_model();
        let sja = executed_cost(&scenario, &sja_optimal(&model).plan);
        let best = best_sampled(&scenario, 60);
        t.row(vec![
            name.to_string(),
            fmt3(sja),
            fmt3(best),
            format!("{:.3}", sja / best),
        ]);
    }
    t.print();
}

/// E14's workloads: broad conditions, so the independence chain predicts
/// a small running set after two rounds while nesting keeps it large —
/// large enough to flip the third round's selection/semijoin decision.
fn e14_workloads() -> Vec<(&'static str, Vec<Condition>)> {
    // The third condition is broad (selectivity 0.9): its selections ship
    // ~2,700 items, so the static optimizer semijoins it whenever the
    // predicted running set is smaller than that. Under nesting the real
    // set stays ≈ |X1| ≈ 5,000 — past the crossover — so the committed
    // semijoins ship double what selections would.
    vec![
        (
            "independent (A1,A2,A3)",
            vec![
                condition_with_selectivity(1, 0.30),
                condition_with_selectivity(2, 0.32),
                condition_with_selectivity(3, 0.90),
            ],
        ),
        (
            "nested leader (A1,A1,A2)",
            vec![
                condition_with_selectivity(1, 0.30),
                condition_with_selectivity(1, 0.32),
                condition_with_selectivity(2, 0.90),
            ],
        ),
    ]
}

/// `scenario`'s SJA plan, re-planned at every round boundary.
fn every_round(scenario: &Scenario, model: &NetworkCostModel) -> (ExecutionOutcome, ReoptReport) {
    let (query, sources) = (&scenario.query, &scenario.sources);
    let mut network = scenario.network();
    let mut feedback = CardinalityFeedback::new(scenario.m(), scenario.n());
    let rule = ReoptRule::Live {
        model,
        feedback: &mut feedback,
        config: &ReoptConfig::every_round(),
    };
    let spec = sja_optimal(model).spec;
    let options = RunOptions::default();
    let out = run(
        Target::Spec(&spec, rule),
        query,
        sources,
        &mut network,
        options,
    )
    .expect("re-optimized run executes");
    (out.outcome, out.reopt.expect("a spec run reports"))
}

/// E14 (extension): mid-query re-optimization vs the static SJA plan.
///
/// Static SJA chains cardinalities under independence; with nested
/// conditions the running set is *much larger* than predicted, so the
/// committed semijoin strategies ship the wrong amounts. The
/// re-optimizer at [`ReoptConfig::every_round`] re-plans after every round
/// from the observed size (Kabra–DeWitt-style mid-query
/// re-optimization), repairing exactly that drift.
pub fn e14_adaptive() {
    let mut t = Table::new(
        "E14: static SJA vs mid-query re-optimization (n=6, m=3, executed costs)",
        &[
            "workload",
            "static SJA",
            "adaptive",
            "saving",
            "pred→actual |X| drift",
        ],
    );
    for (name, conditions) in e14_workloads() {
        let scenario = scenario_with(conditions, 13_999);
        let model = scenario.cost_model();
        let static_cost = executed_cost(&scenario, &sja_optimal(&model).plan);
        let (out, report) = every_round(&scenario, &model);
        assert_eq!(
            out.answer,
            scenario.ground_truth().expect("evaluation succeeds"),
            "{name}: adaptive answer must be exact"
        );
        let adaptive_cost = out.total_cost().value();
        // The largest predicted-vs-actual divergence across rounds.
        let drift = report
            .rounds
            .iter()
            .max_by(|a, b| {
                let da = (a.actual_size as f64 - a.predicted_size).abs();
                let db = (b.actual_size as f64 - b.predicted_size).abs();
                da.total_cmp(&db)
            })
            .map(|r| format!("{:.0} → {}", r.predicted_size, r.actual_size))
            .unwrap_or_default();
        t.row(vec![
            name.to_string(),
            fmt3(static_cost),
            fmt3(adaptive_cost),
            format!("{:.1}%", (1.0 - adaptive_cost / static_cost) * 100.0),
            drift,
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::CostModel;

    #[test]
    fn adaptive_never_loses_badly_and_wins_under_drift() {
        let mut savings = Vec::new();
        for (name, conditions) in e14_workloads() {
            let scenario = scenario_with(conditions, 13_999);
            let model = scenario.cost_model();
            let static_cost = executed_cost(&scenario, &sja_optimal(&model).plan);
            let (out, report) = every_round(&scenario, &model);
            let adaptive_cost = out.total_cost().value();
            assert!(
                adaptive_cost <= static_cost * 1.10,
                "{name}: adaptive {adaptive_cost:.3} vs static {static_cost:.3}"
            );
            savings.push(1.0 - adaptive_cost / static_cost);
            // Every round after the first was re-planned from the |X| the
            // one before it left.
            for pair in report.rounds.windows(2) {
                let gsel = model.gsel(pair[1].cond);
                let chained = pair[0].actual_size as f64 * gsel;
                assert_eq!(
                    pair[1].predicted_size.to_bits(),
                    chained.to_bits(),
                    "{name}"
                );
            }
        }
        // On the nested workload the drift flips decisions: adaptive must
        // show a real saving there.
        assert!(
            savings[1] > 0.05,
            "nested workload saving {:.3} too small",
            savings[1]
        );
    }

    #[test]
    fn sja_is_an_excellent_heuristic_even_under_correlation() {
        for (name, conditions) in workloads() {
            let scenario = scenario_with(conditions, 13_999);
            let model = scenario.cost_model();
            let sja = executed_cost(&scenario, &sja_optimal(&model).plan);
            let best = best_sampled(&scenario, 25);
            assert!(
                sja <= best * 1.25,
                "{name}: SJA {sja:.3} strays >25% from sampled best {best:.3}"
            );
        }
    }

    #[test]
    fn nested_conditions_answer_is_the_rarest_condition() {
        // With nested ranges, the answer equals the tightest condition's
        // item set — a structural sanity check on the workload.
        let (_, conditions) = workloads().remove(1);
        let scenario = scenario_with(conditions.clone(), 13_999);
        let truth = scenario.ground_truth().unwrap();
        let tight_only = FusionQuery::new(synth_schema(), vec![conditions[0].clone()])
            .unwrap()
            .naive_answer(&scenario.relations)
            .unwrap();
        assert_eq!(truth, tight_only);
    }
}
