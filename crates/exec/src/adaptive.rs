//! Mid-query re-optimization: execute a round, observe the real
//! cardinality, re-plan the rest.
//!
//! The static pipeline commits to a whole plan from estimates; under
//! correlated conditions those estimates drift (experiment E13) and the
//! committed strategies can be wrong. [`execute_adaptive`] interleaves
//! planning and execution instead: each round is the first round of
//! [`suffix_search`] over the conditions left, from the *observed*
//! running-set size, executed against the wrappers, and folded into the
//! running result — the same correctness argument as condition-at-a-time
//! simple plans, with truth instead of estimates in the cost comparisons.
//!
//! [`crate::execute_plan_reopt`] under [`crate::ReoptConfig::every_round`]
//! is its certified, replayable counterpart and bit-equal to it wherever
//! no estimate is exact (DESIGN.md §15 has the experiment). This
//! executor stays for the one thing that driver does not do: re-plan at
//! a boundary whose every observation matched its estimate, from the
//! running set's drift alone.

use crate::ledger::{CostLedger, StepKind};
use crate::retry::{Completeness, RetryPolicy};
use crate::step::{exec_sq, run_semijoin, Delivery, SourceFt, StepValue};
use fusion_core::optimizer::suffix_search;
use fusion_core::plan::SourceChoice;
use fusion_core::query::FusionQuery;
use fusion_core::CostModel;
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Cost, ItemSet, SourceId};

/// One executed adaptive round, for post-mortem analysis.
#[derive(Debug, Clone)]
pub struct AdaptiveRound {
    /// The condition processed.
    pub cond: CondId,
    /// Per-source strategies used.
    pub choices: Vec<SourceChoice>,
    /// What the planner predicted `|X|` would be after this round.
    pub predicted_size: f64,
    /// What it actually was.
    pub actual_size: usize,
}

/// The outcome of an adaptive execution.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The query answer.
    pub answer: ItemSet,
    /// Per-step executed costs (one entry per source query).
    pub ledger: CostLedger,
    /// The rounds, in execution order.
    pub rounds: Vec<AdaptiveRound>,
    /// Whether the answer is exact or a sound subset (sources were given
    /// up on). Always [`Completeness::Exact`] outside fault-tolerant
    /// execution.
    pub completeness: Completeness,
}

impl AdaptiveOutcome {
    /// Total executed cost.
    pub fn total_cost(&self) -> Cost {
        self.ledger.total()
    }
}

/// Executes `query` with per-round re-optimization against `model`.
///
/// With `retry`, each source query goes through the policy's retry
/// loop, and sources that are given up on are excluded from all later
/// rounds — mid-query re-planning around dead sources. Dropping a
/// source here is *always* sound, with no analyzer consult: every
/// adaptive round is a union over sources folded into a running
/// intersection, so losing an operand can only shrink the answer. The
/// outcome then reports [`Completeness::Subset`] listing the dead
/// sources and the conditions whose rounds were degraded.
///
/// # Errors
/// Fails on a retry policy that fails [`RetryPolicy::check`]; propagates
/// wrapper and capability failures.
pub fn execute_adaptive<M: CostModel>(
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    model: &M,
    retry: Option<&RetryPolicy>,
) -> Result<AdaptiveOutcome> {
    retry.map_or(Ok(()), RetryPolicy::check)?;
    if query.m() != model.n_conditions() || sources.len() != model.n_sources() {
        return Err(FusionError::invalid_plan(
            "cost model does not match query/sources",
        ));
    }
    let conditions = query.conditions();
    let mut remaining: Vec<usize> = (0..query.m()).collect();
    let mut current: Option<ItemSet> = None;
    let mut ledger = CostLedger::new();
    let mut rounds = Vec::with_capacity(query.m());
    let mut fts = vec![SourceFt::default(); retry.map_or(0, |_| sources.len())];
    let mut missing_conds: Vec<CondId> = Vec::new();
    let mut step = 0usize;
    while !remaining.is_empty() {
        let mut next = suffix_search(model, &remaining, current.as_ref().map(|s| s.len() as f64));
        let (cond_id, choices) = (CondId(next.order[0]), next.choices.swap_remove(0));
        let cond = &conditions[cond_id.0];
        let mut round_union = ItemSet::empty();
        let mut any_selection = false;
        let mut round_degraded = false;
        for (j, choice) in choices.iter().enumerate() {
            let mut d = Delivery {
                net: &mut *network,
                step,
                source: SourceId(j),
                retry: retry.zip(fts.get_mut(j)),
                spent: retry.map_or(Cost::ZERO, |_| ledger.total()),
            };
            if d.dead() {
                // Re-planned around: the dead source's union operand is
                // skipped, shrinking (never growing) the round — checked
                // here, ahead of the semijoin primitive, so the entry
                // reads `Semijoin` whatever the source's capabilities
                // and an empty running set does not mask the drop.
                let kind = match choice {
                    SourceChoice::Selection => StepKind::Selection,
                    SourceChoice::Semijoin => StepKind::Semijoin,
                };
                ledger.push(d.dropped(kind, 0, Cost::ZERO));
                round_degraded = true;
                step += 1;
                continue;
            }
            let done = match choice {
                SourceChoice::Selection => {
                    any_selection = true;
                    exec_sq(&mut d, cond, sources)?
                }
                SourceChoice::Semijoin => {
                    let bindings = current
                        .as_ref()
                        .expect("planner only semijoins with a running set");
                    run_semijoin(&mut d, cond, bindings, sources)?
                }
            };
            ledger.push(done.entry);
            match done.value {
                StepValue::Items(items) => round_union = round_union.union(&items),
                _ => round_degraded = true,
            }
            step += 1;
        }
        if round_degraded {
            missing_conds.push(cond_id);
        }
        current = Some(match current {
            None => round_union,
            // Semijoin results are already subsets; selections — and a
            // round that lost an operand — need the intersection with
            // the running set.
            Some(prev) if any_selection || round_degraded => prev.intersect(&round_union),
            Some(_) => round_union,
        });
        rounds.push(AdaptiveRound {
            cond: cond_id,
            choices,
            predicted_size: next.sizes[0],
            actual_size: current.as_ref().expect("just set").len(),
        });
        remaining.retain(|&c| c != cond_id.0);
    }
    let completeness = if missing_conds.is_empty() {
        Completeness::Exact
    } else {
        missing_conds.sort_unstable();
        missing_conds.dedup();
        Completeness::Subset {
            missing_sources: (0..fts.len())
                .filter(|&j| fts[j].dead)
                .map(SourceId)
                .collect(),
            missing_conditions: missing_conds,
        }
    };
    Ok(AdaptiveOutcome {
        answer: current.expect("m >= 1"),
        ledger,
        rounds,
        completeness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::NetworkCostModel;
    use fusion_net::LinkProfile;
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Predicate, Relation};

    fn setup() -> (FusionQuery, SourceSet, Network) {
        let s = dmv_schema();
        let relations = vec![
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
        ];
        let sources = SourceSet::new(
            relations
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", i + 1),
                        r,
                        Capabilities::full(),
                        ProcessingProfile::indexed_db(),
                        i as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        );
        let q = FusionQuery::new(
            s,
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap();
        let net = Network::uniform(2, LinkProfile::Wan.link());
        (q, sources, net)
    }

    #[test]
    fn adaptive_computes_the_right_answer() {
        let (q, sources, mut net) = setup();
        let model = NetworkCostModel::new(&sources, &net, &q, None);
        let out = execute_adaptive(&q, &sources, &mut net, &model, None).unwrap();
        assert_eq!(out.answer, ItemSet::from_items(["J55", "T21"]));
        assert_eq!(out.rounds.len(), 2);
        assert!(out.total_cost() > Cost::ZERO);
        // Each round processed a distinct condition.
        assert_ne!(out.rounds[0].cond, out.rounds[1].cond);
        // Actual sizes were observed.
        assert!(out.rounds[0].actual_size >= out.rounds[1].actual_size);
    }

    #[test]
    fn first_round_is_selections() {
        let (q, sources, mut net) = setup();
        let model = NetworkCostModel::new(&sources, &net, &q, None);
        let out = execute_adaptive(&q, &sources, &mut net, &model, None).unwrap();
        assert!(out.rounds[0]
            .choices
            .iter()
            .all(|c| *c == SourceChoice::Selection));
    }

    #[test]
    fn empty_bindings_semijoin_costs_zero_and_estimator_agrees() {
        // Conditions that match nothing: round 1's selections leave an
        // empty running set, so round 2's semijoins ship nothing and the
        // executor's no-op must cost zero — and the static estimator must
        // price the corresponding plan identically (the PR-2 parity that
        // previously only covered retried plan execution).
        let (_, sources, mut net) = setup();
        let q = FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "nosuch-a").into(),
                Predicate::eq("V", "nosuch-b").into(),
            ],
        )
        .unwrap();
        let model = NetworkCostModel::new(&sources, &net, &q, None);
        let out = execute_adaptive(&q, &sources, &mut net, &model, None).unwrap();
        assert!(out.answer.is_empty());
        // Round 2 re-planned from the observed empty set: semijoins,
        // recorded at exactly zero cost.
        let round2 = &out.rounds[1];
        assert!(
            round2.choices.iter().all(|c| *c == SourceChoice::Semijoin),
            "{:?}",
            round2.choices
        );
        for entry in &out.ledger.entries()[2..] {
            assert_eq!(entry.kind, StepKind::Semijoin);
            assert_eq!(entry.total(), Cost::ZERO, "entry {:?}", entry);
        }
        // The estimator prices the same shape the same way: with the
        // running set estimated empty, every semijoin step is free.
        let spec = fusion_core::plan::SimplePlanSpec {
            order: out.rounds.iter().map(|r| r.cond).collect(),
            choices: out.rounds.iter().map(|r| r.choices.clone()).collect(),
        };
        let plan = spec.build(2).unwrap();
        let mut est_model =
            fusion_core::TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 1e9, 5.0, 1000.0);
        for i in 0..2 {
            for j in 0..2 {
                est_model.set_est_sq_items(CondId(i), SourceId(j), 0.0);
            }
        }
        let est = fusion_core::estimate_plan_cost(&plan, &est_model);
        for (step, cost) in plan.steps.iter().zip(&est.step_costs) {
            if matches!(step, fusion_core::plan::Step::Sjq { .. }) {
                assert_eq!(*cost, Cost::ZERO, "estimator charges for the no-op");
            }
        }
        // Both sides agree: everything after round 1 is free.
        let round2_ledger: Cost = out.ledger.entries()[2..].iter().map(|e| e.total()).sum();
        assert_eq!(round2_ledger, Cost::ZERO);
        assert_eq!(est.cost, Cost::new(20.0)); // round 1's two selections only
    }

    #[test]
    fn model_mismatch_rejected() {
        let (q, sources, mut net) = setup();
        let model = fusion_core::TableCostModel::uniform(5, 2, 1.0, 1.0, 0.1, 1e9, 2.0, 10.0);
        assert!(execute_adaptive(&q, &sources, &mut net, &model, None).is_err());
    }
}
