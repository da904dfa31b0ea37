//! Sequential plan interpretation with cost accounting: the in-order
//! driver of the step core ([`crate::step`]).

use crate::ledger::CostLedger;
use crate::retry::{Completeness, RetryPolicy};
use crate::step::PlanRun;
use fusion_cache::AnswerCache;
use fusion_core::plan::Plan;
use fusion_core::query::FusionQuery;
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_types::error::Result;
use fusion_types::{Cost, ItemSet};

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The query answer.
    pub answer: ItemSet,
    /// Per-step executed costs.
    pub ledger: CostLedger,
    /// Whether the answer is exact or a sound subset (steps were dropped
    /// after a source was given up on). Always [`Completeness::Exact`]
    /// outside fault-tolerant execution.
    pub completeness: Completeness,
}

impl ExecutionOutcome {
    /// Total executed cost.
    pub fn total_cost(&self) -> Cost {
        self.ledger.total()
    }
}

/// Executes `plan` for `query` against `sources` over `network`.
///
/// Remote steps are charged communication costs through the network's
/// links plus processing costs from each wrapper's profile. A semijoin
/// query to a source without native support is emulated as passed-binding
/// probes, batched to the source's advertised limit (§2.3); a source that
/// supports neither fails the execution — mirroring the infinite cost the
/// optimizer would have assigned.
///
/// Before touching any source, the plan is put through the semantic
/// analyzer ([`fusion_core::analyze`]): a plan that provably does *not*
/// compute the fusion query is refused outright, with the refuting
/// counterexample in the error. Deliberately partial plans (e.g. a probe
/// of a single round) can bypass the guard via
/// [`execute_plan_unchecked`].
///
/// # Errors
/// Fails on structurally invalid or semantically unsound plans,
/// capability violations, and predicate evaluation errors.
pub fn execute_plan(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    execute_plan_with(plan, query, sources, network, None, None)
}

/// [`execute_plan`] without the semantic-soundness guard: the plan is
/// still structurally validated, but it may compute something other
/// than the fusion answer (useful for executing partial plans).
///
/// # Errors
/// Fails on structurally invalid plans, capability violations, and
/// predicate evaluation errors.
pub fn execute_plan_unchecked(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    plan.validate()?;
    run_sequential(plan, query, sources, network, None, None)
}

/// [`execute_plan`] with fault tolerance (`retry`) and an answer cache
/// (`cache`), each independently optional.
///
/// **`retry`** — failed exchanges are retried under the policy: a
/// failed attempt charges its request cost (plus the configured timeout
/// wait) to the step's `failed_cost`, then the policy decides between a
/// backoff-priced retry and giving up. A hard outage,
/// `breaker_threshold` consecutive failures, retry exhaustion, or a
/// blown cost deadline all mark the source *dead* for the rest of the
/// query. Every step of a dead source is dropped: it contributes ∅ (for
/// a dropped load, an empty relation) and a zero-cost ledger entry, so
/// the ledger still matches the plan step-for-step and
/// [`crate::schedule()`] can replay it. Before dropping, the plan's BDD
/// analysis confirms the degraded plan still computes a subset of the
/// fusion answer in every world
/// ([`fusion_core::analyze::Analysis::droppable`]); if it cannot — e.g.
/// the dropped value feeds a difference subtrahend — the execution
/// errors rather than risk a superset. The outcome's [`Completeness`]
/// reports `Exact` when nothing was dropped, otherwise `Subset` with
/// the dead sources and weakened conditions. With a trivial fault plan
/// (or none) the outcome is byte-identical to `retry: None`.
///
/// **`cache`** — selections are served from the cache where possible
/// (free `sq(cache)` / `sq(residual)` entries, immune to faults: a hit
/// is looked up before its source can be found dead), misses fetch full
/// records, and fresh answers are admitted once the run completes.
/// Answer and completeness are byte-identical to `cache: None`.
///
/// # Errors
/// As [`execute_plan`], plus source failures whose steps are not
/// droppable.
pub fn execute_plan_with(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    retry: Option<&RetryPolicy>,
    cache: Option<&mut AnswerCache>,
) -> Result<ExecutionOutcome> {
    fusion_core::analyze::ensure_sound(plan)?;
    run_sequential(plan, query, sources, network, retry, cache)
}

/// The in-order driver: steps run one at a time in plan order on the
/// calling thread, exchanging on the exclusively owned network; the
/// retry deadline's `spent` is the running ledger total. The caller has
/// validated `plan`.
fn run_sequential(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    retry: Option<&RetryPolicy>,
    mut cache: Option<&mut AnswerCache>,
) -> Result<ExecutionOutcome> {
    let mut run = PlanRun::new(plan, query, sources, network, retry, cache.is_some())?;
    for idx in 0..plan.steps.len() {
        run.step(idx, network, cache.as_deref_mut())?;
    }
    Ok(run.finish_committing(network, cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::StepKind;
    use crate::testkit::{dmv_query, dmv_sources};
    use fusion_core::cost::TableCostModel;
    use fusion_core::optimizer::{filter_plan, sja_optimal};
    use fusion_core::plan::{SimplePlanSpec, SourceChoice, Step};
    use fusion_net::{ExchangeKind, LinkProfile};
    use fusion_source::Capabilities;
    use fusion_types::error::FusionError;
    use fusion_types::{CondId, SourceId};
    use fusion_workload::dmv::figure1_relations;

    fn semijoin_spec() -> SimplePlanSpec {
        SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection; 3],
                vec![SourceChoice::Semijoin; 3],
            ],
        }
    }

    #[test]
    fn filter_plan_computes_figure1_answer_with_costs() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        assert_eq!(out.answer, ItemSet::from_items(["J55", "T21"]));
        assert!(out.total_cost() > Cost::ZERO);
        assert_eq!(out.ledger.count_kind(StepKind::Selection), 6);
        assert_eq!(net.trace().len(), 6);
    }

    #[test]
    fn native_and_emulated_semijoins_agree_on_answers() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let mut answers = Vec::new();
        let mut costs = Vec::new();
        for caps in [
            Capabilities::full(),
            Capabilities::emulated(2),
            Capabilities::emulated(1),
        ] {
            let sources = dmv_sources(caps);
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
            answers.push(out.answer.clone());
            costs.push(out.total_cost());
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(answers[0], ItemSet::from_items(["J55", "T21"]));
        // Emulation costs strictly more, and smaller batches cost more.
        assert!(
            costs[1] > costs[0],
            "emulated {} <= native {}",
            costs[1],
            costs[0]
        );
        assert!(costs[2] > costs[1]);
    }

    #[test]
    fn emulated_semijoin_batches_round_trips() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::emulated(1));
        let mut net = Network::uniform(3, LinkProfile::Lan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        // X1 = {J55, T80, T21}: three bindings probed one at a time at
        // each of the three sources.
        let emulated: Vec<_> = out
            .ledger
            .entries()
            .iter()
            .filter(|e| e.kind == StepKind::EmulatedSemijoin)
            .collect();
        assert_eq!(emulated.len(), 3);
        for e in emulated {
            assert_eq!(e.round_trips, 3);
        }
        assert_eq!(net.count_kind(ExchangeKind::BindingProbe), 9);
    }

    #[test]
    fn selection_only_source_fails_semijoin_execution() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::selection_only());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(matches!(err, FusionError::Unsupported { .. }));
    }

    #[test]
    fn executed_answer_matches_naive_for_optimizer_plans() {
        let q = dmv_query();
        let truth = q.naive_answer(&figure1_relations()).unwrap();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let sources = dmv_sources(Capabilities::full());
        for opt in [filter_plan(&model), sja_optimal(&model)] {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&opt.plan, &q, &sources, &mut net).unwrap();
            assert_eq!(out.answer, truth);
        }
    }

    #[test]
    fn lq_and_local_steps_execute() {
        use fusion_core::plan::{Plan, Step, VarId};
        let q = dmv_query();
        // T1 := lq(R1); X0 := sq(c1, T1); X1 := sq(c2, R2); X2 := X0 ∩ X1.
        let mut plan = Plan::new(vec![], VarId(0), 2, 3);
        let t = plan.fresh_rel("T1");
        let x0 = plan.fresh_var("X0");
        let x1 = plan.fresh_var("X1");
        let x2 = plan.fresh_var("X2");
        plan.steps = vec![
            Step::Lq {
                out: t,
                source: SourceId(0),
            },
            Step::LocalSq {
                out: x0,
                cond: CondId(0),
                rel: t,
            },
            Step::Sq {
                out: x1,
                cond: CondId(1),
                source: SourceId(1),
            },
            Step::Intersect {
                out: x2,
                inputs: vec![x0, x1],
            },
        ];
        plan.result = x2;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        // The plan is a deliberate partial probe (it ignores R3), so the
        // guarded entry point refuses it...
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(err.to_string().contains("semantically unsound"), "{err}");
        // ...and the unchecked one runs it.
        let out = execute_plan_unchecked(&plan, &q, &sources, &mut net).unwrap();
        // dui at R1 = {J55, T80}; sp at R2 = {J55, T11} → {J55}.
        assert_eq!(out.answer, ItemSet::from_items(["J55"]));
        assert_eq!(out.ledger.count_kind(StepKind::Load), 1);
        assert_eq!(out.ledger.count_kind(StepKind::Local), 2);
    }

    #[test]
    fn guard_refuses_unsound_plan_with_counterexample() {
        let q = dmv_query();
        // A filter plan whose final union forgets R3.
        let mut plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        for step in plan.steps.iter_mut().rev() {
            if let Step::Union { inputs, .. } = step {
                inputs.truncate(2);
                break;
            }
        }
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("refusing to execute"), "{msg}");
        assert!(msg.contains("counterexample world"), "{msg}");
        assert!(msg.contains("step trace"), "{msg}");
    }

    #[test]
    fn arity_mismatches_rejected() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 2, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan; // 2 sources
        let sources = dmv_sources(Capabilities::full()); // 3 sources
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        assert!(execute_plan(&plan, &q, &sources, &mut net).is_err());
    }
}
