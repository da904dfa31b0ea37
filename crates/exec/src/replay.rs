//! Deterministic single-event replay of executor schedules.
//!
//! [`execute_plan_replay`] runs a plan one *event* at a time in an
//! explicit caller-chosen order — the operational semantics the schedule
//! model-checker ([`fusion-check`]) explores. The event alphabet is the
//! one the static interference analysis reasons over
//! ([`fusion_core::dataflow::Event`]): cache lookups, step executions,
//! fault-recovery epoch bumps, and cache admissions. Replaying every
//! linearization of a plan's certified event graph and comparing the
//! outcomes byte-for-byte is how the checker turns the analyzer's
//! happens-before claims into an executable proof obligation.
//!
//! The per-event actions are the *same code* the production executors
//! run: [`PlanRun::fetch`] / [`PlanRun::fold`] for executions,
//! [`fusion_cache::AnswerCache::lookup`] for lookups,
//! [`fusion_cache::AnswerCache::bump_epoch`] guarded by the committed
//! failure count for bumps, and the pending-admission insert for
//! commits. Exchanges go through the same shared per-source handles the
//! parallel workers use, so the committed trace is merged in step order
//! exactly as a real concurrent run's would be.
//!
//! # Scope and caveats
//!
//! * Replay is an *interleaving* semantics, not a thread pool: events run
//!   one at a time on the calling thread. What varies across replays is
//!   only the order — which is precisely the degree of freedom a real
//!   scheduler has once the per-step code is shared.
//! * The fault-tolerant retry deadline is checked against the cost of
//!   the events completed so far *in replay order*; schedules that
//!   reorder steps see different "spent" bases. With no deadline set
//!   (the [`RetryPolicy::default`]), replay outcomes are order-robust
//!   exactly when the event graph is interference-free.
//! * [`ReplayOptions::guard_commits`] exists to run *mutant* semantics:
//!   switching the guard off re-creates the admit-despite-failure race
//!   the `cache-commit-race` lint describes, so the checker can replay a
//!   static witness into a real divergence.

use crate::cached::commit_inserts;
use crate::interp::ExecutionOutcome;
use crate::retry::RetryPolicy;
use crate::step::{PlanRun, SharedExchanger};
use fusion_cache::{AnswerCache, Served};
use fusion_core::dataflow::Event;
use fusion_core::plan::{Plan, Step};
use fusion_core::query::FusionQuery;
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};
use fusion_types::SourceId;

/// Knobs for replay runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOptions {
    /// When `true` (the default, matching the production executors), a
    /// source that failed an exchange during the run has its pending
    /// cache admissions withheld. Switching this off replays the
    /// unguarded mutant semantics in which an admission races the
    /// fault-recovery epoch bump.
    pub guard_commits: bool,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            guard_commits: true,
        }
    }
}

fn replay_err(msg: impl std::fmt::Display) -> FusionError {
    FusionError::invalid_plan(format!("replay schedule: {msg}"))
}

/// Executes `plan` by replaying `order`, one event at a time.
///
/// `order` must execute every plan step exactly once; cache events
/// (`Lookup` / `EpochBump` / `Commit`) require `cache` to be attached,
/// and lookups/commits are only meaningful for selection (`sq`) steps.
/// `policy` selects fault-tolerant semantics (retries, sound drops) for
/// every execution event. See the module docs for the contract and
/// caveats.
///
/// # Errors
/// Fails on invalid or unsound plans, on schedules that are not a valid
/// replay (a step executed twice or never, an execution before its
/// inputs, a cache event without a cache), and on the same execution
/// errors the production executors report.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_replay(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    policy: Option<&RetryPolicy>,
    mut cache: Option<&mut AnswerCache>,
    order: &[Event],
    options: &ReplayOptions,
) -> Result<ExecutionOutcome> {
    fusion_core::analyze::ensure_sound(plan)?;
    let mut run = PlanRun::new(plan, query, sources, network, policy, cache.is_some())?;
    let mut served: Vec<Option<Served>> = vec![None; plan.steps.len()];
    let mut failed = vec![false; plan.n_sources];

    let step_at = |idx: usize| -> Result<&Step> {
        plan.steps
            .get(idx)
            .ok_or_else(|| replay_err(format!("event references missing step #{}", idx + 1)))
    };

    for event in order {
        match *event {
            Event::Lookup { step } => {
                if !matches!(step_at(step)?, Step::Sq { .. }) {
                    return Err(replay_err(format!(
                        "lookup#{} targets a non-selection step",
                        step + 1
                    )));
                }
                let Some(cache) = cache.as_deref_mut() else {
                    return Err(replay_err(format!(
                        "lookup#{} replayed without an answer cache",
                        step + 1
                    )));
                };
                served[step] = run.lookup(step, cache)?;
            }
            Event::Exec { step: idx } => {
                let step = step_at(idx)?;
                if run.entry(idx).is_some() {
                    return Err(replay_err(format!("step#{} executed twice", idx + 1)));
                }
                for v in step.used_vars() {
                    if run.var_len(v).is_none() {
                        return Err(replay_err(format!(
                            "step#{} executed before its input {} was bound",
                            idx + 1,
                            plan.var_names[v.0]
                        )));
                    }
                }
                if step.source().is_none() {
                    if let Step::LocalSq { rel, .. } = step {
                        if !run.rel_bound(*rel) {
                            return Err(replay_err(format!(
                                "step#{} executed before its load {} was bound",
                                idx + 1,
                                plan.rel_names[rel.0]
                            )));
                        }
                    }
                    run.local(idx)?;
                    continue;
                }
                if let Some(hit) = served[idx].take() {
                    run.serve(idx, hit, false);
                    continue;
                }
                // The deadline basis under reordering: the cost of the
                // executions completed so far in *replay* order.
                let spent = run.spent();
                let mut ex = SharedExchanger {
                    net: &*network,
                    step: idx,
                };
                let done = run.fetch(idx, &mut ex, spent)?;
                run.fold(idx, done)?;
            }
            Event::EpochBump { source } => {
                if source >= plan.n_sources {
                    return Err(replay_err(format!(
                        "bump[R{}] references a missing source",
                        source + 1
                    )));
                }
                let Some(cache) = cache.as_deref_mut() else {
                    return Err(replay_err(format!(
                        "bump[R{}] replayed without an answer cache",
                        source + 1
                    )));
                };
                // The bump reads the *committed* failure count, exactly
                // as the production executors do after their final
                // commit; merging the buffered exchanges first is what
                // makes the read see every execution ordered before it.
                network.commit();
                if run.failed_since_start(network, SourceId(source)) {
                    failed[source] = true;
                    cache.bump_epoch(SourceId(source));
                }
            }
            Event::Commit { step } => {
                if !matches!(step_at(step)?, Step::Sq { .. }) {
                    return Err(replay_err(format!(
                        "commit#{} targets a non-selection step",
                        step + 1
                    )));
                }
                let Some(cache) = cache.as_deref_mut() else {
                    return Err(replay_err(format!(
                        "commit#{} replayed without an answer cache",
                        step + 1
                    )));
                };
                // Cache hits and guarded failures leave nothing pending;
                // their commit events are no-ops, as in production.
                let Some(p) = run.take_pending(step) else {
                    continue;
                };
                let keep = !(options.guard_commits && failed[p.source.0]);
                commit_inserts(
                    cache,
                    vec![p],
                    run.exact(),
                    if keep { &[] } else { &failed },
                );
            }
        }
    }
    network.commit();
    if let Some(idx) = run.unexecuted() {
        return Err(replay_err(format!("step#{} never executed", idx + 1)));
    }
    // Admissions without a `Commit` event stay uncommitted.
    Ok(run.finish().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute_plan, execute_plan_with};
    use crate::testkit::{dmv_query, dmv_sources};
    use fusion_core::dataflow::EventGraph;
    use fusion_core::optimizer::sja_optimal;
    use fusion_core::TableCostModel;
    use fusion_net::{FaultPlan, FaultSpec, LinkProfile};
    use fusion_source::Capabilities;

    fn plan() -> Plan {
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        sja_optimal(&model).plan
    }

    fn program_order(plan: &Plan, cached: bool) -> Vec<Event> {
        let stages = fusion_core::dataflow::stage_decomposition(plan)
            .unwrap()
            .stages;
        let graph = EventGraph::certified(plan, &stages, cached);
        // The events of a certified graph are pushed in an order that is
        // itself a linearization (lookups, stage by stage, bumps,
        // commits), so replaying them as-is is the sequential semantics.
        graph.events().to_vec()
    }

    #[test]
    fn program_order_replay_matches_sequential() {
        let plan = plan();
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
        let seq = execute_plan(&plan, &q, &sources, &mut seq_net).unwrap();
        let order = program_order(&plan, false);
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let rep = execute_plan_replay(
            &plan,
            &q,
            &sources,
            &mut net,
            None,
            None,
            &order,
            &ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(rep.answer, seq.answer);
        assert_eq!(rep.ledger, seq.ledger);
        assert_eq!(net.trace(), seq_net.trace());
    }

    #[test]
    fn program_order_replay_matches_ft_under_faults() {
        let plan = plan();
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let policy = RetryPolicy::default();
        let order = program_order(&plan, false);
        for seed in 0..8u64 {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.45));
            let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
            seq_net.set_fault_plan(faults.clone());
            let seq =
                execute_plan_with(&plan, &q, &sources, &mut seq_net, Some(&policy), None).unwrap();
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            net.set_fault_plan(faults);
            let rep = execute_plan_replay(
                &plan,
                &q,
                &sources,
                &mut net,
                Some(&policy),
                None,
                &order,
                &ReplayOptions::default(),
            )
            .unwrap();
            assert_eq!(rep.answer, seq.answer, "seed {seed}");
            assert_eq!(rep.ledger, seq.ledger, "seed {seed}");
            assert_eq!(rep.completeness, seq.completeness, "seed {seed}");
            assert_eq!(net.trace(), seq_net.trace(), "seed {seed}");
        }
    }

    #[test]
    fn cached_program_order_replay_matches_cached_executor() {
        let plan = plan();
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let order = program_order(&plan, true);
        let mut seq_cache = AnswerCache::new(1 << 20);
        let mut rep_cache = AnswerCache::new(1 << 20);
        for round in 0..2 {
            let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
            let seq = execute_plan_with(
                &plan,
                &q,
                &sources,
                &mut seq_net,
                None,
                Some(&mut seq_cache),
            )
            .unwrap();
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let rep = execute_plan_replay(
                &plan,
                &q,
                &sources,
                &mut net,
                None,
                Some(&mut rep_cache),
                &order,
                &ReplayOptions::default(),
            )
            .unwrap();
            assert_eq!(rep.answer, seq.answer, "round {round}");
            assert_eq!(rep.ledger, seq.ledger, "round {round}");
            assert_eq!(rep_cache.stats(), seq_cache.stats(), "round {round}");
        }
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let plan = plan();
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let opts = ReplayOptions::default();
        // Dependency violation: execute the last step first.
        let last = plan.steps.len() - 1;
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan_replay(
            &plan,
            &q,
            &sources,
            &mut net,
            None,
            None,
            &[Event::Exec { step: last }],
            &opts,
        )
        .unwrap_err();
        assert!(err.to_string().contains("before its input"), "{err}");
        // Missing executions.
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan_replay(
            &plan,
            &q,
            &sources,
            &mut net,
            None,
            None,
            &[Event::Exec { step: 0 }],
            &opts,
        )
        .unwrap_err();
        assert!(err.to_string().contains("never executed"), "{err}");
        // Cache event without a cache.
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan_replay(
            &plan,
            &q,
            &sources,
            &mut net,
            None,
            None,
            &[Event::Lookup { step: 0 }],
            &opts,
        )
        .unwrap_err();
        assert!(err.to_string().contains("without an answer cache"), "{err}");
    }
}
