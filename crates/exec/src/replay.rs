//! Deterministic single-event replay of executor schedules.
//!
//! [`replay_events`] ([`crate::Schedule::Order`]) runs a plan one *event*
//! at a time in a caller-chosen order — the operational semantics the
//! schedule model-checker (`fusion-check`) explores. The events are the
//! static interference analysis' ([`fusion_core::dataflow::Event`]):
//! cache lookups, step executions, fault-recovery epoch bumps and cache
//! admissions. Replaying every linearization of a plan's certified event
//! graph and comparing the outcomes byte for byte turns the analyzer's
//! happens-before claims into an executable proof obligation.
//!
//! Each event runs the code every schedule runs ([`PlanRun::dispatch`],
//! with the hit its `Lookup` event held; [`AnswerCache::lookup`]; the
//! committed-failure guarded [`AnswerCache::bump_epoch`]; the
//! pending-admission insert),
//! and exchanges go through the shared per-source handles stage workers
//! use, so the trace merges in step order as a concurrent run's would.
//! Events run on the calling thread; only their order varies. The retry
//! deadline's `spent` is the cost of the events completed so far *in
//! replay order*, so with a deadline set an outcome may depend on the
//! order; without one (the default) it is order-robust exactly when the
//! event graph is interference-free. `guard_commits: false` re-creates
//! the admit-despite-failure race the `cache-commit-race` lint describes,
//! so the checker can replay a static witness into a real divergence.

use crate::cached::commit_inserts;
use crate::step::{PlanRun, SharedExchanger};
use fusion_cache::AnswerCache;
use fusion_core::dataflow::Event;
use fusion_core::plan::{Plan, Step};
use fusion_net::Network;
use fusion_types::error::{FusionError, Result};
use fusion_types::SourceId;

fn replay_err(msg: impl std::fmt::Display) -> FusionError {
    FusionError::invalid_plan(format!("replay schedule: {msg}"))
}

/// The cache a cache event needs.
fn cache_for<'c>(
    cache: &'c mut Option<&mut AnswerCache>,
    event: Event,
) -> Result<&'c mut AnswerCache> {
    let err = || replay_err(format!("{event} replayed without an answer cache"));
    cache.as_deref_mut().ok_or_else(err)
}

/// Runs `plan` on `run` by replaying `order`, one event at a time.
///
/// # Errors
/// Fails on an order that is not a valid replay — a step executed twice
/// or never, or before its inputs; a lookup or commit of a non-selection;
/// a bump of a missing source; a cache event without a cache — and on
/// the execution errors of the other schedules.
pub(crate) fn replay_events(
    plan: &Plan,
    run: &mut PlanRun<'_>,
    network: &mut Network,
    mut cache: Option<&mut AnswerCache>,
    order: &[Event],
    guard_commits: bool,
) -> Result<()> {
    let mut failed = vec![false; plan.n_sources];
    let step_at = |idx: usize| -> Result<&Step> {
        plan.steps
            .get(idx)
            .ok_or_else(|| replay_err(format!("event references missing step #{}", idx + 1)))
    };
    for &event in order {
        // A lookup or commit names a selection, a bump a source.
        let named = match event {
            Event::Lookup { step } | Event::Commit { step } => {
                matches!(step_at(step)?, Step::Sq { .. })
            }
            Event::EpochBump { source } => source < plan.n_sources,
            Event::Exec { .. } => true,
        };
        if !named {
            return Err(replay_err(format!("{event} names no selection or source")));
        }
        match event {
            Event::Lookup { step } => {
                run.look_up(step..step + 1, cache_for(&mut cache, event)?)?;
            }
            Event::EpochBump { source } => {
                let cache = cache_for(&mut cache, event)?;
                // The bump reads the *committed* failure count, as the
                // other schedules do after their final commit: merging
                // first makes it see every execution ordered before it.
                network.commit();
                if run.failed_since_start(network, SourceId(source)) {
                    failed[source] = true;
                    cache.bump_epoch(SourceId(source));
                }
            }
            Event::Commit { step } => {
                let cache = cache_for(&mut cache, event)?;
                // Hits and guarded failures leave nothing pending: their
                // commits are no-ops, as in the other schedules.
                if let Some(p) = run.take_pending(step) {
                    let skip = guard_commits && failed[p.source.0];
                    commit_inserts(
                        cache,
                        vec![p],
                        run.exact(),
                        if skip { &failed } else { &[] },
                    );
                }
            }
            Event::Exec { step: idx } => {
                let step = step_at(idx)?;
                if run.entry(idx).is_some() {
                    return Err(replay_err(format!("{event} executed twice")));
                }
                let unbound = step
                    .used_vars()
                    .into_iter()
                    .find(|v| run.var_len(*v).is_none());
                if let Some(v) = unbound {
                    let name = &plan.var_names[v.0];
                    return Err(replay_err(format!(
                        "{event} executed before its input {name} was bound"
                    )));
                }
                if let Step::LocalSq { rel, .. } = step {
                    if !run.rel_bound(*rel) {
                        let name = &plan.rel_names[rel.0];
                        return Err(replay_err(format!(
                            "{event} executed before its load {name} was bound"
                        )));
                    }
                }
                let net = &*network;
                run.dispatch(idx, &mut SharedExchanger { net, step: idx })?;
            }
        }
    }
    match run.unexecuted() {
        Some(idx) => Err(replay_err(format!("step#{} never executed", idx + 1))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{dmv_query, dmv_sources, net};
    use crate::{run, ExecutionOutcome, RetryPolicy, RunOptions, Schedule, Target};
    use fusion_core::dataflow::{stage_decomposition, EventGraph};
    use fusion_core::optimizer::sja_optimal;
    use fusion_core::TableCostModel;
    use fusion_net::{FaultPlan, FaultSpec};
    use fusion_source::Capabilities;

    fn plan() -> Plan {
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        sja_optimal(&model).plan
    }

    /// `plan` over the DMV sources on `net`, replaying `events` (`None`:
    /// in plan order) under `retry`.
    fn replay(
        plan: &Plan,
        net: &mut Network,
        events: Option<&[Event]>,
        retry: Option<&RetryPolicy>,
    ) -> Result<ExecutionOutcome> {
        let (q, sources) = (dmv_query(), dmv_sources(Capabilities::full()));
        let schedule = events.map_or(Schedule::Sequential, |events| Schedule::Order {
            events,
            guard_commits: true,
        });
        let options = RunOptions {
            schedule,
            retry,
            cache: None,
        };
        run(Target::Plan(plan), &q, &sources, net, options).map(|r| r.outcome)
    }

    #[test]
    fn program_order_replay_matches_ft_under_faults() {
        let plan = plan();
        let stages = stage_decomposition(&plan).unwrap().stages;
        // The events of a certified graph are pushed in an order that is
        // itself a linearization (lookups, stage by stage, bumps,
        // commits), so replaying them as-is is the sequential semantics.
        let order = EventGraph::certified(&plan, &stages, false)
            .events()
            .to_vec();
        let policy = Some(RetryPolicy::default());
        for seed in 0..8u64 {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.45));
            let (mut seq_net, mut rep_net) = (net(), net());
            seq_net.set_fault_plan(faults.clone());
            rep_net.set_fault_plan(faults);
            let seq = replay(&plan, &mut seq_net, None, policy.as_ref()).unwrap();
            let rep = replay(&plan, &mut rep_net, Some(&order), policy.as_ref()).unwrap();
            assert_eq!(rep.answer, seq.answer, "seed {seed}");
            assert_eq!(rep.ledger, seq.ledger, "seed {seed}");
            assert_eq!(rep.completeness, seq.completeness, "seed {seed}");
            assert_eq!(rep_net.trace(), seq_net.trace(), "seed {seed}");
        }
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let plan = plan();
        let err = |events: &[Event]| {
            let out = replay(&plan, &mut net(), Some(events), None);
            out.unwrap_err().to_string()
        };
        // Dependency violation: execute the last step first.
        let last = plan.steps.len() - 1;
        let e = err(&[Event::Exec { step: last }]);
        assert!(e.contains("before its input"), "{e}");
        // Missing executions.
        let e = err(&[Event::Exec { step: 0 }]);
        assert!(e.contains("never executed"), "{e}");
        // Cache event without a cache.
        let e = err(&[Event::Lookup { step: 0 }]);
        assert!(e.contains("without an answer cache"), "{e}");
    }
}
