//! Cache-aware plan execution: the contract and its shared pieces.
//!
//! Whatever the schedule or reopt rule, [`crate::RunOptions::cache`]
//! changes what things cost, never what they compute — **answers and
//! completeness are byte-identical to cold execution** (DESIGN.md §10):
//!
//! * A selection the cache serves (exactly, or by residual-filtering a
//!   subsuming entry) never touches the network: a free
//!   [`StepKind::CacheHit`] / [`StepKind::CacheResidual`] entry.
//! * A miss fetches the *full records* (`select_shared`), paying more
//!   than a cold `sq` so the answer can be admitted and residual-filtered
//!   later; that price is the entry's eviction weight.
//! * Inserts wait until the run completes, so the cache is constant while
//!   it runs and every schedule makes the same lookups; a run that
//!   degraded to a subset admits non-exact entries, never served.
//! * A source that failed an exchange during a retried run has its epoch
//!   bumped (its older entries die) and its fresh answers withheld: data
//!   fetched around a fault window predates recovery.

use crate::ledger::{LedgerEntry, StepKind};
use fusion_cache::{AnswerCache, Harvest, HitKind, Served};
use fusion_types::{Condition, Cost, SourceId};
use std::sync::Arc;

/// A cache admission waiting for the run to finish.
pub(crate) struct PendingInsert {
    /// Plan step the answer came from (for deterministic commit order).
    pub(crate) step: usize,
    pub(crate) source: SourceId,
    pub(crate) cond: Condition,
    /// The fetched records — the very value a share leader published.
    pub(crate) rows: Arc<Harvest>,
    /// The price paid to fetch the answer — the eviction weight.
    pub(crate) refetch: Cost,
}

/// The ledger entry of a served selection: free, zero round trips.
/// `shared` marks a hit on another in-flight query's merged fetch —
/// free like a cache hit, distinguishable from one (the harvest never
/// lived in the cache).
pub(crate) fn served_entry(
    idx: usize,
    source: SourceId,
    served: &Served,
    shared: bool,
) -> LedgerEntry {
    LedgerEntry {
        step: idx,
        kind: match (served.kind, shared) {
            (HitKind::Exact, false) => StepKind::CacheHit,
            (HitKind::Subsumed, false) => StepKind::CacheResidual,
            (HitKind::Exact, true) => StepKind::ShareHit,
            (HitKind::Subsumed, true) => StepKind::ShareResidual,
        },
        source: Some(source),
        comm: Cost::ZERO,
        proc: Cost::ZERO,
        round_trips: 0,
        items_out: served.items.len(),
        attempts: 0,
        failed_cost: Cost::ZERO,
    }
}

/// Commits the run's buffered admissions: sources that went through
/// fault recovery (`failed[j]`) are skipped, and a run that degraded to
/// a subset answer admits its entries as non-exact (never servable).
pub(crate) fn commit_inserts(
    cache: &mut AnswerCache,
    mut pending: Vec<PendingInsert>,
    exact: bool,
    failed: &[bool],
) {
    pending.sort_by_key(|p| p.step);
    for p in pending {
        if failed.get(p.source.0).copied().unwrap_or(false) {
            continue;
        }
        cache.insert_harvest(p.source, p.cond, p.rows, exact, p.refetch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute_plan;
    use crate::retry::RetryPolicy;
    use crate::testkit::{dmv_query, dmv_sources, net};
    use crate::{ExecutionOutcome, RunOptions, Target};
    use fusion_core::plan::SimplePlanSpec;
    use fusion_core::query::FusionQuery;
    use fusion_net::{FaultPlan, FaultSpec};
    use fusion_source::Capabilities;
    use fusion_types::schema::dmv_schema;
    use fusion_types::Predicate;

    /// `plan` in plan order under `retry` and `cache`.
    fn sequential(
        plan: &fusion_core::plan::Plan,
        query: &FusionQuery,
        sources: &fusion_source::SourceSet,
        network: &mut fusion_net::Network,
        retry: Option<&RetryPolicy>,
        cache: Option<&mut AnswerCache>,
    ) -> fusion_types::error::Result<ExecutionOutcome> {
        let options = RunOptions {
            retry,
            cache,
            ..RunOptions::default()
        };
        crate::run(Target::Plan(plan), query, sources, network, options).map(|r| r.outcome)
    }

    #[test]
    fn warm_run_serves_hits_and_matches_cold_answer() {
        let q = dmv_query();
        let plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        let sources = dmv_sources(Capabilities::full());
        let cold = execute_plan(&plan, &q, &sources, &mut net()).unwrap();

        let mut cache = AnswerCache::new(1 << 20);
        let first = sequential(&plan, &q, &sources, &mut net(), None, Some(&mut cache)).unwrap();
        assert_eq!(first.answer, cold.answer);
        assert_eq!(cache.stats().misses, 6);
        assert_eq!(cache.len(), 6);

        let second = sequential(&plan, &q, &sources, &mut net(), None, Some(&mut cache)).unwrap();
        assert_eq!(second.answer, cold.answer);
        assert_eq!(second.completeness, cold.completeness);
        assert_eq!(second.ledger.count_kind(StepKind::CacheHit), 6);
        assert_eq!(second.ledger.count_kind(StepKind::Selection), 0);
        // Every served selection's items match the cold run's entry.
        for (warm, cold) in second.ledger.entries().iter().zip(cold.ledger.entries()) {
            assert_eq!(warm.items_out, cold.items_out, "step {}", warm.step);
        }
        // Hits are free: the warm run only pays for local steps (nothing).
        assert_eq!(second.total_cost(), Cost::ZERO);
        assert_eq!(cache.stats().hits, 6);
    }

    #[test]
    fn subsumption_serves_narrower_condition_from_broader_entry() {
        let s = dmv_schema();
        let sources = dmv_sources(Capabilities::full());
        let broad = FusionQuery::new(
            s.clone(),
            vec![
                Condition::from(Predicate::cmp("D", fusion_types::CmpOp::Ge, 1900i64)),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap();
        let narrow = FusionQuery::new(
            s,
            vec![
                Condition::from(Predicate::cmp("D", fusion_types::CmpOp::Ge, 1994i64)),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap();
        let plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        let mut cache = AnswerCache::new(1 << 20);
        sequential(&plan, &broad, &sources, &mut net(), None, Some(&mut cache)).unwrap();

        let cold = execute_plan(&plan, &narrow, &sources, &mut net()).unwrap();
        let warm =
            sequential(&plan, &narrow, &sources, &mut net(), None, Some(&mut cache)).unwrap();
        assert_eq!(warm.answer, cold.answer);
        // c1 (D ≥ 1994 ⊆ D ≥ 1900) is residual-served at all 3 sources;
        // c2 is an exact hit at all 3.
        assert_eq!(warm.ledger.count_kind(StepKind::CacheResidual), 3);
        assert_eq!(warm.ledger.count_kind(StepKind::CacheHit), 3);
        assert_eq!(cache.stats().residual_hits, 3);
    }

    #[test]
    fn ft_cached_with_no_faults_matches_plain_cached() {
        let q = dmv_query();
        let plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        let sources = dmv_sources(Capabilities::full());
        let policy = RetryPolicy::default();

        let mut c1 = AnswerCache::new(1 << 20);
        let mut c2 = AnswerCache::new(1 << 20);
        for _ in 0..2 {
            let a = sequential(&plan, &q, &sources, &mut net(), None, Some(&mut c1)).unwrap();
            let b = sequential(
                &plan,
                &q,
                &sources,
                &mut net(),
                Some(&policy),
                Some(&mut c2),
            )
            .unwrap();
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.ledger, b.ledger);
            assert_eq!(a.completeness, b.completeness);
        }
        assert_eq!(c1.stats(), c2.stats());
    }

    #[test]
    fn fault_recovery_bumps_epoch_and_withholds_admission() {
        let q = dmv_query();
        let plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        let sources = dmv_sources(Capabilities::full());
        let policy = RetryPolicy::default();
        let mut cache = AnswerCache::new(1 << 20);

        // Warm every pair fault-free.
        sequential(
            &plan,
            &q,
            &sources,
            &mut net(),
            Some(&policy),
            Some(&mut cache),
        )
        .unwrap();
        assert_eq!(cache.len(), 6);
        let epochs_before = cache.epochs(3);

        // Run with R2 permanently down: its hits still serve (no network
        // touch), but the run ends by bumping R2's epoch, which kills its
        // entries.
        let mut network = net();
        network.set_fault_plan(FaultPlan::none(3).with_outage(SourceId(1), 0));
        let out = sequential(
            &plan,
            &q,
            &sources,
            &mut network,
            Some(&policy),
            Some(&mut cache),
        )
        .unwrap();
        // All six selections were cache hits, so no fault was even felt.
        assert!(out.completeness.is_exact());
        assert_eq!(out.ledger.count_kind(StepKind::CacheHit), 6);
        assert_eq!(cache.epochs(3), epochs_before, "no exchange, no recovery");

        // Clear and re-run cold under the same outage: R1/R3 answers are
        // fetched but the run is Subset, so nothing becomes servable, and
        // R2's epoch advances.
        cache.clear();
        let mut network = net();
        network.set_fault_plan(FaultPlan::none(3).with_outage(SourceId(1), 0));
        let out = sequential(
            &plan,
            &q,
            &sources,
            &mut network,
            Some(&policy),
            Some(&mut cache),
        )
        .unwrap();
        assert!(!out.completeness.is_exact());
        assert_eq!(cache.epoch(SourceId(1)), epochs_before[1] + 1);
        // Entries from the degraded run were admitted non-exact (R1, R3)
        // or withheld (R2): none serve.
        let warm = sequential(
            &plan,
            &q,
            &sources,
            &mut net(),
            Some(&policy),
            Some(&mut cache),
        )
        .unwrap();
        assert_eq!(warm.ledger.count_kind(StepKind::CacheHit), 0);
        assert_eq!(warm.ledger.count_kind(StepKind::CacheResidual), 0);
        assert!(warm.completeness.is_exact());
        let truth = execute_plan(&plan, &q, &sources, &mut net()).unwrap();
        assert_eq!(warm.answer, truth.answer);
    }

    #[test]
    fn ft_cached_matches_cold_answer_under_faults() {
        let q = dmv_query();
        let plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        let sources = dmv_sources(Capabilities::full());
        let policy = RetryPolicy::default();
        for seed in 0..12u64 {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.4));
            let mut cold_net = net();
            cold_net.set_fault_plan(faults.clone());
            let cold = sequential(&plan, &q, &sources, &mut cold_net, Some(&policy), None).unwrap();

            let mut cache = AnswerCache::new(1 << 20);
            let mut warm_net = net();
            warm_net.set_fault_plan(faults);
            let warm = sequential(
                &plan,
                &q,
                &sources,
                &mut warm_net,
                Some(&policy),
                Some(&mut cache),
            )
            .unwrap();
            assert_eq!(warm.answer, cold.answer, "seed {seed}");
            assert_eq!(warm.completeness, cold.completeness, "seed {seed}");
        }
    }
}
