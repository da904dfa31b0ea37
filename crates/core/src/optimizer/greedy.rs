//! Greedy variants of SJ and SJA (extended version \[24\]).
//!
//! "If the number of conditions is large, one may employ the efficient
//! greedy versions of SJ and SJA ... Those algorithms run in O(mn) time
//! and still find optimal plans under many realistic cost models. However,
//! they may end up with suboptimal, although still very good, plans under
//! the general cost model."
//!
//! The greedy ordering processes conditions by **ascending estimated
//! union size** (most selective first). Under cost models where query cost
//! grows with the data shipped — true of every network-derived model —
//! shrinking the running item set as early as possible minimizes every
//! later round's semijoin cost, which is why the heuristic is optimal for
//! such models. The per-round selection/semijoin decisions then follow the
//! same rule as the exact algorithms, in a single pass.

use super::search::{price_ordering, RoundRule};
use super::OptimizedPlan;
use crate::cost::CostModel;
use fusion_types::CondId;

/// Orders conditions by ascending estimated union size, condition index
/// breaking ties.
///
/// Uses [`f64::total_cmp`], so a NaN estimate (a corrupt statistics table
/// under a custom [`CostModel`]) degrades to a deterministic — if
/// arbitrary — position instead of panicking mid-optimization, and the
/// explicit tie-break keeps the order independent of the sort algorithm.
pub(crate) fn selectivity_order<M: CostModel>(model: &M) -> Vec<usize> {
    let mut order: Vec<usize> = (0..model.n_conditions()).collect();
    order.sort_by(|&a, &b| {
        model
            .est_condition_union(CondId(a))
            .total_cmp(&model.est_condition_union(CondId(b)))
            .then(a.cmp(&b))
    });
    order
}

/// Greedy SJA: one selectivity-ordered pass of the Figure 4 round rule
/// (per-source decisions). Runs in `O(mn + m log m)`.
///
/// # Panics
/// Panics if the model has no conditions.
pub fn greedy_sja<M: CostModel>(model: &M) -> OptimizedPlan {
    let order = selectivity_order(model);
    let priced = price_ordering(model, RoundRule::PerSource, &order, None);
    OptimizedPlan::from_ordering(order, priced, model.n_sources())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::optimizer::{sj_optimal, sja_optimal};
    use fusion_types::SourceId;

    /// The same pass under Figure 3's uniform rule.
    fn greedy_sj(model: &TableCostModel) -> OptimizedPlan {
        let order = selectivity_order(model);
        let priced = price_ordering(model, RoundRule::Uniform, &order, None);
        OptimizedPlan::from_ordering(order, priced, model.n_sources())
    }

    fn varied_model() -> TableCostModel {
        let mut m = TableCostModel::uniform(4, 3, 10.0, 1.0, 0.05, 1e9, 30.0, 500.0);
        // Give the conditions distinct selectivities: c3 ≪ c1 ≪ c4 ≪ c2.
        for s in 0..3 {
            m.set_est_sq_items(CondId(0), SourceId(s), 20.0);
            m.set_est_sq_items(CondId(1), SourceId(s), 80.0);
            m.set_est_sq_items(CondId(2), SourceId(s), 2.0);
            m.set_est_sq_items(CondId(3), SourceId(s), 40.0);
        }
        m
    }

    #[test]
    fn nan_estimate_does_not_panic_the_ordering() {
        // A corrupt statistics table (NaN selectivity estimate) must
        // degrade deterministically, not panic mid-optimization: under
        // total_cmp, NaN orders above every number, so the poisoned
        // condition sorts last and the rest keep their selectivity order.
        let mut m = varied_model();
        for s in 0..3 {
            m.set_est_sq_items(CondId(0), SourceId(s), f64::NAN);
        }
        let order = selectivity_order(&m);
        assert_eq!(order, vec![2, 3, 1, 0]);
    }

    #[test]
    fn equal_estimates_tie_break_by_condition_index() {
        let m = TableCostModel::uniform(4, 3, 10.0, 1.0, 0.05, 1e9, 30.0, 500.0);
        assert_eq!(selectivity_order(&m), vec![0, 1, 2, 3]);
    }

    #[test]
    fn orders_most_selective_first() {
        let opt = greedy_sja(&varied_model());
        assert_eq!(
            opt.spec.order,
            vec![CondId(2), CondId(0), CondId(3), CondId(1)]
        );
        opt.plan.validate().unwrap();
    }

    #[test]
    fn greedy_matches_exact_on_selectivity_driven_models() {
        // Uniform per-query costs, cost dominated by shipped volume: the
        // selectivity ordering is exactly what the exact search finds.
        let m = varied_model();
        assert_eq!(greedy_sja(&m).cost, sja_optimal(&m).cost);
        assert_eq!(greedy_sj(&m).cost, sj_optimal(&m).cost);
    }

    #[test]
    fn greedy_never_beats_exact() {
        // The exact optimum covers every ordering, so greedy ≥ exact.
        let mut m = varied_model();
        // Perturb costs to break the greedy assumption: make the most
        // selective condition ruinously expensive to evaluate first.
        for s in 0..3 {
            m.set_sq_cost(CondId(2), SourceId(s), 10_000.0);
        }
        assert!(greedy_sja(&m).cost >= sja_optimal(&m).cost);
        assert!(greedy_sj(&m).cost >= sj_optimal(&m).cost);
    }

    #[test]
    fn greedy_sja_never_worse_than_greedy_sj() {
        let m = varied_model();
        assert!(greedy_sja(&m).cost <= greedy_sj(&m).cost);
    }
}
