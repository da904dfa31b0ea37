//! The FILTER, SJ, and SJA optimization algorithms (§3) and the greedy
//! variants of the extended version \[24\].
//!
//! All run in time **linear in the number of sources** — the property
//! the paper stresses for Internet-scale integration. SJ and SJA are in
//! the worst case factorial in the number of conditions, which "in most
//! realistic scenarios ... is acceptable since the number of conditions
//! (unlike the number of sources) is usually small".
//!
//! There is **one ordering search** (`search.rs`, DESIGN §20), and every
//! exact optimizer calls it: [`sj_optimal`] / [`sja_optimal`] over all
//! conditions ([`ordering_search`] adds its counts), [`suffix_search`]
//! over the conditions still to run, from an observed running set — the
//! re-optimizer's re-plan (at every round, per-round re-planning).
//! [`reference_enumeration`] — Figures 3–4 literally — is the
//! **reference** it is tested and timed against, not a product path.
//! [`sja_response_optimal`] minimizes makespan, which does not decompose
//! by prefix, and enumerates.

mod filter;
mod greedy;
mod perm;
mod plan_memo;
mod response;
mod search;

pub use filter::filter_plan;
pub use greedy::greedy_sja;
pub(crate) use plan_memo::Plans;
pub use plan_memo::PLAN_MEMO_CAPACITY;
pub use response::{estimate_makespan, sja_response_optimal, ResponseOptimized};
pub use search::{
    ordering_search, reference_enumeration, sj_optimal, sja_optimal, suffix_search, BnbStats,
    RoundRule, SuffixPlan,
};

use crate::cost::CostModel;
use crate::plan::{Plan, SimplePlanSpec, SourceChoice};
use fusion_types::{CondId, Cost, SourceId};

/// The one tie-break of the search and the reference enumeration:
/// strictly cheaper wins, and costs tied within float noise — or equal,
/// which covers two infinite costs — fall back to the lexicographically
/// smaller ordering. So both return byte-identical plans when several
/// orderings are equally cheap, whatever ordering either started from.
pub(crate) fn improves(cost: Cost, order: &[usize], best_cost: Cost, best_order: &[usize]) -> bool {
    let tol = ordering_tie_tolerance(best_cost);
    let tied = cost == best_cost || (cost.value() - best_cost.value()).abs() <= tol;
    cost.value() < best_cost.value() - tol || (tied && order < best_order)
}

/// Absolute cost tolerance under which two orderings count as tied.
pub(crate) fn ordering_tie_tolerance(best_cost: Cost) -> f64 {
    if best_cost.is_finite() {
        1e-12 * best_cost.value().abs().max(1.0)
    } else {
        0.0
    }
}

/// The output of an optimization algorithm: the chosen plan, the
/// specification it was built from, and its estimated cost.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The executable plan.
    pub plan: Plan,
    /// The condition-at-a-time shape the plan was built from.
    pub spec: SimplePlanSpec,
    /// The optimizer's cost estimate for the plan.
    pub cost: Cost,
    /// Estimated `|X_r|` after each round, in processing order.
    pub round_sizes: Vec<f64>,
}

impl OptimizedPlan {
    /// Builds the plan for `spec` and packages it with its cost.
    ///
    /// # Panics
    /// Panics if the spec fails validation — optimizers only produce valid
    /// specs, so this indicates an internal bug.
    pub fn from_spec(
        spec: SimplePlanSpec,
        cost: Cost,
        round_sizes: Vec<f64>,
        n_sources: usize,
    ) -> OptimizedPlan {
        let plan = spec
            .build(n_sources)
            .expect("optimizer produced an invalid spec");
        debug_assert!(
            crate::analyze::analyze_plan(&plan).is_ok_and(|a| a.verdict().is_proved()),
            "optimizer emitted a semantically unsound plan:\n{}",
            plan.listing()
        );
        OptimizedPlan {
            plan,
            spec,
            cost,
            round_sizes,
        }
    }

    /// [`OptimizedPlan::from_spec`] for a priced condition ordering.
    pub(crate) fn from_ordering(
        order: Vec<usize>,
        (choices, cost, round_sizes): search::Priced,
        n_sources: usize,
    ) -> OptimizedPlan {
        let spec = SimplePlanSpec {
            order: order.into_iter().map(CondId).collect(),
            choices,
        };
        OptimizedPlan::from_spec(spec, cost, round_sizes, n_sources)
    }
}

/// Prices a *fixed* suffix — rounds whose source choices are already
/// locked in — under `model`, from the observed running-set size `x0`.
///
/// This is how the re-optimizer values the plan it is already executing:
/// the remaining rounds' choices cannot be revisited without a switch, so
/// their cost is whatever the (recalibrated) model says those exact
/// choices will pay.
pub fn price_suffix<M: CostModel>(
    model: &M,
    order: &[usize],
    choices: &[Vec<SourceChoice>],
    x0: f64,
) -> Cost {
    assert_eq!(order.len(), choices.len(), "suffix order/choices mismatch");
    let mut cost = Cost::ZERO;
    let mut x_est = x0;
    for (&o, row) in order.iter().zip(choices) {
        let cond = CondId(o);
        for (j, choice) in row.iter().enumerate() {
            cost += match choice {
                SourceChoice::Selection => model.sq_cost(cond, SourceId(j)),
                SourceChoice::Semijoin => model.sjq_cost(cond, SourceId(j), x_est),
            };
        }
        x_est *= model.gsel(cond);
    }
    cost
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::cost::TableCostModel;

    /// A 3-condition, 2-source model where semijoins pay off for the
    /// second condition only at the first source — staged to make SJA
    /// produce the Figure 2(c) plan.
    ///
    /// Costs are arranged so that every ordering starting with `c1` ties
    /// (semijoin costs are input-independent) and orderings starting with
    /// `c2` or `c3` are strictly worse; the shared tie-break keeps the
    /// lexicographically least, `[c1, c2, c3]` — the figure's ordering.
    pub(crate) fn figure2_model() -> TableCostModel {
        use fusion_types::{CondId, SourceId};
        let mut m = TableCostModel::uniform(3, 2, 10.0, 100.0, 10.0, 1e6, 5.0, 1000.0);
        // c1 is the most selective condition and cheap to push.
        m.set_est_sq_items(CondId(0), SourceId(0), 3.0);
        m.set_est_sq_items(CondId(0), SourceId(1), 3.0);
        // c2 at R1: selection is dear, the semijoin is flat and cheap.
        m.set_sq_cost(CondId(1), SourceId(0), 50.0);
        m.set_sjq_cost(CondId(1), SourceId(0), 1.0, 0.0);
        // c2 at R2 and c3 everywhere keep the default punitive semijoin
        // (base 100), so selections win there.
        m
    }
}

#[cfg(test)]
mod tests {
    use super::search::{price_ordering, RoundRule};
    use super::*;
    use crate::cost::TableCostModel;

    fn sj(model: &TableCostModel, order: &[usize]) -> search::Priced {
        price_ordering(model, RoundRule::Uniform, order, None)
    }

    fn sja(model: &TableCostModel, order: &[usize]) -> search::Priced {
        price_ordering(model, RoundRule::PerSource, order, None)
    }

    #[test]
    fn sj_and_sja_agree_on_uniform_models() {
        // With identical sources, per-source choice degenerates to the
        // uniform choice: both rules must price an ordering equally (up
        // to float summation order).
        let model = TableCostModel::uniform(3, 4, 10.0, 1.0, 0.1, 1e9, 20.0, 500.0);
        let (_, sj_cost, _) = sj(&model, &[0, 1, 2]);
        let (_, sja_cost, _) = sja(&model, &[0, 1, 2]);
        assert!((sj_cost.value() - sja_cost.value()).abs() < 1e-9 * sj_cost.value());
    }

    #[test]
    fn sja_never_worse_than_sj_per_ordering() {
        let model = testutil::figure2_model();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let (_, sj_cost, _) = sj(&model, &order);
            let (_, sja_cost, _) = sja(&model, &order);
            assert!(sja_cost <= sj_cost, "order {order:?}");
        }
    }

    #[test]
    fn round_sizes_shrink_with_selective_conditions() {
        let model = TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 1e9, 5.0, 1000.0);
        let (_, _, sizes) = sja(&model, &[0, 1, 2]);
        assert_eq!(sizes.len(), 3);
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2]);
    }

    #[test]
    fn infinite_semijoin_forces_selection() {
        let mut model = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 1e9, 5.0, 100.0);
        model.set_sjq_cost(CondId(1), SourceId(0), f64::INFINITY, 0.0);
        model.set_sjq_cost(CondId(1), SourceId(1), f64::INFINITY, 0.0);
        let (choices, cost, _) = sja(&model, &[0, 1]);
        assert!(cost.is_finite());
        assert_eq!(choices[1], vec![SourceChoice::Selection; 2]);
    }
}
