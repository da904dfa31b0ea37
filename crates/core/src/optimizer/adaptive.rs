//! Round-at-a-time planning for mid-query re-optimization.
//!
//! The SJA algorithm commits to a full plan using estimated semijoin-set
//! sizes chained under the independence assumption. When conditions are
//! correlated those estimates drift (see experiment E13), and the chosen
//! strategies can be wrong for the *actual* running set. The era's remedy
//! (Kabra & DeWitt, SIGMOD 1998) is mid-query re-optimization: execute
//! one round, observe the real cardinality, re-plan the rest.
//!
//! [`adaptive_next`] is the planning half: given the conditions still to
//! process and the *observed* size of the running item set, it runs the
//! crate's one ordering search over the remainder (Figure 4's space,
//! seeded with truth instead of an estimate) and returns the first round
//! of the best ordering. The executor in `fusion-exec` calls it once per
//! round.

use super::search::{price_round, RoundRule, SearchState};
use crate::cost::CostModel;
use crate::plan::SourceChoice;
use fusion_types::{CondId, Cost};

/// The recommended next round.
#[derive(Debug, Clone)]
pub struct NextRound {
    /// The condition to evaluate next.
    pub cond: CondId,
    /// Per-source strategy for it.
    pub choices: Vec<SourceChoice>,
    /// Estimated cost of this round alone.
    pub round_cost: Cost,
    /// Estimated cost of the whole remainder under the chosen ordering.
    pub remainder_cost: Cost,
    /// Predicted `|X|` after this round (to compare against reality).
    pub predicted_size: f64,
}

/// Plans the next round: searches the orderings of `remaining`, chaining
/// cardinalities from the observed `current_items` (or from scratch when
/// `None`, i.e. the first round), and returns the first round of the best
/// ordering — of equally cheap ones, the lexicographically least.
///
/// When `current_items` is `Some`, every source may independently choose
/// between a selection and a semijoin against the *actual* running set —
/// including for the condition processed first, which plain SJA cannot do
/// (its first round is always selections because no set exists yet).
///
/// # Panics
/// Panics if `remaining` is empty.
pub fn adaptive_next<M: CostModel>(
    model: &M,
    remaining: &[CondId],
    current_items: Option<f64>,
) -> NextRound {
    assert!(!remaining.is_empty(), "nothing left to plan");
    let rule = RoundRule::PerSource;
    let mut cands: Vec<usize> = remaining.iter().map(|c| c.0).collect();
    cands.sort_unstable();
    let mut search = SearchState::new(cands.clone());
    let ((mut choices, remainder_cost, sizes), _) =
        search.run(model, rule, &cands, current_items, usize::MAX);
    let cond = search.best[0];
    let mut round_cost = Cost::ZERO;
    price_round(model, rule, cond, current_items, &mut round_cost, None);
    NextRound {
        cond: CondId(cond),
        choices: choices.swap_remove(0),
        round_cost,
        remainder_cost,
        predicted_size: sizes[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::optimizer::sja_optimal;
    use fusion_types::SourceId;

    fn model() -> TableCostModel {
        let mut m = TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 1e9, 5.0, 1000.0);
        m.set_est_sq_items(CondId(0), SourceId(0), 2.0);
        m.set_est_sq_items(CondId(0), SourceId(1), 2.0);
        m
    }

    #[test]
    fn first_round_is_selections_and_matches_sja_order() {
        let m = model();
        let all = [CondId(0), CondId(1), CondId(2)];
        let next = adaptive_next(&m, &all, None);
        assert_eq!(next.choices, vec![SourceChoice::Selection; 2]);
        // With the same estimates and no observations, the adaptive
        // planner's first pick agrees with SJA's.
        let sja = sja_optimal(&m);
        assert_eq!(next.cond, sja.spec.order[0]);
    }

    #[test]
    fn observed_sizes_flip_the_choice() {
        let m = model();
        let rest = [CondId(1), CondId(2)];
        // A tiny observed set → semijoins everywhere.
        let small = adaptive_next(&m, &rest, Some(3.0));
        assert!(small.choices.iter().all(|c| *c == SourceChoice::Semijoin));
        // A huge observed set (sjq = 1 + 0.1·500 = 51 > 10) → selections.
        let big = adaptive_next(&m, &rest, Some(500.0));
        assert!(big.choices.iter().all(|c| *c == SourceChoice::Selection));
    }

    #[test]
    fn single_condition_remainder() {
        let m = model();
        let next = adaptive_next(&m, &[CondId(2)], Some(10.0));
        assert_eq!(next.cond, CondId(2));
        assert_eq!(next.round_cost, next.remainder_cost);
        assert!(next.predicted_size > 0.0);
    }

    #[test]
    fn remainder_cost_covers_all_conditions() {
        let m = model();
        let all = [CondId(0), CondId(1), CondId(2)];
        let next = adaptive_next(&m, &all, None);
        assert!(next.remainder_cost >= next.round_cost);
        // Remainder ≈ SJA's total for this model (same search space when
        // starting fresh).
        let sja = sja_optimal(&m);
        assert!((next.remainder_cost.value() - sja.cost.value()).abs() < 1e-9);
    }
}
