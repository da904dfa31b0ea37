//! Response-time-aware plan selection (§6 future work).
//!
//! "One could also consider minimizing the *response time* of a query in
//! a parallel execution model. This is a future direction of work we plan
//! to undertake." This module implements that direction as a heuristic
//! variant of SJA:
//!
//! * the execution model matches the executor's scheduler
//!   (`fusion_exec::response_time` — `fusion-core` sits below
//!   the executor, so no intra-doc link): one queue per source, rounds
//!   coupled only through semijoin inputs — *selection* queries of any
//!   round may start immediately, semijoin queries must wait for the
//!   previous round's result;
//! * for every condition ordering, per-source choices greedily minimize
//!   each source's completion time (a selection may beat a cheaper
//!   semijoin because it overlaps with earlier rounds);
//! * the ordering with the smallest estimated makespan wins.
//!
//! Unlike total work, the makespan objective does not decompose per
//! source, so this is a heuristic rather than an exact optimum — the
//! trade the paper's own greedy variants make for tractability.

use super::perm::for_each_permutation;
use super::OptimizedPlan;
use crate::cost::CostModel;
use crate::plan::{SimplePlanSpec, SourceChoice};
use fusion_types::{CondId, Cost, SourceId};

/// The outcome of response-time optimization.
#[derive(Debug, Clone)]
pub struct ResponseOptimized {
    /// The chosen plan (with its estimated *total work* in `cost`).
    pub optimized: OptimizedPlan,
    /// Estimated response time (makespan) of the plan.
    pub est_response_time: f64,
}

/// Evaluates one ordering under the makespan objective, choosing
/// per-source strategies greedily by earliest completion.
fn response_ordering<M: CostModel>(
    model: &M,
    order: &[usize],
) -> (Vec<Vec<SourceChoice>>, Cost, f64, Vec<f64>) {
    let n = model.n_sources();
    let mut choices = Vec::with_capacity(order.len());
    let mut sizes = Vec::with_capacity(order.len());
    let mut source_free = vec![0.0f64; n];
    let mut total = Cost::ZERO;
    // Round 1: selections everywhere (per the plan grammar).
    let first = CondId(order[0]);
    let mut round_done = 0.0f64;
    for (j, free) in source_free.iter_mut().enumerate() {
        let c = model.sq_cost(first, SourceId(j));
        total += c;
        *free += c.value();
        round_done = round_done.max(*free);
    }
    choices.push(vec![SourceChoice::Selection; n]);
    let mut x_est = model.est_condition_union(first);
    sizes.push(x_est);
    let mut prev_avail = round_done;
    for &o in &order[1..] {
        let cond = CondId(o);
        let mut row = Vec::with_capacity(n);
        let mut this_round_done = 0.0f64;
        for (j, free) in source_free.iter_mut().enumerate() {
            let sq = model.sq_cost(cond, SourceId(j));
            let sjq = model.sjq_cost(cond, SourceId(j), x_est);
            // Selections start as soon as the source is free; semijoins
            // additionally wait for the previous round's result.
            let sel_finish = *free + sq.value();
            let semi_finish = free.max(prev_avail) + sjq.value();
            if sel_finish <= semi_finish {
                row.push(SourceChoice::Selection);
                total += sq;
                *free = sel_finish;
            } else {
                row.push(SourceChoice::Semijoin);
                total += sjq;
                *free = semi_finish;
            }
            this_round_done = this_round_done.max(*free);
        }
        choices.push(row);
        // The round result needs every per-source result plus the
        // previous round's set for the intersection.
        prev_avail = this_round_done.max(prev_avail);
        x_est *= model.gsel(cond);
        sizes.push(x_est);
    }
    (choices, total, prev_avail, sizes)
}

/// Estimates the makespan of an explicit condition-at-a-time spec under
/// the same schedule model the optimizer uses: per-source queues,
/// selections free to start immediately, semijoins gated on the previous
/// round's completion.
pub fn estimate_makespan<M: CostModel>(model: &M, spec: &SimplePlanSpec) -> f64 {
    let n = model.n_sources();
    let mut source_free = vec![0.0f64; n];
    let mut prev_avail = 0.0f64;
    let mut x_est = 0.0f64;
    for (r, cond) in spec.order.iter().enumerate() {
        let mut round_done = 0.0f64;
        for (j, free) in source_free.iter_mut().enumerate() {
            let finish = match spec.choices[r][j] {
                SourceChoice::Selection => *free + model.sq_cost(*cond, SourceId(j)).value(),
                SourceChoice::Semijoin => {
                    free.max(prev_avail) + model.sjq_cost(*cond, SourceId(j), x_est).value()
                }
            };
            *free = finish;
            round_done = round_done.max(finish);
        }
        prev_avail = round_done.max(prev_avail);
        x_est = if r == 0 {
            model.est_condition_union(*cond)
        } else {
            x_est * model.gsel(*cond)
        };
    }
    prev_avail
}

/// Finds a low-response-time semijoin-adaptive plan: enumerates condition
/// orderings, schedules each greedily, keeps the smallest makespan
/// (total work as tie-break).
///
/// # Panics
/// Panics if the model has no conditions.
pub fn sja_response_optimal<M: CostModel>(model: &M) -> ResponseOptimized {
    assert!(
        model.n_conditions() > 0,
        "a fusion query has at least one condition"
    );
    #[allow(clippy::type_complexity)] // order, choices, work, makespan, sizes
    let mut best: Option<(Vec<usize>, Vec<Vec<SourceChoice>>, Cost, f64, Vec<f64>)> = None;
    for_each_permutation(model.n_conditions(), |order| {
        let (choices, total, makespan, sizes) = response_ordering(model, order);
        let better = match &best {
            None => true,
            Some((_, _, btotal, bspan, _)) => {
                makespan < *bspan || (makespan == *bspan && total < *btotal)
            }
        };
        if better {
            best = Some((order.to_vec(), choices, total, makespan, sizes));
        }
    });
    let (order, choices, total, makespan, sizes) = best.expect("m >= 1");
    ResponseOptimized {
        optimized: OptimizedPlan::from_ordering(order, (choices, total, sizes), model.n_sources()),
        est_response_time: makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::optimizer::sja_optimal;

    fn model() -> TableCostModel {
        let mut m = TableCostModel::uniform(3, 4, 10.0, 1.0, 0.1, 1e9, 5.0, 1000.0);
        // One very slow source: its queries dominate the critical path.
        for c in 0..3 {
            m.set_sq_cost(CondId(c), SourceId(3), 40.0);
            m.set_sjq_cost(CondId(c), SourceId(3), 20.0, 0.1);
        }
        m
    }

    #[test]
    fn produces_valid_plans() {
        let rt = sja_response_optimal(&model());
        rt.optimized.plan.validate().unwrap();
        assert!(rt.est_response_time > 0.0);
        assert!(rt.optimized.cost.is_finite());
    }

    #[test]
    fn makespan_not_worse_than_work_optimal_plans() {
        // The RT optimizer's estimated makespan must be ≤ the makespan of
        // the work-optimal plan evaluated under the same schedule model.
        let m = model();
        let rt = sja_response_optimal(&m);
        let work = sja_optimal(&m);
        // Re-evaluate the work-optimal spec under the makespan model.
        let order: Vec<usize> = work.spec.order.iter().map(|c| c.0).collect();
        let (_, _, work_span, _) = response_ordering(&m, &order);
        assert!(
            rt.est_response_time <= work_span + 1e-9,
            "rt {} vs work-optimal's span {}",
            rt.est_response_time,
            work_span
        );
    }

    #[test]
    fn rt_plan_trades_work_for_latency_when_profitable() {
        // Make semijoins cheap in work but serializing: RT should prefer
        // selections at the slow source even though they cost more work.
        let m = model();
        let rt = sja_response_optimal(&m);
        let work = sja_optimal(&m);
        assert!(
            rt.optimized.cost >= work.cost,
            "RT plan can only trade work away"
        );
    }

    #[test]
    fn single_condition_is_parallel_selections() {
        let m = TableCostModel::uniform(1, 3, 7.0, 1.0, 0.1, 1e9, 5.0, 100.0);
        let rt = sja_response_optimal(&m);
        assert_eq!(rt.est_response_time, 7.0, "all three run in parallel");
        assert_eq!(rt.optimized.cost, Cost::new(21.0));
    }
}
