//! A cost model recalibrated by observed cardinalities.
//!
//! [`FeedbackCostModel`] wraps any [`CostModel`] and overrides
//! `est_sq_items` wherever the executor has observed the true value
//! (an exact selection count or a sampled semijoin selectivity,
//! [`fusion_stats::CardinalityFeedback`]). Because `est_condition_union`,
//! `gsel`, and `source_sel` are derived from `est_sq_items` by the trait's
//! default methods, every downstream estimate the optimizers consume is
//! consistently recalibrated by overriding this single point. Costs
//! (`sq_cost`/`sjq_cost`/`lq_cost`) pass through untouched: observing a
//! cardinality says nothing new about a source's pricing function.

use super::CostModel;
use fusion_stats::CardinalityFeedback;
use fusion_types::{CondId, Cost, SourceId};

/// A [`CostModel`] whose cardinality estimates defer to runtime
/// observations where available.
#[derive(Debug, Clone)]
pub struct FeedbackCostModel<'a, M: CostModel + ?Sized> {
    inner: &'a M,
    feedback: &'a CardinalityFeedback,
}

impl<'a, M: CostModel + ?Sized> FeedbackCostModel<'a, M> {
    /// Wraps `inner`, overriding cells `feedback` has observed.
    ///
    /// # Panics
    /// If the feedback table's shape does not match the model's.
    pub fn new(inner: &'a M, feedback: &'a CardinalityFeedback) -> FeedbackCostModel<'a, M> {
        assert!(
            feedback.n_conditions() == inner.n_conditions()
                && feedback.n_sources() == inner.n_sources(),
            "feedback shape {}×{} does not match model {}×{}",
            feedback.n_conditions(),
            feedback.n_sources(),
            inner.n_conditions(),
            inner.n_sources(),
        );
        FeedbackCostModel { inner, feedback }
    }
}

impl<M: CostModel + ?Sized> CostModel for FeedbackCostModel<'_, M> {
    fn n_conditions(&self) -> usize {
        self.inner.n_conditions()
    }

    fn n_sources(&self) -> usize {
        self.inner.n_sources()
    }

    fn sq_cost(&self, cond: CondId, source: SourceId) -> Cost {
        self.inner.sq_cost(cond, source)
    }

    fn sjq_cost(&self, cond: CondId, source: SourceId, est_items: f64) -> Cost {
        self.inner.sjq_cost(cond, source, est_items)
    }

    fn sjq_bloom_cost(&self, cond: CondId, source: SourceId, est_items: f64, bits: u8) -> Cost {
        self.inner.sjq_bloom_cost(cond, source, est_items, bits)
    }

    fn lq_cost(&self, source: SourceId) -> Cost {
        self.inner.lq_cost(source)
    }

    fn est_sq_items(&self, cond: CondId, source: SourceId) -> f64 {
        self.feedback
            .est_items(cond, source, self.inner.domain_size())
            .unwrap_or_else(|| self.inner.est_sq_items(cond, source))
    }

    fn domain_size(&self) -> f64 {
        self.inner.domain_size()
    }
}

#[cfg(test)]
mod tests {
    use super::super::TableCostModel;
    use super::*;

    #[test]
    fn observed_cells_override_estimates_and_derivations_follow() {
        let mut base = TableCostModel::uniform(2, 2, 5.0, 1.0, 0.5, 100.0, 50.0, 100.0);
        base.set_est_sq_items(CondId(0), SourceId(0), 50.0);
        base.set_est_sq_items(CondId(0), SourceId(1), 50.0);
        let mut fb = CardinalityFeedback::new(2, 2);
        fb.record_exact(CondId(0), SourceId(0), 10.0);
        fb.record_semijoin(CondId(0), SourceId(1), 1.0, 5.0); // sel 0.2 → 20 items
        let m = FeedbackCostModel::new(&base, &fb);
        assert_eq!(m.est_sq_items(CondId(0), SourceId(0)), 10.0);
        assert_eq!(m.est_sq_items(CondId(0), SourceId(1)), 20.0);
        // Unobserved cells keep the static estimate.
        assert_eq!(m.est_sq_items(CondId(1), SourceId(0)), 50.0);
        // Derived quantities use the overridden cells: the union estimate
        // must now be strictly below the static model's.
        assert!(m.est_condition_union(CondId(0)) < base.est_condition_union(CondId(0)));
        assert!(m.gsel(CondId(0)) < base.gsel(CondId(0)));
        // Costs pass through untouched.
        assert_eq!(
            m.sq_cost(CondId(0), SourceId(0)),
            base.sq_cost(CondId(0), SourceId(0))
        );
        assert_eq!(
            m.sjq_cost(CondId(0), SourceId(1), 7.0),
            base.sjq_cost(CondId(0), SourceId(1), 7.0)
        );
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn shape_mismatch_is_rejected() {
        let base = TableCostModel::uniform(2, 2, 1.0, 1.0, 0.1, 10.0, 1.0, 10.0);
        let fb = CardinalityFeedback::new(3, 2);
        let _ = FeedbackCostModel::new(&base, &fb);
    }
}
