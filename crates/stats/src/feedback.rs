//! Per-`(condition, source)` cardinality feedback from executed queries.
//!
//! The static estimates a cost model starts from (`est_sq_items`) come
//! from histograms or guesses; every executed query then *observes* the
//! true quantities. A selection `sq(c_i, R_j)` reveals `|sq(c_i, R_j)|`
//! exactly; a semijoin `sjq(c_i, R_j, X)` reveals the hit rate
//! `|out| / |X|` over the shipped binding set — an unbiased sample of the
//! per-source selectivity. [`CardinalityFeedback`] accumulates both kinds
//! keyed by `(condition, source)` — the same key the answer cache uses —
//! so the runtime re-optimizer can replace stale estimates with observed
//! ones before re-searching the remaining plan space.
//!
//! Exact counts always dominate selectivity samples: once a selection has
//! been observed for a cell, later semijoin ratios refine nothing the
//! count did not already pin down.

use fusion_types::{CondId, Condition, SourceId};
use std::collections::HashMap;

/// One calibrated belief about `|sq(c_i, R_j)|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CardObservation {
    /// A full selection ran; the answer cardinality was counted.
    Exact(f64),
    /// A semijoin probe ran; `matched / shipped` over the binding set.
    Selectivity(f64),
}

impl CardObservation {
    /// The implied `|sq(c, R)|` estimate in a `domain`-item universe.
    pub(crate) fn est_items(&self, domain: f64) -> f64 {
        match *self {
            CardObservation::Exact(v) => v,
            CardObservation::Selectivity(s) => (s * domain).clamp(0.0, domain.max(0.0)),
        }
    }
}

/// Observed cardinality calibration, keyed by `(condition, source)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CardinalityFeedback {
    m: usize,
    n: usize,
    cells: Vec<Option<CardObservation>>,
}

impl CardinalityFeedback {
    /// An empty feedback table for `m` conditions over `n` sources.
    pub fn new(m: usize, n: usize) -> CardinalityFeedback {
        CardinalityFeedback {
            m,
            n,
            cells: vec![None; m * n],
        }
    }

    /// Number of conditions.
    pub fn n_conditions(&self) -> usize {
        self.m
    }

    /// Number of sources.
    pub fn n_sources(&self) -> usize {
        self.n
    }

    fn idx(&self, cond: CondId, source: SourceId) -> usize {
        assert!(
            cond.0 < self.m && source.0 < self.n,
            "feedback key out of range"
        );
        cond.0 * self.n + source.0
    }

    /// Records one observation: an exact count always lands (newer
    /// exact beats older — sources drift), a selectivity sample never
    /// displaces an exact count.
    pub fn record(&mut self, cond: CondId, source: SourceId, obs: CardObservation) {
        let i = self.idx(cond, source);
        match (self.cells[i], obs) {
            (Some(CardObservation::Exact(_)), CardObservation::Selectivity(_)) => {}
            _ => self.cells[i] = Some(obs),
        }
    }

    /// Records an exactly counted selection result. Overrides any prior
    /// observation for the cell (exact beats sampled, newer exact beats
    /// older exact — sources drift).
    pub fn record_exact(&mut self, cond: CondId, source: SourceId, items: f64) {
        self.record(cond, source, CardObservation::Exact(items.max(0.0)));
    }

    /// Records a semijoin probe: `out_items` survivors of an
    /// `input_items`-item binding set. Ignored when the probe shipped
    /// nothing (no information) or when an exact count is already known.
    pub fn record_semijoin(
        &mut self,
        cond: CondId,
        source: SourceId,
        out_items: f64,
        input_items: f64,
    ) {
        if input_items <= 0.0 {
            return;
        }
        let sel = (out_items / input_items).clamp(0.0, 1.0);
        self.record(cond, source, CardObservation::Selectivity(sel));
    }

    /// The current belief for a cell, if anything has been observed.
    pub fn observed(&self, cond: CondId, source: SourceId) -> Option<CardObservation> {
        self.cells[self.idx(cond, source)]
    }

    /// The implied `|sq(c, R)|` for a cell, or `None` if unobserved.
    pub fn est_items(&self, cond: CondId, source: SourceId, domain: f64) -> Option<f64> {
        self.observed(cond, source).map(|o| o.est_items(domain))
    }

    /// Number of cells with at least one observation.
    pub fn observed_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.observed_cells() == 0
    }
}

/// Cross-query cardinality feedback, keyed by the *semantic*
/// `(condition, source)` pair rather than a query's positional
/// [`CondId`]. A multi-tenant mediator serves many query shapes; what
/// one tenant's query observed about `sq(V='dui', R_2)` calibrates any
/// later query carrying that same condition, whatever position it holds
/// there. [`ConditionFeedback::project`] slices the store down to one
/// query's positional [`CardinalityFeedback`] at admission time.
#[derive(Debug, Clone, Default)]
pub struct ConditionFeedback {
    cells: HashMap<(Condition, SourceId), CardObservation>,
}

impl ConditionFeedback {
    /// An empty cross-query feedback store.
    pub fn new() -> ConditionFeedback {
        ConditionFeedback::default()
    }

    /// Records one observation under the same dominance rule as
    /// [`CardinalityFeedback`]: an exact count always lands (newer
    /// exact beats older — sources drift), a selectivity sample never
    /// displaces an exact count.
    pub fn record(&mut self, cond: &Condition, source: SourceId, obs: CardObservation) {
        let key = (cond.clone(), source);
        match (self.cells.get(&key), obs) {
            (Some(CardObservation::Exact(_)), CardObservation::Selectivity(_)) => {}
            _ => {
                self.cells.insert(key, obs);
            }
        }
    }

    /// Projects the store onto one query's positional table: cell
    /// `(i, j)` holds the observation recorded for
    /// `(conditions[i], R_j)`, if any.
    pub fn project(&self, conditions: &[Condition], n_sources: usize) -> CardinalityFeedback {
        let mut out = CardinalityFeedback::new(conditions.len(), n_sources);
        for (i, cond) in conditions.iter().enumerate() {
            for j in 0..n_sources {
                if let Some(obs) = self.cells.get(&(cond.clone(), SourceId(j))) {
                    match obs {
                        CardObservation::Exact(v) => out.record_exact(CondId(i), SourceId(j), *v),
                        CardObservation::Selectivity(s) => {
                            // Reconstruct a 1-item probe with the observed
                            // rate; the positional table stores the ratio.
                            out.record_semijoin(CondId(i), SourceId(j), *s, 1.0);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_beats_selectivity() {
        let mut fb = CardinalityFeedback::new(2, 2);
        assert!(fb.is_empty());
        fb.record_semijoin(CondId(0), SourceId(1), 3.0, 10.0);
        assert_eq!(
            fb.observed(CondId(0), SourceId(1)),
            Some(CardObservation::Selectivity(0.3))
        );
        fb.record_exact(CondId(0), SourceId(1), 7.0);
        // A later probe cannot displace the exact count.
        fb.record_semijoin(CondId(0), SourceId(1), 1.0, 10.0);
        assert_eq!(
            fb.observed(CondId(0), SourceId(1)),
            Some(CardObservation::Exact(7.0))
        );
        assert_eq!(fb.observed_cells(), 1);
    }

    #[test]
    fn empty_probe_carries_no_information() {
        let mut fb = CardinalityFeedback::new(1, 1);
        fb.record_semijoin(CondId(0), SourceId(0), 0.0, 0.0);
        assert!(fb.is_empty());
    }

    #[test]
    fn est_items_scales_selectivity_by_domain() {
        let mut fb = CardinalityFeedback::new(1, 2);
        fb.record_exact(CondId(0), SourceId(0), 4.0);
        fb.record_semijoin(CondId(0), SourceId(1), 5.0, 20.0);
        assert_eq!(fb.est_items(CondId(0), SourceId(0), 100.0), Some(4.0));
        assert_eq!(fb.est_items(CondId(0), SourceId(1), 100.0), Some(25.0));
        assert_eq!(fb.est_items(CondId(0), SourceId(1), 4.0), Some(1.0));
    }

    #[test]
    fn condition_feedback_projects_by_semantic_key() {
        use fusion_types::Predicate;
        let dui: Condition = Predicate::eq("V", "dui").into();
        let sp: Condition = Predicate::eq("V", "sp").into();
        let mut fb = ConditionFeedback::new();
        assert!(fb.project(&[dui.clone(), sp.clone()], 2).is_empty());
        fb.record(&dui, SourceId(0), CardObservation::Exact(2.0));
        fb.record(&sp, SourceId(1), CardObservation::Selectivity(0.25));
        assert_eq!(
            fb.project(&[dui.clone(), sp.clone()], 2).observed_cells(),
            2
        );
        // A query carrying the same conditions in the *opposite* order
        // still gets the right cells.
        let table = fb.project(&[sp.clone(), dui.clone()], 2);
        assert_eq!(
            table.observed(CondId(1), SourceId(0)),
            Some(CardObservation::Exact(2.0))
        );
        assert_eq!(
            table.observed(CondId(0), SourceId(1)),
            Some(CardObservation::Selectivity(0.25))
        );
        assert_eq!(table.observed(CondId(0), SourceId(0)), None);
        // A query with an unseen condition projects to an empty row.
        let other: Condition = Predicate::eq("V", "none").into();
        assert!(fb.project(&[other], 2).is_empty());
    }

    #[test]
    fn condition_feedback_exact_dominance() {
        use fusion_types::Predicate;
        let dui: Condition = Predicate::eq("V", "dui").into();
        let mut fb = ConditionFeedback::new();
        fb.record(&dui, SourceId(0), CardObservation::Exact(5.0));
        fb.record(&dui, SourceId(0), CardObservation::Selectivity(0.9));
        assert_eq!(
            fb.project(&[dui.clone()], 1)
                .observed(CondId(0), SourceId(0)),
            Some(CardObservation::Exact(5.0))
        );
        fb.record(&dui, SourceId(0), CardObservation::Exact(3.0));
        assert_eq!(
            fb.project(&[dui.clone()], 1)
                .observed(CondId(0), SourceId(0)),
            Some(CardObservation::Exact(3.0))
        );
    }
}
