//! What a source can do, and what its work costs.

/// Operations a wrapper supports (§2.3).
///
/// "Some sources may not be able to support semijoin queries. In this
/// case, the mediator can emulate a semijoin query as a set of selection
/// queries" — each carrying passed bindings `c_i AND M = m`. Sources may
/// accept several bindings per request (`M IN (...)`), captured by
/// `binding_batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// The source evaluates `sjq(c, R, X)` in one native round trip.
    pub native_semijoin: bool,
    /// The source is willing to ship its entire relation (`lq`).
    pub full_load: bool,
    /// How many passed bindings fit in one emulated-semijoin request.
    /// Must be at least 1. Irrelevant when `native_semijoin` is set.
    pub binding_batch: usize,
    /// The source accepts passed-binding selections at all. When false
    /// *and* `native_semijoin` is false, semijoin queries are impossible
    /// and must be priced at infinity (§2.3).
    pub passed_bindings: bool,
    /// The source accepts Bloom-filter semijoin sets (hash-bit filters):
    /// it returns every qualifying item passing the filter, a superset of
    /// the exact semijoin the mediator re-intersects locally.
    pub bloom_semijoin: bool,
    /// The source can serve phase-two record fetches (`fetch`): given a
    /// set of surviving M-values, it ships the matching full records.
    /// When false, the source contributes to phase one only and the
    /// phase-two planner must cover its items elsewhere.
    pub record_fetch: bool,
    /// The source accepts a projection list on record fetches and ships
    /// only the requested attributes. When false (but `record_fetch` is
    /// set), every fetch ships full tuples and the mediator projects
    /// locally — correct, but priced at full-tuple wire bytes.
    pub projection: bool,
    /// How many M-values fit in one fetch request. Larger fetches are
    /// split into `⌈k / fetch_batch⌉` round trips, each paying its own
    /// envelope, latency, and per-query fee. Must be at least 1.
    pub fetch_batch: usize,
    /// Paid-per-query pricing tier, in thousandths of a cost unit
    /// charged per round trip (0 = free tier). Stored as an integer so
    /// `Capabilities` stays `Copy + Eq`; use [`Capabilities::query_fee`]
    /// for the cost-model value.
    pub fee_millis: u64,
}

impl Capabilities {
    /// A fully capable source.
    pub fn full() -> Capabilities {
        Capabilities {
            native_semijoin: true,
            full_load: true,
            binding_batch: usize::MAX,
            passed_bindings: true,
            bloom_semijoin: true,
            record_fetch: true,
            projection: true,
            fetch_batch: usize::MAX,
            fee_millis: 0,
        }
    }

    /// A source without native semijoin support that accepts batches of
    /// `batch` bindings per emulated probe.
    pub fn emulated(batch: usize) -> Capabilities {
        assert!(batch >= 1, "binding batch must be at least 1");
        Capabilities {
            native_semijoin: false,
            full_load: true,
            binding_batch: batch,
            passed_bindings: true,
            bloom_semijoin: false,
            record_fetch: true,
            projection: false,
            fetch_batch: batch,
            fee_millis: 0,
        }
    }

    /// A source that can only answer plain selection queries: no native
    /// semijoin, no passed bindings, no full load.
    pub fn selection_only() -> Capabilities {
        Capabilities {
            native_semijoin: false,
            full_load: false,
            binding_batch: 1,
            passed_bindings: false,
            bloom_semijoin: false,
            record_fetch: false,
            projection: false,
            fetch_batch: 1,
            fee_millis: 0,
        }
    }

    /// Returns a copy with record-fetch support toggled.
    pub fn with_fetch(mut self, fetch: bool) -> Capabilities {
        self.record_fetch = fetch;
        self
    }

    /// Returns a copy with fetch-projection support toggled.
    pub fn with_projection(mut self, projection: bool) -> Capabilities {
        self.projection = projection;
        self
    }

    /// Returns a copy with the fetch batch bound set.
    ///
    /// # Panics
    /// Panics when `batch` is zero.
    pub fn with_fetch_batch(mut self, batch: usize) -> Capabilities {
        assert!(batch >= 1, "fetch batch must be at least 1");
        self.fetch_batch = batch;
        self
    }

    /// Returns a copy with the paid-per-query pricing tier set, in
    /// thousandths of a cost unit per round trip.
    pub fn with_fee_millis(mut self, fee_millis: u64) -> Capabilities {
        self.fee_millis = fee_millis;
        self
    }

    /// The per-round-trip query fee in cost units.
    pub fn query_fee(&self) -> f64 {
        self.fee_millis as f64 / 1000.0
    }

    /// Number of fetch round trips needed to ship `k` M-values.
    pub fn fetch_batches_for(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            k.div_ceil(self.fetch_batch.max(1))
        }
    }
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities::full()
    }
}

/// Source-side processing cost parameters, in the same abstract units as
/// link costs.
///
/// The paper's cost model folds "the cost of actually processing the
/// queries at the sources" into each query's cost (§2.4); this profile is
/// that component: `fixed + per_tuple_examined·examined +
/// per_item_returned·returned`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessingProfile {
    /// Fixed query-processing cost (parsing, planning at the source).
    pub fixed: f64,
    /// Cost per tuple the source engine examines.
    pub per_tuple_examined: f64,
    /// Cost per item or tuple shipped back.
    pub per_item_returned: f64,
}

impl ProcessingProfile {
    /// Creates a profile.
    ///
    /// # Panics
    /// Panics on negative or non-finite parameters.
    pub(crate) fn new(fixed: f64, per_tuple_examined: f64, per_item_returned: f64) -> Self {
        for (name, v) in [
            ("fixed", fixed),
            ("per_tuple_examined", per_tuple_examined),
            ("per_item_returned", per_item_returned),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be finite and >= 0");
        }
        ProcessingProfile {
            fixed,
            per_tuple_examined,
            per_item_returned,
        }
    }

    /// A free processing profile (communication-only cost model).
    pub fn free() -> Self {
        ProcessingProfile::new(0.0, 0.0, 0.0)
    }

    /// A typical indexed database: cheap per-tuple work.
    pub fn indexed_db() -> Self {
        ProcessingProfile::new(0.005, 2e-6, 1e-6)
    }

    /// A scan-bound legacy system: expensive per-tuple work.
    pub fn scan_bound() -> Self {
        ProcessingProfile::new(0.020, 5e-5, 2e-6)
    }

    /// Processing cost of a query that examined `examined` tuples and
    /// returned `returned` results.
    pub fn cost(&self, examined: usize, returned: usize) -> f64 {
        self.fixed
            + self.per_tuple_examined * examined as f64
            + self.per_item_returned * returned as f64
    }
}

impl Default for ProcessingProfile {
    fn default() -> Self {
        ProcessingProfile::indexed_db()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_constructors() {
        let f = Capabilities::full();
        assert!(f.native_semijoin && f.full_load);
        let e = Capabilities::emulated(10);
        assert!(!e.native_semijoin && e.passed_bindings);
        let s = Capabilities::selection_only();
        assert!(!s.native_semijoin && !s.passed_bindings);
        assert!(!s.full_load);
        assert!(f.record_fetch && f.projection);
        assert!(e.record_fetch && !e.projection);
        assert!(!s.record_fetch);
        assert_eq!(f.fee_millis, 0);
    }

    #[test]
    fn fetch_builders_and_fee() {
        let c = Capabilities::full()
            .with_fetch(false)
            .with_projection(false)
            .with_fee_millis(2500);
        assert!(!c.record_fetch && !c.projection);
        assert!((c.query_fee() - 2.5).abs() < 1e-12);
        let b = Capabilities::full().with_fetch_batch(10);
        assert_eq!(b.fetch_batches_for(0), 0);
        assert_eq!(b.fetch_batches_for(10), 1);
        assert_eq!(b.fetch_batches_for(11), 2);
        assert_eq!(Capabilities::full().fetch_batches_for(1 << 20), 1);
    }

    #[test]
    #[should_panic(expected = "fetch batch must be at least 1")]
    fn zero_fetch_batch_rejected() {
        let _ = Capabilities::full().with_fetch_batch(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_rejected() {
        let _ = Capabilities::emulated(0);
    }

    #[test]
    fn processing_cost_formula() {
        let p = ProcessingProfile::new(1.0, 0.1, 0.01);
        assert!((p.cost(10, 5) - (1.0 + 1.0 + 0.05)).abs() < 1e-12);
        assert_eq!(ProcessingProfile::free().cost(1000, 1000), 0.0);
    }

    #[test]
    #[should_panic(expected = "fixed")]
    fn negative_processing_cost_rejected() {
        let _ = ProcessingProfile::new(-1.0, 0.0, 0.0);
    }
}
