//! The general cost model of §2.4 and its implementations.
//!
//! "We do not make any assumptions as to how the costs of source queries
//! are computed" — the optimizers are generic over [`CostModel`], which
//! exposes exactly the quantities the SJ/SJA algorithms consume:
//! `sq_cost(c_i, R_j)`, `sjq_cost(c_i, R_j, X)` (with the semijoin set
//! abstracted to its estimated cardinality), `lq_cost(R_j)` for the §4
//! postoptimizer, and the cardinality estimates needed to chain semijoin
//! set sizes across rounds.

mod calibrated;
mod feedback;
mod network;
mod table;

pub use calibrated::{calibrate, CalibratedCostModel};
pub use feedback::FeedbackCostModel;
pub use network::NetworkCostModel;
pub use table::TableCostModel;

use fusion_stats::union_estimate;
use fusion_types::{CondId, Cost, SourceId};

/// Cost and cardinality estimation interface consumed by the optimizers.
///
/// Implementations must satisfy the §2.4 axioms for the optimality results
/// to carry over:
///
/// * all costs are non-negative ([`Cost`] enforces this);
/// * `sjq_cost` is **sub-additive** in the semijoin set: splitting a set
///   never helps;
/// * local mediator operations are free (they never appear here);
/// * unsupported operations return [`Cost::INFINITE`].
///
/// Implementations should also keep `sjq_cost` **monotone** in
/// `est_items`; the SJA+ difference-pruning postoptimization (§4) is a
/// guaranteed improvement only under monotone models.
pub trait CostModel {
    /// Number of query conditions `m`.
    fn n_conditions(&self) -> usize;

    /// Number of sources `n`.
    fn n_sources(&self) -> usize;

    /// Estimated cost of the selection query `sq(c, R)`.
    fn sq_cost(&self, cond: CondId, source: SourceId) -> Cost;

    /// Estimated cost of the semijoin query `sjq(c, R, X)` for a semijoin
    /// set of `est_items` items (including emulation penalties, §2.3).
    fn sjq_cost(&self, cond: CondId, source: SourceId, est_items: f64) -> Cost;

    /// Estimated cost of loading the entire source (`lq(R)`, §4).
    fn lq_cost(&self, source: SourceId) -> Cost;

    /// Estimated cost of a Bloom-filter semijoin (extension): ship a
    /// `bits`-per-item filter of an `est_items`-item set, receive the
    /// qualifying items plus false positives. Models without Bloom
    /// support report infinity, which disables the rewrite.
    fn sjq_bloom_cost(&self, cond: CondId, source: SourceId, est_items: f64, bits: u8) -> Cost {
        let _ = (cond, source, est_items, bits);
        Cost::INFINITE
    }

    /// Estimated number of items `sq(c, R)` returns.
    fn est_sq_items(&self, cond: CondId, source: SourceId) -> f64;

    /// Estimated number of distinct items in the union of all sources.
    fn domain_size(&self) -> f64;

    /// Estimated `|⋃_j sq(c, R_j)|`: the size of the first round's result
    /// if `c` is processed first.
    fn est_condition_union(&self, cond: CondId) -> f64 {
        let per: Vec<f64> = (0..self.n_sources())
            .map(|j| self.est_sq_items(cond, SourceId(j)))
            .collect();
        union_estimate(&per, self.domain_size())
    }

    /// Global selectivity of a condition: the probability that a domain
    /// item satisfies `c` at some source. Drives the chaining
    /// `|X_i| = |X_{i-1}| · gsel(c_i)` under the independence assumption.
    fn gsel(&self, cond: CondId) -> f64 {
        let d = self.domain_size();
        if d <= 0.0 {
            return 0.0;
        }
        (self.est_condition_union(cond) / d).clamp(0.0, 1.0)
    }

    /// Per-source hit probability: the chance a domain item satisfies `c`
    /// *at source `j`* — the factor by which a semijoin at `j` shrinks its
    /// input.
    fn source_sel(&self, cond: CondId, source: SourceId) -> f64 {
        let d = self.domain_size();
        if d <= 0.0 {
            return 0.0;
        }
        (self.est_sq_items(cond, source) / d).clamp(0.0, 1.0)
    }

    /// Appends, as bit patterns, **every input this model's answers are a
    /// function of** and returns `true`; [`sj_optimal`] / [`sja_optimal`]
    /// then plan once per distinct key and answer a repeat from the plan
    /// table of [`Memos::shared`](crate::analyze::Memos::shared) (the
    /// memo adds the model's type, `m` and `n`).
    /// Two models of one type whose words are equal must answer every
    /// method alike, and the encoding must be unambiguous for a given
    /// `m × n`.
    ///
    /// The default states nothing and is never memoised. A decorator
    /// must not forward this to the model it wraps: what it adds
    /// (coverage, feedback, a distortion) is an input too.
    ///
    /// [`sj_optimal`]: crate::optimizer::sj_optimal
    /// [`sja_optimal`]: crate::optimizer::sja_optimal
    fn plan_key(&self, words: &mut Vec<u64>) -> bool {
        let _ = words;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal hand-rolled model to exercise the provided methods.
    struct Uniform {
        m: usize,
        n: usize,
        per_source: f64,
        domain: f64,
    }

    impl CostModel for Uniform {
        fn n_conditions(&self) -> usize {
            self.m
        }
        fn n_sources(&self) -> usize {
            self.n
        }
        fn sq_cost(&self, _: CondId, _: SourceId) -> Cost {
            Cost::new(1.0)
        }
        fn sjq_cost(&self, _: CondId, _: SourceId, est: f64) -> Cost {
            Cost::new(0.5 + 0.01 * est)
        }
        fn lq_cost(&self, _: SourceId) -> Cost {
            Cost::new(10.0)
        }
        fn est_sq_items(&self, _: CondId, _: SourceId) -> f64 {
            self.per_source
        }
        fn domain_size(&self) -> f64 {
            self.domain
        }
    }

    #[test]
    fn union_and_gsel_account_for_overlap() {
        let m = Uniform {
            m: 2,
            n: 2,
            per_source: 50.0,
            domain: 100.0,
        };
        assert!((m.est_condition_union(CondId(0)) - 75.0).abs() < 1e-9);
        assert!((m.gsel(CondId(0)) - 0.75).abs() < 1e-9);
        assert!((m.source_sel(CondId(0), SourceId(0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_domain_yields_zero_selectivity() {
        let m = Uniform {
            m: 1,
            n: 1,
            per_source: 5.0,
            domain: 0.0,
        };
        assert_eq!(m.gsel(CondId(0)), 0.0);
        assert_eq!(m.source_sel(CondId(0), SourceId(0)), 0.0);
    }
}
