//! Cache-aware cost model: the optimizer's view of a warm cache.
//!
//! [`CacheSnapshot`] freezes which `(condition, source)` pairs the
//! cache can serve *right now* (and under which epochs), and
//! [`CachedCostModel`] decorates any base [`CostModel`] so warm
//! selections cost their local price — zero, by the paper's §2.4 axiom
//! that mediator-local work is free. Because every optimizer (FILTER,
//! SJ, SJA, greedy, SJA+) is generic over [`CostModel`], wrapping the
//! model is all it takes for plans to provably re-order around cached
//! answers; the PR-3 interval analysis stays sound because a served
//! hit's true cost is exactly zero transfer and zero source work.

use fusion_core::cost::CostModel;
use fusion_types::{CondId, Cost, SourceId};

/// A point-in-time view of cache coverage for one query's conditions.
#[derive(Debug, Clone)]
pub struct CacheSnapshot {
    /// `covered[i][j]` — condition `i` is servable from source `j`'s
    /// cached entries (exact or by subsumption).
    covered: Vec<Vec<bool>>,
    /// Source epochs at snapshot time, for staleness detection.
    epochs: Vec<u64>,
}

impl CacheSnapshot {
    /// Builds a snapshot from explicit coverage and epochs.
    pub fn new(covered: Vec<Vec<bool>>, epochs: Vec<u64>) -> CacheSnapshot {
        CacheSnapshot { covered, epochs }
    }

    /// True when `sq(cond, source)` would be served from cache.
    pub(crate) fn covers(&self, cond: CondId, source: SourceId) -> bool {
        self.covered
            .get(cond.0)
            .and_then(|row| row.get(source.0))
            .copied()
            .unwrap_or(false)
    }

    /// The coverage as a bit string, row by row: bit `k` of the string
    /// (word `k / 64`, bit `k % 64`) is the `k`-th pair in `covered`'s
    /// row-major order. It is all of the snapshot [`CachedCostModel`]
    /// reads, so among snapshots of one shape (one query's `m × n`)
    /// equal bits price every plan alike.
    pub fn coverage_bits(&self) -> Vec<u64> {
        let pairs = self.covered.iter().map(Vec::len).sum::<usize>();
        let mut words = vec![0u64; pairs.div_ceil(64)];
        for (k, &covered) in self.covered.iter().flatten().enumerate() {
            words[k / 64] |= u64::from(covered) << (k % 64);
        }
        words
    }

    /// True when at least one pair is covered.
    pub fn any_covered(&self) -> bool {
        self.covered.iter().flatten().any(|&b| b)
    }

    /// Source epochs at snapshot time.
    pub(crate) fn epochs(&self) -> &[u64] {
        &self.epochs
    }
}

/// A [`CostModel`] decorator pricing cache-covered selections at zero.
///
/// Only `sq_cost` is affected: semijoins and loads always go to the
/// source (the cache stores selection answers), and cardinality
/// estimates are unchanged — a cached answer has the same size as a
/// fresh one, so semijoin chaining stays correct.
#[derive(Debug)]
pub struct CachedCostModel<'a, M: CostModel + ?Sized> {
    inner: &'a M,
    snapshot: &'a CacheSnapshot,
}

impl<'a, M: CostModel + ?Sized> CachedCostModel<'a, M> {
    /// Decorates `inner` with the snapshot's coverage.
    pub fn new(inner: &'a M, snapshot: &'a CacheSnapshot) -> CachedCostModel<'a, M> {
        CachedCostModel { inner, snapshot }
    }
}

impl<M: CostModel + ?Sized> CostModel for CachedCostModel<'_, M> {
    fn n_conditions(&self) -> usize {
        self.inner.n_conditions()
    }

    fn n_sources(&self) -> usize {
        self.inner.n_sources()
    }

    fn sq_cost(&self, cond: CondId, source: SourceId) -> Cost {
        if self.snapshot.covers(cond, source) {
            Cost::ZERO
        } else {
            self.inner.sq_cost(cond, source)
        }
    }

    fn sjq_cost(&self, cond: CondId, source: SourceId, est_items: f64) -> Cost {
        self.inner.sjq_cost(cond, source, est_items)
    }

    fn lq_cost(&self, source: SourceId) -> Cost {
        self.inner.lq_cost(source)
    }

    fn sjq_bloom_cost(&self, cond: CondId, source: SourceId, est_items: f64, bits: u8) -> Cost {
        self.inner.sjq_bloom_cost(cond, source, est_items, bits)
    }

    fn est_sq_items(&self, cond: CondId, source: SourceId) -> f64 {
        self.inner.est_sq_items(cond, source)
    }

    fn domain_size(&self) -> f64 {
        self.inner.domain_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat;

    impl CostModel for Flat {
        fn n_conditions(&self) -> usize {
            2
        }
        fn n_sources(&self) -> usize {
            2
        }
        fn sq_cost(&self, _: CondId, _: SourceId) -> Cost {
            Cost::new(7.0)
        }
        fn sjq_cost(&self, _: CondId, _: SourceId, est: f64) -> Cost {
            Cost::new(1.0 + est)
        }
        fn lq_cost(&self, _: SourceId) -> Cost {
            Cost::new(100.0)
        }
        fn est_sq_items(&self, _: CondId, _: SourceId) -> f64 {
            10.0
        }
        fn domain_size(&self) -> f64 {
            40.0
        }
    }

    #[test]
    fn warm_pairs_cost_zero_everything_else_delegates() {
        let snap = CacheSnapshot::new(vec![vec![true, false], vec![false, false]], vec![0, 0]);
        let m = CachedCostModel::new(&Flat, &snap);
        assert_eq!(m.sq_cost(CondId(0), SourceId(0)), Cost::ZERO);
        assert_eq!(m.sq_cost(CondId(0), SourceId(1)), Cost::new(7.0));
        assert_eq!(m.sq_cost(CondId(1), SourceId(0)), Cost::new(7.0));
        assert_eq!(m.sjq_cost(CondId(0), SourceId(0), 5.0), Cost::new(6.0));
        assert_eq!(m.lq_cost(SourceId(0)), Cost::new(100.0));
        // Cardinality estimates are untouched: a hit is the same answer.
        assert_eq!(m.est_sq_items(CondId(0), SourceId(0)), 10.0);
        assert_eq!(m.domain_size(), 40.0);
        assert!(snap.any_covered());
    }

    #[test]
    fn cold_snapshot_is_transparent() {
        let snap = CacheSnapshot::new(vec![vec![false; 2]; 2], vec![0; 2]);
        let m = CachedCostModel::new(&Flat, &snap);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(m.sq_cost(CondId(i), SourceId(j)), Cost::new(7.0));
            }
        }
        assert!(!snap.any_covered());
        assert!(!snap.covers(CondId(5), SourceId(5)));
        assert_eq!(snap.coverage_bits(), vec![0]);
    }

    #[test]
    fn coverage_bits_number_pairs_row_by_row() {
        let bits = |covered: Vec<Vec<bool>>| CacheSnapshot::new(covered, vec![]).coverage_bits();
        assert_eq!(
            bits(vec![vec![true, false], vec![false, true]]),
            vec![0b1001]
        );
        assert_eq!(
            bits(vec![vec![false, true], vec![true, false]]),
            vec![0b0110]
        );
        // Past one word: 3 × 30 pairs, the last one set.
        let mut wide = vec![vec![false; 30]; 3];
        wide[2][29] = true;
        assert_eq!(bits(wide), vec![0, 1 << (89 - 64)]);
        assert_eq!(bits(vec![]), Vec::<u64>::new());
    }
}
