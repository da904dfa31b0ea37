//! A budgeted, resumable memo over suffix plan-space searches.
//!
//! Mid-flight re-optimization cannot afford a full `m!` search at every
//! stage boundary, and the same suffix sub-problems recur across repeated
//! queries (the workloads the answer cache was built for). Following the
//! optd-style budgeted-exploration idea, [`ReoptMemo`] keys each suffix
//! search by *which conditions remain* (a bitmask) and the observed
//! running-set size (a coarse log-scale bucket) and stores the crate's
//! one ordering search ([`super::search`]) **suspended**: its path and
//! the best complete ordering found so far. Each invocation
//! spends a bounded number of node expansions and then suspends; the next
//! invocation with the same key *resumes exactly where the last stopped*,
//! so the factorial search is amortized across stage boundaries and
//! across queries.
//!
//! Only *structure* is memoized, never a cost: every invocation re-prices
//! the stored state under the **current** (feedback-recalibrated) model,
//! and an *exhausted* entry is exact for the model it finished under
//! (`SearchState` has the fine print).

use super::search::{RoundRule, SearchState};
use crate::cost::CostModel;
use crate::plan::SourceChoice;
use fusion_types::Cost;
use std::collections::HashMap;

/// A suffix search key: the set of unplaced conditions and the coarse
/// magnitude of the running set feeding them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Bit `i` set ⇔ condition `i` is still unplaced.
    pub mask: u64,
    /// `⌊4·log₂(1 + x₀)⌋`: quarter-octave buckets, so running sets of
    /// similar magnitude share a search while order-of-magnitude changes
    /// (which flip sq/sjq choices) get their own.
    pub x_bucket: u32,
}

impl MemoKey {
    /// Builds the key for a suffix over `remaining` condition indices
    /// with observed running-set size `x0`.
    ///
    /// # Panics
    /// Panics if a condition index is ≥ 64 (the mask is a `u64`; the
    /// paper's regime is "the number of conditions ... is usually small").
    pub fn new(remaining: &[usize], x0: f64) -> MemoKey {
        let mut mask = 0u64;
        for &c in remaining {
            assert!(c < 64, "memo supports at most 64 conditions, got index {c}");
            mask |= 1u64 << c;
        }
        let x_bucket = (4.0 * (1.0 + x0.max(0.0)).log2()).floor() as u32;
        MemoKey { mask, x_bucket }
    }
}

/// Counters accumulated across a memo's lifetime, for the E23 bench and
/// the `\reopt` CLI verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Search invocations answered.
    pub invocations: usize,
    /// Invocations that found an existing entry to resume.
    pub resumed: usize,
    /// Invocations answered by an already-exhausted entry (no search work
    /// at all — the amortization payoff).
    pub exhausted_hits: usize,
    /// Total node expansions spent.
    pub expansions: usize,
}

/// The re-priced answer of one memo invocation.
#[derive(Debug, Clone)]
pub struct SuffixPlan {
    /// Suffix condition order (indices into the query's conditions).
    pub order: Vec<usize>,
    /// Per-round, per-source choices for the suffix.
    pub choices: Vec<Vec<SourceChoice>>,
    /// Suffix cost under the model the search was invoked with.
    pub cost: Cost,
    /// Estimated `|X|` after each suffix round.
    pub sizes: Vec<f64>,
    /// True when the suffix space is fully drained for this key.
    pub exhausted: bool,
    /// Node expansions spent by *this* invocation.
    pub spent: usize,
}

/// A persistent, budgeted memo of suffix plan-space searches.
#[derive(Debug, Clone)]
pub struct ReoptMemo {
    entries: HashMap<MemoKey, SearchState>,
    budget: usize,
    stats: MemoStats,
}

impl ReoptMemo {
    /// A memo spending at most `budget` node expansions per invocation.
    /// A budget of 0 degenerates to "always return the re-priced
    /// incumbent (or the ascending seed)".
    pub fn new(budget: usize) -> ReoptMemo {
        ReoptMemo {
            entries: HashMap::new(),
            budget,
            stats: MemoStats::default(),
        }
    }

    /// The per-invocation expansion budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of distinct suffix sub-problems seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no search has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Searches (or resumes searching) the best SJA suffix over
    /// `remaining` conditions fed by an observed running set of `x0`
    /// items, spending at most the configured budget, and returns the
    /// incumbent priced under `model`. Deterministic given (memo state,
    /// model, arguments): it is the offline optimizers' search.
    ///
    /// # Panics
    /// Panics if `remaining` is empty, holds duplicates, or names a
    /// condition the model does not have.
    pub fn search<M: CostModel>(&mut self, model: &M, remaining: &[usize], x0: f64) -> SuffixPlan {
        assert!(!remaining.is_empty(), "nothing to re-optimize");
        let m = model.n_conditions();
        assert!(
            remaining.iter().all(|&c| c < m),
            "suffix names a condition outside the model"
        );
        let key = MemoKey::new(remaining, x0);
        assert_eq!(
            key.mask.count_ones() as usize,
            remaining.len(),
            "suffix holds duplicate conditions"
        );
        let mut cands: Vec<usize> = remaining.to_vec();
        cands.sort_unstable();
        self.stats.invocations += 1;
        if let Some(state) = self.entries.get(&key) {
            self.stats.resumed += 1;
            self.stats.exhausted_hits += usize::from(state.exhausted());
        }
        // A fresh search starts from the ascending ordering, so pruning
        // has an incumbent from the first expansion.
        let state = (self.entries.entry(key)).or_insert_with(|| SearchState::new(cands.clone()));
        let ((choices, cost, sizes), run) =
            state.run(model, RoundRule::PerSource, &cands, Some(x0), self.budget);
        self.stats.expansions += run.prefixes_explored;
        SuffixPlan {
            order: state.best.clone(),
            choices,
            cost,
            sizes,
            exhausted: state.exhausted(),
            spent: run.prefixes_explored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::optimizer::reference_enumeration;
    use crate::optimizer::search::price_ordering;
    use fusion_stats::SplitMix64;
    use fusion_types::{CondId, SourceId};

    fn random_model(m: usize, n: usize, seed: u64) -> TableCostModel {
        let mut rng = SplitMix64::new(seed);
        let mut model = TableCostModel::uniform(m, n, 1.0, 1.0, 0.1, 1e6, 1.0, 300.0);
        for i in 0..m {
            for j in 0..n {
                model.set_sq_cost(CondId(i), SourceId(j), 1.0 + 99.0 * rng.next_f64());
                model.set_sjq_cost(
                    CondId(i),
                    SourceId(j),
                    0.5 + 30.0 * rng.next_f64(),
                    2.0 * rng.next_f64(),
                );
                model.set_est_sq_items(CondId(i), SourceId(j), 1.0 + 80.0 * rng.next_f64());
            }
        }
        model
    }

    #[test]
    fn exhausted_search_matches_brute_force() {
        let rule = RoundRule::PerSource;
        for seed in 0..20u64 {
            for m in 2..=5 {
                let model = random_model(m, 3, 51_000 + seed);
                let remaining: Vec<usize> = (0..m).collect();
                let x0 = 10.0 + seed as f64;
                let mut memo = ReoptMemo::new(100_000);
                let got = memo.search(&model, &remaining, x0);
                assert!(got.exhausted, "seed {seed} m {m}");
                let want = reference_enumeration(&model, rule, &remaining, Some(x0));
                assert_eq!(got.order, want.order, "seed {seed} m {m}");
                assert_eq!(got.cost, want.cost, "seed {seed} m {m}");
            }
        }
    }

    #[test]
    fn budgeted_resume_reaches_the_same_answer() {
        for seed in 0..10u64 {
            let model = random_model(5, 3, 77_000 + seed);
            let remaining = [0usize, 1, 2, 3, 4];
            let x0 = 25.0;
            let mut one_shot = ReoptMemo::new(1_000_000);
            let want = one_shot.search(&model, &remaining, x0);
            assert!(want.exhausted);

            // Drip-feed the same search 3 expansions at a time.
            let mut dripped = ReoptMemo::new(3);
            let mut got = dripped.search(&model, &remaining, x0);
            let mut rounds = 1;
            while !got.exhausted {
                got = dripped.search(&model, &remaining, x0);
                rounds += 1;
                assert!(rounds < 10_000, "search failed to drain");
            }
            assert_eq!(got.order, want.order, "seed {seed}");
            assert_eq!(got.cost, want.cost, "seed {seed}");
            assert!(rounds > 1, "budget 3 must need multiple invocations");
            let stats = dripped.stats();
            assert_eq!(stats.invocations, rounds);
            assert_eq!(stats.resumed, rounds - 1);
        }
    }

    #[test]
    fn exhausted_entries_answer_for_free() {
        let model = random_model(4, 3, 9);
        let remaining = [0usize, 1, 2, 3];
        let mut memo = ReoptMemo::new(1_000_000);
        let first = memo.search(&model, &remaining, 12.0);
        assert!(first.exhausted && first.spent > 0);
        let again = memo.search(&model, &remaining, 12.0);
        assert_eq!(again.spent, 0, "exhausted entry must not re-search");
        assert_eq!(again.order, first.order);
        assert_eq!(memo.stats().exhausted_hits, 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn distinct_x_magnitudes_get_distinct_entries() {
        let model = random_model(3, 2, 4);
        let mut memo = ReoptMemo::new(1_000_000);
        memo.search(&model, &[0, 1, 2], 2.0);
        memo.search(&model, &[0, 1, 2], 2000.0);
        assert_eq!(memo.len(), 2);
        // Same magnitude lands in the same bucket.
        memo.search(&model, &[0, 1, 2], 2.01);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn repricing_follows_model_drift() {
        // Exhaust the search under model A, then query the same key under
        // model B with very different costs: the returned *cost* must be
        // B's pricing of the stored ordering, never A's stale number.
        let a = random_model(3, 2, 1);
        let mut b = random_model(3, 2, 1);
        for i in 0..3 {
            for j in 0..2 {
                b.set_sq_cost(CondId(i), SourceId(j), 1000.0);
            }
        }
        let mut memo = ReoptMemo::new(1_000_000);
        let under_a = memo.search(&a, &[0, 1, 2], 8.0);
        let under_b = memo.search(&b, &[0, 1, 2], 8.0);
        assert_eq!(under_a.order.len(), under_b.order.len());
        let repriced = price_ordering(&b, RoundRule::PerSource, &under_b.order, Some(8.0)).1;
        assert_eq!(under_b.cost, repriced);
        assert!(under_b.cost.value() > under_a.cost.value());
    }

    #[test]
    fn zero_budget_returns_the_seed() {
        let model = random_model(4, 2, 2);
        let mut memo = ReoptMemo::new(0);
        let got = memo.search(&model, &[2, 0, 3], 5.0);
        assert_eq!(got.order, vec![0, 2, 3]);
        assert_eq!(got.spent, 0);
        assert!(!got.exhausted);
    }

    #[test]
    #[should_panic(expected = "nothing to re-optimize")]
    fn empty_suffix_is_rejected() {
        let model = random_model(2, 2, 3);
        ReoptMemo::new(8).search(&model, &[], 1.0);
    }
}
