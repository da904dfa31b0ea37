//! One owner of the memos (DESIGN §18): [`Memos`] holds the plan shapes
//! proved sound (here), the plans searched (`optimizer/plan_memo.rs`)
//! and the containment verdicts decided (`subsume.rs`), each behind the
//! one table shape [`SharedMemo`]. The front doors [`ensure_sound`],
//! [`sj_optimal`](crate::sj_optimal), [`sja_optimal`](crate::sja_optimal)
//! and `fusion_cache::subsumes` ask [`Memos::shared`], the process
//! default, so warm proofs and plans outlive a `serve` call.
//!
//! [`analyze_plan`](super::analyze_plan) is a pure function of the
//! plan's *shape* — its steps, `result`, `n_conditions`, `n_sources` and
//! the lengths of the two name tables, everything [`Plan::validate`] and
//! the abstract interpreter read. Only `Proved` is remembered: a refuted
//! plan is analyzed on every ask, so its refusal is rebuilt byte for
//! byte and never depends on what was asked before.

use super::analyze_validated;
use super::subsume::Verdicts;
use crate::optimizer::Plans;
use crate::plan::{Plan, Step};
use fusion_types::error::Result;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Proved shapes kept at most; the set is cleared when it would grow
/// past this.
pub const PROOF_MEMO_CAPACITY: usize = 4096;

/// A snapshot of one memo table's counters. `hits`, `misses` and
/// `resets` only grow; `entries` falls back to zero at a reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofMemoStats {
    /// Questions answered from the memo.
    pub hits: u64,
    /// Questions that ran the prover.
    pub misses: u64,
    /// Keys resident right now.
    pub entries: u64,
    /// Times the memo was cleared because it was full.
    pub resets: u64,
}

impl std::fmt::Display for ProofMemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {}, misses {}, entries {}, resets {}",
            self.hits, self.misses, self.entries, self.resets
        )
    }
}

/// The counters of one [`Memos`]' three tables. Its `Display` is one
/// line per table — the memo block `\cache` and `\serve` end with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Plan shapes proved sound ([`Memos::ensure_sound`]).
    pub proofs: ProofMemoStats,
    /// Containment verdicts ([`Memos::subsumes`]); `entries` counts
    /// verdicts.
    pub verdicts: ProofMemoStats,
    /// Plans searched ([`Memos::optimal`]).
    pub plans: ProofMemoStats,
}

impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan-proof memo: {}\ncontainment memo: {}\nplan memo: {}",
            self.proofs, self.verdicts, self.plans
        )
    }
}

/// The proved-shape, plan and containment-verdict memos, each bounded by
/// a constant and cleared when full. A value answers exactly what the
/// un-memoised prover or search would; only its counters depend on what
/// it was asked before.
#[derive(Default)]
pub struct Memos {
    proofs: SharedMemo<Proved>,
    pub(crate) verdicts: SharedMemo<Verdicts>,
    pub(crate) plans: SharedMemo<Plans>,
}

impl Memos {
    /// Three empty memos.
    pub fn new() -> Memos {
        Memos::default()
    }

    /// The process default every front door reads: built by the first
    /// question, never pre-warmed.
    pub fn shared() -> &'static Memos {
        static SHARED: std::sync::LazyLock<Memos> = std::sync::LazyLock::new(Memos::new);
        &SHARED
    }

    /// The three tables' counters now.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            proofs: self.proofs.stats(),
            verdicts: self.verdicts.stats(),
            plans: self.plans.stats(),
        }
    }

    /// The executors' guard: validates `plan`, then proves that it
    /// computes the fusion query — or recalls that a structurally equal
    /// plan was proved before. Same verdicts and same errors as
    /// [`analyze_plan`](super::analyze_plan) followed by
    /// [`Analysis::require_proved`](super::Analysis::require_proved),
    /// without the `Analysis`.
    ///
    /// # Errors
    /// Structural validation failure, or the refusal of a refuted plan.
    pub fn ensure_sound(&self, plan: &Plan) -> Result<()> {
        plan.validate()?;
        if self.proofs.get(plan).is_none() {
            analyze_validated(plan).require_proved()?;
            self.proofs.insert(plan, ());
        }
        Ok(())
    }
}

/// [`Memos::ensure_sound`] on [`Memos::shared`].
///
/// # Errors
/// As [`Memos::ensure_sound`].
pub fn ensure_sound(plan: &Plan) -> Result<()> {
    Memos::shared().ensure_sound(plan)
}

/// What a [`SharedMemo`] keeps: one pure function's answers, looked up
/// by a borrowed key.
pub(crate) trait Table: Default {
    type Key<'k>: Copy;
    type Value: Clone;
    /// The answer remembered for `key`.
    fn get(&self, key: Self::Key<'_>) -> Option<&Self::Value>;
    /// Remembers `value` for a `key` that is absent, in a table that is
    /// not full.
    fn insert(&mut self, key: Self::Key<'_>, value: Self::Value);
    /// Whether the entry for `key` would not fit.
    fn full(&self, key: Self::Key<'_>) -> bool;
    /// Entries resident.
    fn entries(&self) -> usize;
}

/// One memo table behind its lock, with its counters: the one copy of
/// read → count → compute → write → clear-when-full.
///
/// Readers share the lock, the memoised function runs with no lock held,
/// and two threads that miss on one key both compute it; the second
/// insert finds the first one's entry and adds nothing. A poisoned lock
/// is recovered with `into_inner`: a write is a clear (one assignment)
/// and one [`Table::insert`], and every insert stores what an entry
/// names before the entry (an interned predicate before the verdict
/// that names it, a shape whole), so a panic part-way leaves no entry
/// that was not computed. The counters are relaxed atomics: statistics
/// that publish nothing.
#[derive(Default)]
pub(crate) struct SharedMemo<T> {
    table: RwLock<T>,
    hits: AtomicU64,
    misses: AtomicU64,
    resets: AtomicU64,
}

impl<T: Table> SharedMemo<T> {
    /// The answer remembered for `key`, counting a hit or a miss.
    pub(crate) fn get(&self, key: T::Key<'_>) -> Option<T::Value> {
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        let found = table.get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Remembers what a miss computed, clearing the table first when it
    /// is full.
    pub(crate) fn insert(&self, key: T::Key<'_>, value: T::Value) {
        let mut table = self.table.write().unwrap_or_else(PoisonError::into_inner);
        if table.get(key).is_some() {
            return;
        }
        if table.full(key) {
            *table = T::default();
            self.resets.fetch_add(1, Ordering::Relaxed);
        }
        table.insert(key, value);
    }

    pub(crate) fn stats(&self) -> ProofMemoStats {
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        ProofMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: table.entries() as u64,
            resets: self.resets.load(Ordering::Relaxed),
        }
    }
}

/// A plan's shape: `result`, `n_conditions`, `n_sources` and the two
/// name tables' lengths, beside which the steps are kept.
fn dims(plan: &Plan) -> [usize; 5] {
    let (vars, rels) = (plan.var_names.len(), plan.rel_names.len());
    [plan.result.0, plan.n_conditions, plan.n_sources, vars, rels]
}

/// A proved plan's steps beside its [`dims`].
type Shape = (Vec<Step>, [usize; 5]);

/// Proved shapes bucketed by a hash of the borrowed plan, so a lookup
/// allocates nothing. A hash only picks the bucket: membership is a
/// structurally equal shape, never an equal hash.
#[derive(Default)]
struct Proved {
    hasher: RandomState,
    buckets: HashMap<u64, Vec<Shape>>,
    len: usize,
}

impl Proved {
    fn hash(&self, plan: &Plan) -> u64 {
        self.hasher.hash_one((&plan.steps, dims(plan)))
    }

    fn find(&self, hash: u64, plan: &Plan) -> bool {
        let want = dims(plan);
        self.buckets.get(&hash).is_some_and(|bucket| {
            bucket
                .iter()
                .any(|(steps, shape)| *shape == want && *steps == plan.steps)
        })
    }

    fn push(&mut self, hash: u64, plan: &Plan) {
        let shape = (plan.steps.clone(), dims(plan));
        self.buckets.entry(hash).or_default().push(shape);
        self.len += 1;
    }
}

impl Table for Proved {
    type Key<'k> = &'k Plan;
    type Value = ();

    fn get(&self, plan: &Plan) -> Option<&()> {
        self.find(self.hash(plan), plan).then_some(&())
    }

    fn insert(&mut self, plan: &Plan, (): ()) {
        self.push(self.hash(plan), plan);
    }

    fn full(&self, _: &Plan) -> bool {
        self.len >= PROOF_MEMO_CAPACITY
    }

    fn entries(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SimplePlanSpec;

    #[test]
    fn equal_hash_is_not_membership() {
        // Two different plans forced into one bucket: each is found only
        // by a plan that equals it field by field.
        let a = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let b = SimplePlanSpec::all_semijoin(2, 2).build(2).unwrap();
        let c = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        let mut set = Proved::default();
        assert!(!set.find(7, &a));
        set.push(7, &a);
        assert!(set.find(7, &a) && !set.find(7, &b) && !set.find(7, &c));
        set.push(7, &b);
        assert!(set.find(7, &a) && set.find(7, &b) && !set.find(7, &c));
        assert_eq!((set.len, set.buckets.len()), (2, 1));
        // Names are not part of the shape; a trailing variable is.
        let mut renamed = a.clone();
        renamed.var_names[0] = "RENAMED".into();
        assert!(set.find(7, &renamed));
        let mut wider = a.clone();
        wider.fresh_var("UNUSED");
        assert!(!set.find(7, &wider));
    }

    #[test]
    fn full_memo_clears_then_keeps_the_newcomer() {
        let memo = SharedMemo::<Proved>::default();
        let mut plan = SimplePlanSpec::filter(1, 1).build(1).unwrap();
        let mut plans = Vec::new();
        for _ in 0..=PROOF_MEMO_CAPACITY {
            plans.push(plan.clone());
            plan.fresh_var("PAD");
        }
        for plan in &plans {
            memo.insert(plan, ());
            // Inserting what is there already changes nothing.
            memo.insert(plan, ());
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.resets), (1, 1), "newcomer alone");
        assert!(memo.get(&plans[PROOF_MEMO_CAPACITY]).is_some());
        assert!(memo.get(&plans[0]).is_none());
    }
}
