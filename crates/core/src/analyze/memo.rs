//! Process-wide memo of proved plan shapes behind [`ensure_sound`].
//!
//! [`analyze_plan`](super::analyze_plan) is a pure function of the
//! plan's *shape* — `steps`, `result`, `n_conditions`, `n_sources` and
//! the lengths of the two name tables; that is everything
//! [`Plan::validate`] and the abstract interpreter read (names only
//! colour error text and listings). Executors that want the verdict and
//! nothing else therefore ask [`ensure_sound`], which runs the BDD proof
//! once per distinct shape and afterwards answers from a bounded set of
//! shapes already proved.
//!
//! Only `Proved` is remembered. A refuted plan is analyzed again every
//! time, so its refusal — counterexample included — is rebuilt byte for
//! byte and never depends on what was asked before.
//!
//! The table itself — [`SharedMemo`]: buckets, lock, capacity, counters —
//! is generic, and the optimizers' plan memo is its second instance.

use super::analyze_validated;
use crate::plan::{Plan, Step, VarId};
use fusion_types::error::Result;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, PoisonError, RwLock};

/// Proved shapes kept at most; the set is cleared when it would grow
/// past this.
pub const PROOF_MEMO_CAPACITY: usize = 4096;

/// A snapshot of one proof memo's counters. `hits`, `misses` and
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

/// Event counters of one proof memo. Relaxed atomics: each is a
/// statistic that publishes no other data.
#[derive(Debug, Default)]
pub struct MemoCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    resets: AtomicU64,
}

impl MemoCounters {
    /// All-zero counters (usable in a `static`).
    pub const fn new() -> MemoCounters {
        MemoCounters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        }
    }

    /// Counts a question answered from the memo.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a question that ran the prover.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a clear-when-full.
    pub fn reset(&self) {
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters now, beside the caller's resident-key count.
    pub fn stats(&self, entries: usize) -> ProofMemoStats {
        ProofMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries as u64,
            resets: self.resets.load(Ordering::Relaxed),
        }
    }
}

/// Everything the verdict is a function of, owned.
#[derive(Debug)]
struct PlanShape {
    steps: Vec<Step>,
    result: VarId,
    n_conditions: usize,
    n_sources: usize,
    n_vars: usize,
    n_rels: usize,
}

impl PlanShape {
    fn of(plan: &Plan) -> PlanShape {
        PlanShape {
            steps: plan.steps.clone(),
            result: plan.result,
            n_conditions: plan.n_conditions,
            n_sources: plan.n_sources,
            n_vars: plan.var_names.len(),
            n_rels: plan.rel_names.len(),
        }
    }

    fn matches(&self, plan: &Plan) -> bool {
        self.result == plan.result
            && self.n_conditions == plan.n_conditions
            && self.n_sources == plan.n_sources
            && self.n_vars == plan.var_names.len()
            && self.n_rels == plan.rel_names.len()
            && self.steps == plan.steps
    }
}

/// Memo entries bucketed by key hash. A hash only picks the bucket:
/// membership is decided by the caller comparing whole keys.
#[derive(Debug)]
struct Buckets<E> {
    buckets: HashMap<u64, Vec<E>>,
    len: usize,
}

impl<E> Buckets<E> {
    fn new() -> Buckets<E> {
        Buckets {
            buckets: HashMap::new(),
            len: 0,
        }
    }

    fn find(&self, hash: u64, is_key: impl Fn(&E) -> bool) -> Option<&E> {
        self.buckets.get(&hash)?.iter().find(|entry| is_key(entry))
    }

    /// Adds `entry()` unless an entry `is_key` accepts is there already,
    /// clearing the table first when it is full. Returns true when it
    /// cleared.
    fn insert(
        &mut self,
        hash: u64,
        is_key: impl Fn(&E) -> bool,
        entry: impl FnOnce() -> E,
        capacity: usize,
    ) -> bool {
        if self.find(hash, is_key).is_some() {
            return false;
        }
        let full = self.len >= capacity;
        if full {
            self.buckets.clear();
            self.len = 0;
        }
        self.buckets.entry(hash).or_default().push(entry());
        self.len += 1;
        full
    }
}

/// A process-wide memo of a pure function: bounded, cleared when full,
/// built by the first question and never pre-warmed. The one table shape
/// behind [`ensure_sound`] and the optimizers' plan memo.
///
/// Readers share the lock, the memoised function runs with no lock held,
/// and two threads that miss on the same key both compute it and insert
/// equal entries. A poisoned lock is recovered with `into_inner`: every
/// write is one complete entry pushed into one bucket (or a clear
/// followed by it), so a panic between writes cannot leave an entry that
/// was not computed.
pub(crate) struct SharedMemo<E> {
    hasher: RandomState,
    table: RwLock<Buckets<E>>,
    counters: MemoCounters,
    capacity: usize,
}

impl<E> SharedMemo<E> {
    pub(crate) fn new(capacity: usize) -> SharedMemo<E> {
        SharedMemo {
            hasher: RandomState::new(),
            table: RwLock::new(Buckets::new()),
            counters: MemoCounters::new(),
            capacity,
        }
    }

    /// The bucket of `key` under this memo's own hasher.
    pub(crate) fn hash(&self, key: impl Hash) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Reads the entry `is_key` accepts, counting a hit or a miss.
    pub(crate) fn get<R>(
        &self,
        hash: u64,
        is_key: impl Fn(&E) -> bool,
        read: impl FnOnce(&E) -> R,
    ) -> Option<R> {
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        let found = table.find(hash, is_key).map(read);
        match found {
            Some(_) => self.counters.hit(),
            None => self.counters.miss(),
        }
        found
    }

    /// Records what a miss computed (see [`Buckets::insert`]).
    pub(crate) fn insert(&self, hash: u64, is_key: impl Fn(&E) -> bool, entry: impl FnOnce() -> E) {
        let cleared = self
            .table
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(hash, is_key, entry, self.capacity);
        if cleared {
            self.counters.reset();
        }
    }

    /// Counters since the process started.
    pub(crate) fn stats(&self) -> ProofMemoStats {
        let entries = self
            .table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len;
        self.counters.stats(entries)
    }
}

static PROOF_MEMO: LazyLock<SharedMemo<PlanShape>> =
    LazyLock::new(|| SharedMemo::new(PROOF_MEMO_CAPACITY));

fn shape_hash(memo: &SharedMemo<PlanShape>, plan: &Plan) -> u64 {
    memo.hash((
        &plan.steps,
        plan.result,
        plan.n_conditions,
        plan.n_sources,
        plan.var_names.len(),
        plan.rel_names.len(),
    ))
}

/// The executors' guard: validates `plan`, then proves that it computes
/// the fusion query — or recalls that a structurally equal plan was
/// proved before. Same verdicts and same errors as
/// [`analyze_plan`](super::analyze_plan) followed by
/// [`Analysis::require_proved`](super::Analysis::require_proved), without
/// the `Analysis`.
///
/// # Errors
/// Structural validation failure, or the refusal of a refuted plan.
pub fn ensure_sound(plan: &Plan) -> Result<()> {
    plan.validate()?;
    let memo = &*PROOF_MEMO;
    let hash = shape_hash(memo, plan);
    let is_shape = |shape: &PlanShape| shape.matches(plan);
    if memo.get(hash, is_shape, |_| ()).is_some() {
        return Ok(());
    }
    analyze_validated(plan).require_proved()?;
    memo.insert(hash, is_shape, || PlanShape::of(plan));
    Ok(())
}

/// Counters of the plan-soundness memo since the process started.
pub fn proof_memo_stats() -> ProofMemoStats {
    PROOF_MEMO.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SimplePlanSpec;

    fn contains(set: &Buckets<PlanShape>, hash: u64, plan: &Plan) -> bool {
        set.find(hash, |shape| shape.matches(plan)).is_some()
    }

    fn insert(set: &mut Buckets<PlanShape>, hash: u64, plan: &Plan, capacity: usize) -> bool {
        let is_shape = |shape: &PlanShape| shape.matches(plan);
        set.insert(hash, is_shape, || PlanShape::of(plan), capacity)
    }

    #[test]
    fn equal_hash_is_not_membership() {
        // Two different plans forced into one bucket: each is found only
        // by a plan that equals it field by field.
        let a = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let b = SimplePlanSpec::all_semijoin(2, 2).build(2).unwrap();
        let c = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        let mut set = Buckets::new();
        assert!(!contains(&set, 7, &a));
        assert!(!insert(&mut set, 7, &a, 8));
        assert!(contains(&set, 7, &a) && !contains(&set, 7, &b) && !contains(&set, 7, &c));
        assert!(!insert(&mut set, 7, &b, 8));
        assert!(contains(&set, 7, &a) && contains(&set, 7, &b) && !contains(&set, 7, &c));
        assert_eq!((set.len, set.buckets.len()), (2, 1));
        // Names are not part of the shape; a trailing variable is.
        let mut renamed = a.clone();
        renamed.var_names[0] = "RENAMED".into();
        assert!(contains(&set, 7, &renamed));
        let mut wider = a.clone();
        wider.fresh_var("UNUSED");
        assert!(!contains(&set, 7, &wider));
        // Inserting what is there already changes nothing.
        assert!(!insert(&mut set, 7, &a, 8));
        assert_eq!(set.len, 2);
    }

    #[test]
    fn full_set_clears_then_keeps_the_newcomer() {
        let mut set = Buckets::new();
        let mut plan = SimplePlanSpec::filter(1, 1).build(1).unwrap();
        for k in 0..3u64 {
            assert!(!insert(&mut set, k, &plan, 3));
            plan.fresh_var("PAD");
        }
        assert_eq!(set.len, 3);
        assert!(insert(&mut set, 3, &plan, 3), "fourth shape clears the set");
        assert_eq!(set.len, 1);
        assert!(contains(&set, 3, &plan));
    }
}
