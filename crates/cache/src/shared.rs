//! A sharded, concurrently usable wrapper over [`AnswerCache`].
//!
//! The PR-5 cache is exclusively owned (`&mut` through every cached
//! executor); one session at a time can be warm. The mediator *server*
//! interleaves many in-flight queries over one cache, so this module
//! moves the cache behind interior mutability with a locking discipline
//! chosen to make concurrent execution **provably replayable**:
//!
//! * Entries are partitioned into `n_shards` shards by owning source
//!   (`source.0 % n_shards`); each shard is a complete [`AnswerCache`]
//!   (its own entries, epochs, LRU clock, stats, and byte-budget slice)
//!   behind an [`RwLock`]. A source's epoch counter lives in its owning
//!   shard, so an update bump locks exactly one shard.
//! * Every mutation happens inside a [`CacheGuard`] critical section
//!   holding the write locks of the shards it touches, always acquired
//!   in ascending shard order (no deadlocks). Admission — the planning
//!   snapshot plus lookup resolution for one query — locks *all*
//!   shards, because the optimizer's coverage view must be consistent
//!   across sources. Commits and epoch bumps lock only the shards that
//!   own their sources.
//! * Each critical section draws a **ticket** from a global atomic
//!   counter *while holding its locks*. Two critical sections that
//!   share a shard are therefore ticket-ordered exactly as the shard
//!   saw them; two that are shard-disjoint commute. Replaying the
//!   ticket-ordered operation log serially against a fresh
//!   [`SharedAnswerCache`] reproduces every shard's mutation sequence
//!   bit for bit — the byte-parity contract that
//!   `fusion_exec::verify_replay_parity` checks.
//! * The per-tuple half of serving a warm hit — building the entry's
//!   merge order on its first projection, running the residual filter —
//!   happens **outside** the locks: [`AnswerCache::resolve`] hands out
//!   an `Arc` of the entry's [`Harvest`] under the lock and
//!   [`ResolvedHit::serve`] ([`crate::ResolvedHit`]) projects after
//!   release, so concurrent warm hits do not serialize on each other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};

use fusion_types::{Condition, Cost, SourceId, Tuple};

use crate::{AnswerCache, CacheSnapshot, CacheStats, Harvest, ResolvedHit};

/// The sharded shared answer cache. See the module docs for the locking
/// discipline.
#[derive(Debug)]
pub struct SharedAnswerCache {
    shards: Vec<RwLock<AnswerCache>>,
    ticket: AtomicU64,
}

/// Per-shard observation used by inspection surfaces (`\sessions`).
#[derive(Debug, Clone, Copy)]
pub struct ShardInfo {
    /// Resident entries.
    pub len: usize,
    /// Resident wire bytes.
    pub bytes: usize,
    /// The shard's byte budget.
    pub budget: usize,
    /// The shard's behaviour counters.
    pub stats: CacheStats,
}

impl SharedAnswerCache {
    /// A shared cache of `n_shards` shards splitting `budget_bytes`
    /// evenly. `n_shards` is clamped to at least 1.
    pub fn new(budget_bytes: usize, n_shards: usize) -> SharedAnswerCache {
        let n = n_shards.max(1);
        SharedAnswerCache {
            shards: (0..n)
                .map(|_| RwLock::new(AnswerCache::new(budget_bytes / n)))
                .collect(),
            ticket: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `source`'s entries and epoch counter.
    pub(crate) fn shard_of(&self, source: SourceId) -> usize {
        source.0 % self.shards.len()
    }

    /// Locks every shard for one admission-class critical section: a
    /// globally consistent snapshot plus lookup resolution.
    pub fn lock_all(&self) -> CacheGuard<'_> {
        self.lock_shards((0..self.shards.len()).collect())
    }

    /// Locks only the shards owning `sources` (commit / bump class
    /// critical sections).
    pub fn lock_sources(&self, sources: &[SourceId]) -> CacheGuard<'_> {
        let mut idxs: Vec<usize> = sources.iter().map(|&s| self.shard_of(s)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        self.lock_shards(idxs)
    }

    fn lock_shards(&self, idxs: Vec<usize>) -> CacheGuard<'_> {
        // Ascending acquisition order across all callers: deadlock-free.
        let guards = idxs
            .into_iter()
            .map(|i| {
                (
                    i,
                    self.shards[i]
                        .write()
                        .unwrap_or_else(PoisonError::into_inner),
                )
            })
            .collect();
        CacheGuard {
            guards,
            n_shards: self.shards.len(),
            ticket: &self.ticket,
        }
    }

    /// Aggregated behaviour counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = *shard.read().unwrap_or_else(PoisonError::into_inner).stats();
            total.hits += s.hits;
            total.residual_hits += s.residual_hits;
            total.misses += s.misses;
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            total.rejections += s.rejections;
            total.invalidations += s.invalidations;
        }
        total
    }

    /// Epochs for sources `0..n`, each read from its owning shard.
    pub fn epochs(&self, n_sources: usize) -> Vec<u64> {
        (0..n_sources)
            .map(|j| {
                let source = SourceId(j);
                self.shards[self.shard_of(source)]
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .epoch(source)
            })
            .collect()
    }

    /// Per-shard inspection rows, in shard order.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        self.shards
            .iter()
            .map(|s| {
                let c = s.read().unwrap_or_else(PoisonError::into_inner);
                ShardInfo {
                    len: c.len(),
                    bytes: c.bytes_used(),
                    budget: c.budget(),
                    stats: *c.stats(),
                }
            })
            .collect()
    }
}

/// One critical section over a set of locked shards. Dropping the guard
/// releases the locks; take the ticket (once) before dropping if the
/// operation goes on the replay log.
pub struct CacheGuard<'a> {
    /// `(shard index, write guard)` pairs in ascending shard order.
    guards: Vec<(usize, RwLockWriteGuard<'a, AnswerCache>)>,
    n_shards: usize,
    ticket: &'a AtomicU64,
}

impl CacheGuard<'_> {
    fn shard_mut(&mut self, source: SourceId) -> &mut AnswerCache {
        let idx = source.0 % self.n_shards;
        let pos = self
            .guards
            .binary_search_by_key(&idx, |(i, _)| *i)
            .unwrap_or_else(|_| panic!("shard {idx} not locked by this guard"));
        &mut self.guards[pos].1
    }

    fn shard(&self, source: SourceId) -> &AnswerCache {
        let idx = source.0 % self.n_shards;
        let pos = self
            .guards
            .binary_search_by_key(&idx, |(i, _)| *i)
            .unwrap_or_else(|_| panic!("shard {idx} not locked by this guard"));
        &self.guards[pos].1
    }

    /// Draws the operation's ticket from the global counter. Called
    /// while the locks are held, so per-shard ticket order equals the
    /// order the shard actually saw its critical sections.
    pub fn take_ticket(&self) -> u64 {
        self.ticket.fetch_add(1, Ordering::SeqCst)
    }

    /// The per-shard operation sequence numbers of the held shards,
    /// `(shard, ops applied so far)` — the raw material of the
    /// linearizability certificate (`verify_server_log`).
    pub fn shard_seqs(&self) -> Vec<(usize, u64)> {
        self.guards.iter().map(|(i, c)| (*i, c.op_seq())).collect()
    }

    /// The current epoch of `source` (must be in a held shard).
    pub fn epoch(&self, source: SourceId) -> u64 {
        self.shard(source).epoch(source)
    }

    /// Resolves a lookup against `source`'s shard — the in-lock half of
    /// serving; project with [`ResolvedHit::serve`] after release.
    pub fn resolve(&mut self, source: SourceId, cond: &Condition) -> Option<ResolvedHit> {
        let c = self.shard_mut(source);
        c.note_op();
        c.resolve(source, cond)
    }

    /// Advances `source`'s epoch, invalidating its shard-resident
    /// entries.
    pub fn bump_epoch(&mut self, source: SourceId) {
        let c = self.shard_mut(source);
        c.note_op();
        c.bump_epoch(source);
    }

    /// Admits an answer into `source`'s shard (same semantics as
    /// [`AnswerCache::insert`], against the shard's budget slice).
    pub fn insert(
        &mut self,
        source: SourceId,
        cond: Condition,
        tuples: Vec<Tuple>,
        exact: bool,
        refetch: Cost,
    ) {
        self.insert_harvest(source, cond, Arc::new(Harvest::new(tuples)), exact, refetch);
    }

    /// [`CacheGuard::insert`] of records that are already shared (same
    /// semantics as [`AnswerCache::insert_harvest`]).
    pub fn insert_harvest(
        &mut self,
        source: SourceId,
        cond: Condition,
        harvest: Arc<Harvest>,
        exact: bool,
        refetch: Cost,
    ) {
        let c = self.shard_mut(source);
        c.note_op();
        c.insert_harvest(source, cond, harvest, exact, refetch);
    }

    /// The optimizer's coverage view over all `n_sources` sources.
    /// Meaningful only from [`SharedAnswerCache::lock_all`] — with a
    /// partial guard, unlocked sources would read as cold.
    ///
    /// # Panics
    /// Panics when the guard does not hold every shard.
    pub fn snapshot(&self, conditions: &[Condition], n_sources: usize) -> CacheSnapshot {
        assert_eq!(
            self.guards.len(),
            self.n_shards,
            "snapshot requires all shards locked (use lock_all)"
        );
        let covered = conditions
            .iter()
            .map(|c| {
                (0..n_sources)
                    .map(|j| {
                        let source = SourceId(j);
                        self.shard(source).would_serve(source, c)
                    })
                    .collect()
            })
            .collect();
        CacheSnapshot::new(
            covered,
            (0..n_sources).map(|j| self.epoch(SourceId(j))).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::{Attribute, CmpOp, Predicate, Schema, Value, ValueType};

    fn schema() -> Schema {
        Schema::new(
            vec![
                Attribute::new("M", ValueType::Str),
                Attribute::new("A1", ValueType::Int),
            ],
            "M",
        )
        .unwrap()
    }

    fn row(m: &str, a: i64) -> Tuple {
        Tuple::new(vec![Value::str(m), Value::Int(a)])
    }

    fn lt(v: i64) -> Condition {
        Predicate::cmp("A1", CmpOp::Lt, v).into()
    }

    #[test]
    fn resolve_then_serve_matches_exclusive_lookup() {
        let shared = SharedAnswerCache::new(1 << 20, 2);
        let mut plain = AnswerCache::new(1 << 20);
        for j in 0..4 {
            let s = SourceId(j);
            let rows = vec![row(&format!("m{j}"), 5), row("z", 60)];
            plain.insert(s, lt(100), rows.clone(), true, Cost::new(3.0));
            let mut g = shared.lock_sources(&[s]);
            g.insert(s, lt(100), rows, true, Cost::new(3.0));
        }
        for j in 0..4 {
            let s = SourceId(j);
            for cond in [lt(100), lt(50), lt(7)] {
                let exclusive = plain.lookup(s, &cond, &schema()).unwrap();
                let hit = {
                    let mut g = shared.lock_all();
                    g.resolve(s, &cond)
                };
                // Projection happens outside the guard.
                let served = hit.map(|h| h.serve(&cond, &schema()).unwrap());
                match (exclusive, served) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.items, b.items);
                        assert_eq!(a.kind, b.kind);
                    }
                    (None, None) => {}
                    (a, b) => panic!("divergence at R{j}: {a:?} vs {b:?}"),
                }
            }
        }
        let agg = shared.stats();
        assert_eq!(agg.hits, plain.stats().hits);
        assert_eq!(agg.residual_hits, plain.stats().residual_hits);
        assert_eq!(agg.misses, plain.stats().misses);
    }

    #[test]
    fn bump_locks_one_shard_and_invalidates_only_its_source() {
        let shared = SharedAnswerCache::new(1 << 20, 3);
        for j in 0..3 {
            let s = SourceId(j);
            let mut g = shared.lock_sources(&[s]);
            g.insert(s, lt(10), vec![row("a", 1)], true, Cost::new(1.0));
        }
        {
            let mut g = shared.lock_sources(&[SourceId(1)]);
            assert_eq!(g.shard_seqs().len(), 1);
            assert_eq!(g.shard_seqs()[0].0, 1);
            g.bump_epoch(SourceId(1));
        }
        assert_eq!(shared.epochs(3), vec![0, 1, 0]);
        let resident = |j: usize| shared.shards[j].read().unwrap().len();
        assert_eq!((0..3).map(resident).sum::<usize>(), 2);
        assert_eq!(shared.stats().invalidations, 1);
    }

    #[test]
    fn tickets_are_unique_and_ascending_per_shard() {
        let shared = SharedAnswerCache::new(1 << 20, 2);
        let mut tickets = Vec::new();
        for j in 0..6 {
            let g = shared.lock_sources(&[SourceId(j % 2)]);
            tickets.push(g.take_ticket());
        }
        tickets.sort_unstable();
        assert_eq!(tickets, (0..6).collect::<Vec<u64>>());
    }

    #[test]
    fn snapshot_agrees_with_exclusive_cache() {
        let shared = SharedAnswerCache::new(1 << 20, 2);
        let mut plain = AnswerCache::new(1 << 20);
        for j in [0usize, 3] {
            let s = SourceId(j);
            plain.insert(s, lt(100), vec![row("a", 5)], true, Cost::new(1.0));
            let mut g = shared.lock_sources(&[s]);
            g.insert(s, lt(100), vec![row("a", 5)], true, Cost::new(1.0));
        }
        {
            let mut g = shared.lock_sources(&[SourceId(0)]);
            g.bump_epoch(SourceId(0));
        }
        plain.bump_epoch(SourceId(0));
        let conds = [lt(50), lt(200)];
        let a = plain.snapshot(&conds, 4);
        let b = shared.lock_all().snapshot(&conds, 4);
        for (i, c) in conds.iter().enumerate() {
            let _ = c;
            for j in 0..4 {
                assert_eq!(
                    a.covers(fusion_types::CondId(i), SourceId(j)),
                    b.covers(fusion_types::CondId(i), SourceId(j)),
                    "({i}, {j})"
                );
            }
        }
        assert_eq!(a.epochs(), b.epochs());
    }

    #[test]
    #[should_panic(expected = "not locked")]
    fn touching_an_unlocked_shard_panics() {
        let shared = SharedAnswerCache::new(1 << 20, 4);
        let mut g = shared.lock_sources(&[SourceId(0)]);
        g.bump_epoch(SourceId(1));
    }
}
