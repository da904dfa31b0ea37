//! Semantic answer cache for selection-query results.
//!
//! The mediator of the paper re-issues `sq(c_i, R_j)` for every query,
//! even under heavy repeated traffic. This crate adds the missing
//! memory: a cache keyed by `(source, condition)` that stores the
//! **full records** a selection returned, so a later query can be
//! answered locally — either exactly (same condition) or by
//! *subsumption*: a cached broader condition answers a narrower one
//! after a local residual filter, with containment proved by
//! [`subsumes`] — `fusion_core`'s BDD + order-theory prover behind the
//! process default [`Memos`].
//!
//! Three mechanisms keep reuse honest:
//!
//! * **Epochs** — every source has a monotone epoch counter; an entry
//!   records the epoch it was fetched under and is invalidated the
//!   moment the source's epoch advances (simulated update, fault
//!   recovery).
//! * **Completeness tagging** — entries harvested from an execution
//!   that finished with `Completeness::Subset` are stored as
//!   non-exact and never served.
//! * **Cost-based admission/eviction** — the cache is byte-budgeted;
//!   when over budget it evicts the entry with the lowest
//!   re-fetch-price-per-byte (ties broken LRU), so expensive-to-refetch
//!   answers survive.
//!
//! [`CacheSnapshot`] and [`CachedCostModel`] feed the optimizer: warm
//! `(c, R)` pairs cost their local-residual price (zero under the
//! paper's free-local-work axiom), which provably re-orders plans.

#![forbid(unsafe_code)]

mod cost;
mod harvest;
mod lint;
mod resolution;
mod shared;

pub use cost::{CacheSnapshot, CachedCostModel};
pub use harvest::Harvest;
pub use lint::stale_cache_findings;
pub use shared::{CacheGuard, SharedAnswerCache};

use resolution::{Found, Resolutions};

use std::sync::Arc;

use fusion_core::analyze::Memos;
use fusion_types::error::Result;
use fusion_types::{Condition, Cost, ItemSet, Predicate, Schema, SourceId, Tuple};

/// Decides whether `narrow ⊆ broad` ([`Memos::subsumes`]) on
/// [`Memos::shared`]: each distinct ordered pair is proved once per
/// process. Sound — `true` is a proof; `false` only means "not proved".
pub fn subsumes(broad: &Predicate, narrow: &Predicate) -> bool {
    Memos::shared().subsumes(broad, narrow)
}

/// One cached selection answer: the full records `sq(c, R)` returned.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Source the answer came from.
    pub source: SourceId,
    /// The condition the records satisfy.
    pub cond: Condition,
    /// The records and their remembered projection, behind an [`Arc`] so a
    /// [`SharedAnswerCache`] reader takes it under the shard lock and
    /// projects outside it.
    harvest: Arc<Harvest>,
    /// Source epoch the records were fetched under.
    pub epoch: u64,
    /// False when harvested from a `Subset`-complete execution; such
    /// entries are retained for inspection but never served.
    pub exact: bool,
    /// Wire bytes the records occupy (admission/eviction weight).
    pub bytes: usize,
    /// The price actually paid to fetch the answer (eviction weight).
    pub refetch: Cost,
    /// Logical timestamp of the last lookup that used this entry.
    last_used: u64,
}

impl CacheEntry {
    /// The cached records.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = &Tuple> {
        self.harvest.rows()
    }

    /// Eviction score: re-fetch price per cached byte. Lower scores are
    /// evicted first.
    fn score(&self) -> f64 {
        self.refetch.value() / self.bytes.max(1) as f64
    }
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitKind {
    /// The exact condition was cached.
    Exact,
    /// A cached broader condition was residual-filtered locally.
    Subsumed,
}

/// A successful lookup: the answer plus how it was produced.
#[derive(Debug, Clone)]
pub struct Served {
    /// The answer items, byte-identical to what `sq` would return —
    /// for an exact hit, the entry's own remembered set.
    pub items: Arc<ItemSet>,
    /// Exact hit or subsumption residual.
    pub kind: HitKind,
}

/// A lookup resolved but not yet served: the matched entry's records
/// plus the hit kind. [`ResolvedHit::serve`] runs the projection (and
/// residual filter, for a subsumption hit) — deliberately separate from
/// resolution so [`SharedAnswerCache`] can do the cheap match under a
/// shard lock and the per-tuple work outside it.
#[derive(Debug, Clone)]
pub struct ResolvedHit {
    harvest: Arc<Harvest>,
    /// The source the records came from (named by projection errors).
    source: SourceId,
    /// Exact hit or subsumption residual.
    pub kind: HitKind,
}

impl ResolvedHit {
    /// Wraps records published outside the cache — the merged-fetch
    /// fan-out path: a follower serves a leader's in-flight harvest
    /// through the same projection (and, for a proper containment,
    /// residual filter) an answer-cache hit uses, so shared answers
    /// stay byte-identical to a cold `sq`.
    pub fn from_harvest(harvest: Arc<Harvest>, source: SourceId, kind: HitKind) -> ResolvedHit {
        ResolvedHit {
            harvest,
            source,
            kind,
        }
    }

    /// Projects the resolved records to the answer item set, applying
    /// `cond` as a residual filter when the hit was by subsumption. The
    /// result is byte-identical to what [`AnswerCache::lookup`] serves.
    ///
    /// # Errors
    /// As [`Harvest::project`].
    pub fn serve(&self, cond: &Condition, schema: &Schema) -> Result<Served> {
        let residual = self.kind == HitKind::Subsumed;
        let items = self.harvest.project(self.source, cond, schema, residual)?;
        Ok(Served {
            items,
            kind: self.kind,
        })
    }
}

/// Monotone counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-condition hits served.
    pub hits: u64,
    /// Subsumption hits served via a residual filter.
    pub residual_hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Resident entries evicted to meet the byte budget.
    pub evictions: u64,
    /// Fresh entries rejected at admission (budget would not fit them).
    pub rejections: u64,
    /// Entries dropped because their source epoch advanced.
    pub invalidations: u64,
}

/// The semantic answer cache.
#[derive(Debug)]
pub struct AnswerCache {
    entries: Vec<CacheEntry>,
    /// Per-source epoch counters, grown on demand.
    epochs: Vec<u64>,
    budget: usize,
    /// Total wire bytes of `entries`, kept in step by every mutation.
    bytes: usize,
    clock: u64,
    stats: CacheStats,
    /// Operations applied through a shared-cache guard — the per-shard
    /// half of the server's linearizability certificate (see
    /// [`crate::shared`]). Exclusive (`&mut`) use never advances it.
    op_seq: u64,
    /// What the entry scan returned, per condition and source, since
    /// the entries or epochs last changed ([`crate::resolution`]).
    resolutions: Resolutions,
}

impl AnswerCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> AnswerCache {
        AnswerCache {
            entries: Vec::new(),
            epochs: Vec::new(),
            budget: budget_bytes,
            bytes: 0,
            clock: 0,
            stats: CacheStats::default(),
            op_seq: 0,
            resolutions: Resolutions::default(),
        }
    }

    /// Guard-applied operations so far (see [`crate::shared`]).
    pub(crate) fn op_seq(&self) -> u64 {
        self.op_seq
    }

    /// Counts one guard-applied operation.
    pub(crate) fn note_op(&mut self) {
        self.op_seq += 1;
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of resident entries (including non-exact ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total wire bytes of resident entries.
    pub fn bytes_used(&self) -> usize {
        self.bytes
    }

    /// Debug builds re-sum the entries after every mutation.
    fn debug_check_bytes(&self) {
        debug_assert_eq!(
            self.bytes,
            self.entries.iter().map(|e| e.bytes).sum::<usize>()
        );
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resident entries, in admission order.
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.iter()
    }

    /// The current epoch of a source (0 until first bump).
    pub fn epoch(&self, source: SourceId) -> u64 {
        self.epochs.get(source.0).copied().unwrap_or(0)
    }

    /// Epochs for sources `0..n`, padding unknown sources with 0.
    pub fn epochs(&self, n_sources: usize) -> Vec<u64> {
        (0..n_sources).map(|j| self.epoch(SourceId(j))).collect()
    }

    /// Advances a source's epoch, invalidating its resident entries.
    pub fn bump_epoch(&mut self, source: SourceId) {
        if self.epochs.len() <= source.0 {
            self.epochs.resize(source.0 + 1, 0);
        }
        self.epochs[source.0] += 1;
        self.resolutions.clear();
        let epoch = self.epochs[source.0];
        let mut removed: u64 = 0;
        let mut freed = 0;
        self.entries.retain(|e| {
            let keep = e.source != source || e.epoch >= epoch;
            if !keep {
                removed += 1;
                freed += e.bytes;
            }
            keep
        });
        self.bytes -= freed;
        self.debug_check_bytes();
        self.stats.invalidations += removed;
    }

    /// Drops every entry and resets all epochs (stats are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
        self.epochs.clear();
        self.resolutions.clear();
    }

    fn servable(&self, e: &CacheEntry) -> bool {
        e.exact && e.epoch == self.epoch(e.source)
    }

    /// Index of the entry a lookup would use: an exact match if one
    /// exists — looked for first, so no containment is proved when it
    /// does — else the smallest subsuming entry (fewest residual tuples
    /// to filter). Reached only through [`AnswerCache::found`], which
    /// runs it once per memo row and source per cache state.
    fn scan(&self, source: SourceId, cond: &Condition) -> Found {
        let candidates = || {
            self.entries
                .iter()
                .enumerate()
                .filter(move |(_, e)| e.source == source && self.servable(e))
        };
        if let Some((i, _)) = candidates().find(|(_, e)| e.cond == *cond) {
            return Some((i, HitKind::Exact));
        }
        candidates()
            .filter(|(_, e)| subsumes(&e.cond.pred, &cond.pred))
            .min_by_key(|(_, e)| e.tuples().len())
            .map(|(i, _)| (i, HitKind::Subsumed))
    }

    /// What a lookup for `(source, <row's condition>)` finds: the memo's
    /// answer, else the scan's, remembered.
    fn found(&mut self, row: usize, source: SourceId) -> Found {
        if let Some(found) = *self.resolutions.slot(row, source) {
            return found;
        }
        let found = self.scan(source, self.resolutions.cond(row));
        *self.resolutions.slot(row, source) = Some(found);
        found
    }

    /// Sets `covered[i][j]` for every condition `i` and every source
    /// `j = first, first + stride, …` below the rows' width: whether a
    /// lookup would be served. Each condition is hashed once, and a
    /// lookup that follows finds its row by equality — the one loop of
    /// both snapshots.
    pub(crate) fn cover(
        &mut self,
        conditions: &[Condition],
        (first, stride): (usize, usize),
        covered: &mut [Vec<bool>],
    ) {
        self.resolutions.begin_snapshot();
        for (cond, row_covered) in conditions.iter().zip(covered) {
            let row = self.resolutions.name(cond);
            for j in (first..row_covered.len()).step_by(stride) {
                row_covered[j] = self.found(row, SourceId(j)).is_some();
            }
        }
    }

    /// Resolves a lookup for `(source, cond)` without projecting: the
    /// statistics and LRU effects of [`AnswerCache::lookup`] happen
    /// here, but the per-tuple projection/filter work is deferred to
    /// [`ResolvedHit::serve`]. This is the half a shared cache runs
    /// under its shard lock.
    pub(crate) fn resolve(&mut self, source: SourceId, cond: &Condition) -> Option<ResolvedHit> {
        self.clock += 1;
        let row = self.resolutions.row(cond);
        let Some((idx, kind)) = self.found(row, source) else {
            self.stats.misses += 1;
            return None;
        };
        self.entries[idx].last_used = self.clock;
        match kind {
            HitKind::Exact => self.stats.hits += 1,
            HitKind::Subsumed => self.stats.residual_hits += 1,
        }
        Some(ResolvedHit {
            harvest: Arc::clone(&self.entries[idx].harvest),
            source,
            kind,
        })
    }

    /// Looks up `(source, cond)`, serving an exact hit or a residual-
    /// filtered subsumption hit. Records hit/miss statistics and LRU
    /// recency.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors from the residual filter.
    pub fn lookup(
        &mut self,
        source: SourceId,
        cond: &Condition,
        schema: &Schema,
    ) -> Result<Option<Served>> {
        match self.resolve(source, cond) {
            Some(hit) => Ok(Some(hit.serve(cond, schema)?)),
            None => Ok(None),
        }
    }

    /// Admits an answer fetched at price `refetch`. Replaces any entry
    /// with the same key; then evicts lowest-score entries (re-fetch
    /// price per byte, ties broken least-recently-used) until the
    /// budget holds. A fresh entry that is itself evicted counts as an
    /// admission rejection.
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

    /// [`AnswerCache::insert`] of records that are already shared: the
    /// entry holds `harvest` itself, so whatever projection its fetcher
    /// or an earlier reader built is the entry's from the start.
    pub fn insert_harvest(
        &mut self,
        source: SourceId,
        cond: Condition,
        harvest: Arc<Harvest>,
        exact: bool,
        refetch: Cost,
    ) {
        self.clock += 1;
        let bytes = harvest.wire_bytes().max(1);
        let mut replaced = 0;
        self.entries.retain(|e| {
            let keep = !(e.source == source && e.cond == cond);
            if !keep {
                replaced += e.bytes;
            }
            keep
        });
        let entry = CacheEntry {
            source,
            cond,
            harvest,
            epoch: self.epoch(source),
            exact,
            bytes,
            refetch,
            last_used: self.clock,
        };
        self.entries.push(entry);
        self.bytes = self.bytes - replaced + bytes;
        self.stats.insertions += 1;
        // The fresh entry's index while it lives, moved down past each
        // removal below it.
        let mut fresh = Some(self.entries.len() - 1);
        // A fresh entry that replaced nothing and alone was evicted changed nothing.
        let mut changed = replaced > 0;
        while self.bytes > self.budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.score()
                        .total_cmp(&b.score())
                        .then(a.last_used.cmp(&b.last_used))
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            match fresh {
                Some(f) if f == victim => {
                    self.stats.insertions -= 1;
                    self.stats.rejections += 1;
                    fresh = None;
                }
                _ => {
                    self.stats.evictions += 1;
                    changed = true;
                    fresh = fresh.map(|f| if victim < f { f - 1 } else { f });
                }
            }
            self.bytes -= self.entries.remove(victim).bytes;
        }
        if changed || fresh.is_some() {
            self.resolutions.clear();
        }
        self.debug_check_bytes();
    }

    /// The optimizer's view: which `(condition, source)` pairs are warm
    /// right now, plus the epochs the view was taken under (for the
    /// `stale-cache-serve` lint).
    pub fn snapshot(&mut self, conditions: &[Condition], n_sources: usize) -> CacheSnapshot {
        let mut covered = vec![vec![false; n_sources]; conditions.len()];
        self.cover(conditions, (0, 1), &mut covered);
        CacheSnapshot::new(covered, self.epochs(n_sources))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::{Attribute, CmpOp, Predicate, Value, ValueType};

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

    /// What a lookup for `(source, cond)` finds, through the memo.
    fn served_by(c: &mut AnswerCache, source: SourceId, cond: &Condition) -> Found {
        let row = c.resolutions.row(cond);
        c.found(row, source)
    }

    #[test]
    fn exact_hit_roundtrip() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(0);
        c.insert(
            s,
            lt(100),
            vec![row("b", 5), row("a", 50)],
            true,
            Cost::new(10.0),
        );
        let got = c.lookup(s, &lt(100), &schema()).unwrap().unwrap();
        assert_eq!(got.kind, HitKind::Exact);
        assert_eq!(*got.items, ItemSet::from_items(["a", "b"]));
        assert_eq!(c.stats().hits, 1);
        // Different source: miss.
        assert!(c
            .lookup(SourceId(1), &lt(100), &schema())
            .unwrap()
            .is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn subsumption_hit_filters_residual() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(0);
        c.insert(
            s,
            lt(100),
            vec![row("a", 5), row("b", 50), row("c", 99)],
            true,
            Cost::new(10.0),
        );
        let got = c.lookup(s, &lt(50), &schema()).unwrap().unwrap();
        assert_eq!(got.kind, HitKind::Subsumed);
        assert_eq!(*got.items, ItemSet::from_items(["a"]));
        assert_eq!(c.stats().residual_hits, 1);
        // The narrower cached entry never serves the broader query.
        assert!(c.lookup(s, &lt(101), &schema()).unwrap().is_none());
    }

    #[test]
    fn smallest_subsuming_entry_wins() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(0);
        c.insert(
            s,
            lt(1000),
            vec![row("a", 5), row("b", 700)],
            true,
            Cost::new(1.0),
        );
        c.insert(s, lt(100), vec![row("a", 5)], true, Cost::new(1.0));
        let (idx, kind) = served_by(&mut c, s, &lt(50)).unwrap();
        assert_eq!(kind, HitKind::Subsumed);
        assert_eq!(c.entries[idx].cond, lt(100));
    }

    #[test]
    fn an_exact_entry_wins_over_subsuming_entries_ahead_of_it() {
        let s = SourceId(0);
        let rows = || vec![row("a", 5), row("b", 50)];
        let mut exact_only = AnswerCache::new(1 << 20);
        let mut crowded = AnswerCache::new(1 << 20);
        let mut wide = rows();
        wide.push(row("c", 700));
        crowded.insert(s, lt(1000), wide, true, Cost::new(1.0));
        for v in [500, 200] {
            crowded.insert(s, lt(v), rows(), true, Cost::new(1.0));
        }
        for c in [&mut exact_only, &mut crowded] {
            c.insert(s, lt(100), rows(), true, Cost::new(1.0));
        }
        assert_eq!(
            served_by(&mut crowded, s, &lt(100)),
            Some((3, HitKind::Exact))
        );
        let want = exact_only.lookup(s, &lt(100), &schema()).unwrap().unwrap();
        let got = crowded.lookup(s, &lt(100), &schema()).unwrap().unwrap();
        assert_eq!((got.kind, &got.items), (HitKind::Exact, &want.items));
        let counts = |c: &AnswerCache| (c.stats().hits, c.stats().residual_hits, c.stats().misses);
        assert_eq!(counts(&crowded), counts(&exact_only));
        // With no exact entry, the smallest subsuming one, first of equals.
        let (idx, kind) = served_by(&mut crowded, s, &lt(50)).unwrap();
        assert_eq!((kind, idx), (HitKind::Subsumed, 1));
        let (idx, kind) = served_by(&mut crowded, s, &lt(600)).unwrap();
        assert_eq!((kind, idx), (HitKind::Subsumed, 0));
    }

    #[test]
    fn epoch_bump_invalidates() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(0);
        c.insert(s, lt(100), vec![row("a", 5)], true, Cost::new(10.0));
        c.insert(
            SourceId(1),
            lt(100),
            vec![row("z", 5)],
            true,
            Cost::new(10.0),
        );
        c.bump_epoch(s);
        assert!(c.lookup(s, &lt(100), &schema()).unwrap().is_none());
        assert_eq!(c.stats().invalidations, 1);
        // Other sources unaffected.
        assert!(c
            .lookup(SourceId(1), &lt(100), &schema())
            .unwrap()
            .is_some());
        // Re-inserting after the bump is served again at the new epoch.
        c.insert(s, lt(100), vec![row("a", 5)], true, Cost::new(10.0));
        assert!(c.lookup(s, &lt(100), &schema()).unwrap().is_some());
        assert_eq!(c.epoch(s), 1);
    }

    #[test]
    fn bump_with_no_matching_entries_counts_zero_invalidations() {
        let mut c = AnswerCache::new(1 << 20);
        c.insert(
            SourceId(1),
            lt(100),
            vec![row("a", 5)],
            true,
            Cost::new(1.0),
        );
        // Source 0 has no resident entries: the bump must not count any
        // invalidations, and the other source's entry must survive.
        c.bump_epoch(SourceId(0));
        assert_eq!(c.stats().invalidations, 0);
        assert_eq!(c.len(), 1);
        // A second bump of the same empty source stays at zero.
        c.bump_epoch(SourceId(0));
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn bump_removing_every_entry_counts_each_removal() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(0);
        c.insert(s, lt(10), vec![row("a", 5)], true, Cost::new(1.0));
        c.insert(s, lt(20), vec![row("b", 15)], true, Cost::new(1.0));
        c.insert(s, lt(30), vec![row("c", 25)], false, Cost::new(1.0));
        assert_eq!(c.len(), 3);
        c.bump_epoch(s);
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 3);
    }

    #[test]
    fn non_exact_entries_are_never_served() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(0);
        c.insert(s, lt(100), vec![row("a", 5)], false, Cost::new(10.0));
        assert_eq!(c.len(), 1);
        assert!(c.lookup(s, &lt(100), &schema()).unwrap().is_none());
        assert!(c.lookup(s, &lt(50), &schema()).unwrap().is_none());
    }

    #[test]
    fn eviction_respects_refetch_price_per_byte() {
        // Budget fits two of the three equally sized entries: the
        // cheapest-to-refetch one goes.
        let sz = row("aaaa", 1).wire_size();
        let mut c = AnswerCache::new(2 * sz);
        c.insert(
            SourceId(0),
            lt(10),
            vec![row("aaaa", 1)],
            true,
            Cost::new(5.0),
        );
        c.insert(
            SourceId(1),
            lt(10),
            vec![row("bbbb", 1)],
            true,
            Cost::new(1.0),
        );
        c.insert(
            SourceId(2),
            lt(10),
            vec![row("cccc", 1)],
            true,
            Cost::new(9.0),
        );
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(served_by(&mut c, SourceId(0), &lt(10)).is_some());
        assert!(served_by(&mut c, SourceId(1), &lt(10)).is_none());
        assert!(served_by(&mut c, SourceId(2), &lt(10)).is_some());
    }

    #[test]
    fn oversized_fresh_entry_is_rejected() {
        let mut c = AnswerCache::new(4);
        c.insert(
            SourceId(0),
            lt(10),
            vec![row("a-very-long-item", 1)],
            true,
            Cost::new(0.1),
        );
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().rejections, 1);
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn fresh_entry_evicted_after_an_earlier_victim_is_a_rejection() {
        // Budget of three rows: the 1-row entry at price 1 goes first, and
        // then the 3-row fresh entry (1.5 a row) before the one at 100.
        let sz = row("aaaa", 1).wire_size();
        let mut c = AnswerCache::new(3 * sz);
        for (j, price) in [(0, 1.0), (1, 100.0)] {
            let resident = vec![row("aaaa", 1)];
            c.insert(SourceId(j), lt(10), resident, true, Cost::new(price));
        }
        let fresh = vec![row("cccc", 1), row("dddd", 1), row("eeee", 1)];
        c.insert(SourceId(2), lt(10), fresh, true, Cost::new(4.5));
        let stats = c.stats();
        let counts = (stats.insertions, stats.evictions, stats.rejections);
        assert_eq!(counts, (2, 1, 1));
        assert_eq!(c.len(), 1);
        assert!(served_by(&mut c, SourceId(1), &lt(10)).is_some());
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(0);
        c.insert(s, lt(100), vec![row("a", 5)], true, Cost::new(1.0));
        c.insert(s, lt(100), vec![row("b", 6)], true, Cost::new(1.0));
        assert_eq!(c.len(), 1);
        let got = c.lookup(s, &lt(100), &schema()).unwrap().unwrap();
        assert_eq!(*got.items, ItemSet::from_items(["b"]));
    }

    #[test]
    fn short_row_is_an_error_on_every_hit_not_a_panic() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(2);
        // The merge attribute `M` is column 0; an empty row cannot hold it.
        c.insert(
            s,
            lt(100),
            vec![row("a", 5), Tuple::new(vec![])],
            true,
            Cost::new(1.0),
        );
        for cond in [lt(100), lt(50), lt(100)] {
            let err = c.lookup(s, &cond, &schema()).unwrap_err().to_string();
            assert!(err.contains("R3"), "{err}");
            assert!(err.contains(&cond.to_string()), "{err}");
            assert!(err.contains("arity 0"), "{err}");
        }
        // A failed build is not remembered as a success: a well-formed
        // re-insert under the same key serves.
        c.insert(s, lt(100), vec![row("a", 5)], true, Cost::new(1.0));
        let got = c.lookup(s, &lt(100), &schema()).unwrap().unwrap();
        assert_eq!(*got.items, ItemSet::from_items(["a"]));
    }

    #[test]
    fn bytes_used_tracks_replace_evict_bump_and_clear() {
        let sz = row("aaaa", 1).wire_size();
        let mut c = AnswerCache::new(3 * sz);
        let resummed = |c: &AnswerCache| c.entries().map(|e| e.bytes).sum::<usize>();
        c.insert(
            SourceId(0),
            lt(10),
            vec![row("aaaa", 1)],
            true,
            Cost::new(5.0),
        );
        c.insert(
            SourceId(1),
            lt(10),
            vec![row("bbbb", 1), row("cccc", 2)],
            true,
            Cost::new(9.0),
        );
        assert_eq!(c.bytes_used(), 3 * sz);
        // Replace in place with a smaller answer.
        c.insert(
            SourceId(1),
            lt(10),
            vec![row("bbbb", 1)],
            true,
            Cost::new(9.0),
        );
        assert_eq!((c.bytes_used(), c.len()), (2 * sz, 2));
        // Over budget: the cheapest-per-byte resident goes.
        c.insert(
            SourceId(2),
            lt(10),
            vec![row("dddd", 1), row("eeee", 2)],
            true,
            Cost::new(99.0),
        );
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.bytes_used(), resummed(&c));
        assert_eq!(c.bytes_used(), 3 * sz);
        c.bump_epoch(SourceId(2));
        assert_eq!(c.bytes_used(), resummed(&c));
        assert_eq!(c.bytes_used(), sz);
        c.clear();
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn snapshot_reports_coverage_and_epochs() {
        let mut c = AnswerCache::new(1 << 20);
        c.insert(
            SourceId(1),
            lt(100),
            vec![row("a", 5)],
            true,
            Cost::new(1.0),
        );
        c.bump_epoch(SourceId(0));
        let snap = c.snapshot(&[lt(50), lt(200)], 2);
        assert!(snap.covers(fusion_types::CondId(0), SourceId(1))); // subsumed
        assert!(!snap.covers(fusion_types::CondId(1), SourceId(1))); // broader
        assert!(!snap.covers(fusion_types::CondId(0), SourceId(0)));
        assert_eq!(snap.epochs(), &[1, 0]);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = AnswerCache::new(1 << 20);
        c.insert(
            SourceId(0),
            lt(100),
            vec![row("a", 5)],
            true,
            Cost::new(1.0),
        );
        c.bump_epoch(SourceId(0));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.epoch(SourceId(0)), 0);
    }
}
