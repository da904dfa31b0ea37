//! The resolution memo: what an [`AnswerCache`](crate::AnswerCache)'s
//! entry scan returned, per condition and source.
//!
//! A lookup's answer — which entry serves `(source, cond)`, and how —
//! depends only on the entries, their epochs and the containment
//! verdicts between their conditions and `cond`, and a verdict depends
//! only on the two predicates. So the answer is decided once per cache
//! state: every change to the entries or epochs (an insert that admits,
//! replaces or evicts; an epoch bump; a clear) clears the memo. A
//! rejected insert, LRU stamps and statistics leave it alone.
//!
//! Rows are named by condition. A snapshot names each of its conditions
//! once (one hash) and remembers the rows; a lookup after it finds its
//! row among those by equality, so one admission hashes each condition
//! once. The memo names at most [`RESOLUTION_MEMO_CONDITIONS`]
//! conditions and is cleared when a new one would not fit.

use std::collections::HashMap;
use std::sync::Arc;

use fusion_types::{Condition, SourceId};

use crate::HitKind;

/// Conditions one resolution memo names at most.
pub(crate) const RESOLUTION_MEMO_CONDITIONS: usize = 1024;

/// A lookup's answer: the serving entry's index and hit kind, or none.
pub(crate) type Found = Option<(usize, HitKind)>;

/// One condition's answers, by source id; `None` where not asked yet.
#[derive(Debug)]
struct Row {
    /// Shared with the row's key in `ids`: one copy per condition.
    cond: Arc<Condition>,
    by_source: Vec<Option<Found>>,
}

/// One cache's resolution memo (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Resolutions {
    ids: HashMap<Arc<Condition>, usize>,
    rows: Vec<Row>,
    /// The rows the last snapshot named, in its order.
    recent: Vec<usize>,
}

impl Resolutions {
    /// Forgets everything: the entries or epochs changed, or the memo
    /// is full.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.rows.clear();
        self.recent.clear();
    }

    /// Starts a snapshot: the rows it names replace the last one's.
    pub(crate) fn begin_snapshot(&mut self) {
        self.recent.clear();
    }

    /// The row of one of the snapshot's conditions (hashed once).
    pub(crate) fn name(&mut self, cond: &Condition) -> usize {
        let row = self.by_hash(cond);
        self.recent.push(row);
        row
    }

    /// The row of `cond`: one the last snapshot named, found by
    /// equality, else the hashed one.
    pub(crate) fn row(&mut self, cond: &Condition) -> usize {
        let named = self
            .recent
            .iter()
            .copied()
            .find(|&r| *self.rows[r].cond == *cond);
        named.unwrap_or_else(|| self.by_hash(cond))
    }

    fn by_hash(&mut self, cond: &Condition) -> usize {
        if let Some(&row) = self.ids.get(cond) {
            return row;
        }
        if self.rows.len() >= RESOLUTION_MEMO_CONDITIONS {
            self.clear();
        }
        let row = self.rows.len();
        let cond = Arc::new(cond.clone());
        self.ids.insert(Arc::clone(&cond), row);
        self.rows.push(Row {
            cond,
            by_source: Vec::new(),
        });
        row
    }

    /// The condition `row` names.
    pub(crate) fn cond(&self, row: usize) -> &Condition {
        &self.rows[row].cond
    }

    /// `row`'s answer for `source`, `None` when not decided yet.
    pub(crate) fn slot(&mut self, row: usize, source: SourceId) -> &mut Option<Found> {
        let row = &mut self.rows[row];
        if row.by_source.len() <= source.0 {
            row.by_source.resize(source.0 + 1, None);
        }
        &mut row.by_source[source.0]
    }

    /// Conditions named.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Every answer the memo holds.
    #[cfg(test)]
    pub(crate) fn decided(&self) -> impl Iterator<Item = (&Condition, SourceId, Found)> {
        self.rows.iter().flat_map(|r| {
            let answers = r.by_source.iter().enumerate();
            answers.filter_map(move |(j, slot)| slot.map(|found| (&*r.cond, SourceId(j), found)))
        })
    }
}

#[cfg(test)]
mod tests {
    use fusion_stats::SplitMix64;
    use fusion_types::{Attribute, CmpOp, Cost, Predicate, Schema, Tuple, Value, ValueType};

    use super::*;
    use crate::{subsumes, AnswerCache, CacheEntry, Harvest};

    /// Seeds the differential sweeps: 100, or 1 000 under
    /// `BATTERY_WIDTH=ci` (the knob of the root batteries' width table).
    fn width() -> u64 {
        match std::env::var("BATTERY_WIDTH") {
            Err(std::env::VarError::NotPresent) => 100,
            Ok(v) if v == "ci" => 1000,
            other => panic!("BATTERY_WIDTH must be `ci` or unset, got {other:?}"),
        }
    }

    /// The entry scan as it was before the memo, kept as its oracle: an
    /// exact servable entry first, else the smallest subsuming one,
    /// first of equals.
    fn oracle(c: &AnswerCache, source: SourceId, cond: &Condition) -> Found {
        let servable = |e: &CacheEntry| e.source == source && e.exact && e.epoch == c.epoch(source);
        let candidates = || c.entries.iter().enumerate().filter(|(_, e)| servable(e));
        if let Some((i, _)) = candidates().find(|(_, e)| e.cond == *cond) {
            return Some((i, HitKind::Exact));
        }
        candidates()
            .filter(|(_, e)| subsumes(&e.cond.pred, &cond.pred))
            .min_by_key(|(_, e)| e.tuples().len())
            .map(|(i, _)| (i, HitKind::Subsumed))
    }

    /// Every answer the memo holds is the oracle's, and the memo is
    /// within its cap.
    fn check(c: &AnswerCache, at: &str) {
        for (cond, source, found) in c.resolutions.decided() {
            assert_eq!(
                found,
                oracle(c, source, cond),
                "{at}: ({cond}, R{})",
                source.0 + 1
            );
        }
        assert!(c.resolutions.len() <= RESOLUTION_MEMO_CONDITIONS, "{at}");
    }

    fn schema() -> Schema {
        let attrs = vec![
            Attribute::new("M", ValueType::Str),
            Attribute::new("A1", ValueType::Int),
        ];
        Schema::new(attrs, "M").unwrap()
    }

    fn lt(v: i64) -> Predicate {
        Predicate::cmp("A1", CmpOp::Lt, v)
    }

    fn between(lo: i64, hi: i64) -> Predicate {
        Predicate::Between {
            attr: "A1".into(),
            lo: Value::Int(lo),
            hi: Value::Int(hi),
        }
    }

    /// Nested `<`, `=` and `BETWEEN` conditions, with conjunctions and
    /// disjunctions of them: many pairs contain one another.
    fn pool() -> Vec<Condition> {
        let eq = |v: i64| Predicate::eq("A1", v);
        let preds = vec![
            lt(5),
            lt(10),
            lt(20),
            eq(3),
            eq(7),
            between(0, 9),
            between(2, 15),
            Predicate::And(vec![between(0, 15), lt(10)]),
            Predicate::Or(vec![eq(3), eq(7)]),
            Predicate::Or(vec![lt(5), between(4, 12)]),
            Predicate::And(vec![lt(20), Predicate::Not(Box::new(eq(7)))]),
        ];
        preds.into_iter().map(Condition::from).collect()
    }

    fn rows(rng: &mut SplitMix64) -> Vec<Tuple> {
        let n = rng.next_range(1, 5);
        (0..n)
            .map(|k| {
                let a = rng.next_i64_range(0, 25);
                Tuple::new(vec![Value::str(format!("m{k}")), Value::Int(a)])
            })
            .collect()
    }

    #[test]
    fn memoised_answers_equal_the_scan_under_random_operations() {
        const SOURCES: usize = 3;
        let conds = pool();
        let row_bytes = Tuple::new(vec![Value::str("m0"), Value::Int(1)]).wire_size();
        let mut totals = [0u64; 5];
        for seed in 0..width() {
            let mut rng = SplitMix64::new(seed);
            let budget = row_bytes * rng.next_range(2, 10);
            let mut c = AnswerCache::new(budget);
            let mut snapshot: Vec<Condition> = Vec::new();
            for step in 0..80 {
                let source = SourceId(rng.next_below(SOURCES));
                let cond = &conds[rng.next_below(conds.len())];
                let op = rng.next_below(20);
                let at = format!("seed {seed} step {step} op {op}");
                match op {
                    0..=4 => {
                        let exact = rng.next_below(10) > 0;
                        let refetch = Cost::new(rng.next_range(1, 10) as f64);
                        c.insert(source, cond.clone(), rows(&mut rng), exact, refetch);
                    }
                    5 | 6 => {
                        // Records shared with a resident entry, under
                        // another key or its own (a replacement).
                        let harvest = match c.entries.get(rng.next_below(c.len().max(1))) {
                            Some(e) => Arc::clone(&e.harvest),
                            None => Arc::new(Harvest::new(rows(&mut rng))),
                        };
                        c.insert_harvest(source, cond.clone(), harvest, true, Cost::new(2.0));
                    }
                    7 => c.bump_epoch(source),
                    8 if rng.next_below(4) == 0 => c.clear(),
                    9..=11 => {
                        let k = rng.next_range(1, 4);
                        snapshot = (0..k)
                            .map(|_| conds[rng.next_below(conds.len())].clone())
                            .collect();
                        // A shard's view (every other source) or the
                        // whole cache's.
                        let first = rng.next_below(2);
                        let stride = rng.next_range(1, 3);
                        let mut covered = vec![vec![false; SOURCES]; snapshot.len()];
                        c.cover(&snapshot, (first, stride), &mut covered);
                        for (cond, covered) in snapshot.iter().zip(&covered) {
                            for j in (first..SOURCES).step_by(stride) {
                                let want = oracle(&c, SourceId(j), cond).is_some();
                                assert_eq!(covered[j], want, "{at}: cover ({cond}, R{})", j + 1);
                            }
                        }
                    }
                    _ => {
                        // Half the lookups ask for a condition of the
                        // last snapshot: the row found by equality.
                        let cond = match snapshot.is_empty() || rng.next_below(2) == 0 {
                            true => cond.clone(),
                            false => snapshot[rng.next_below(snapshot.len())].clone(),
                        };
                        let want = oracle(&c, source, &cond);
                        let hit = c.resolve(source, &cond);
                        match (want, &hit) {
                            (None, None) => {}
                            (Some((idx, kind)), Some(hit)) => {
                                assert_eq!(hit.kind, kind, "{at}: resolve {cond}");
                                let entry = &c.entries[idx].harvest;
                                assert!(Arc::ptr_eq(&hit.harvest, entry), "{at}: {cond}");
                                let served = hit.serve(&cond, &schema()).unwrap();
                                let scanned = c.entries[idx].harvest.project(
                                    source,
                                    &cond,
                                    &schema(),
                                    kind == HitKind::Subsumed,
                                );
                                assert_eq!(served.items, scanned.unwrap(), "{at}: {cond}");
                            }
                            (want, hit) => panic!("{at}: resolve {cond}: {want:?} vs {hit:?}"),
                        }
                    }
                }
                check(&c, &at);
            }
            let s = *c.stats();
            for (total, n) in totals.iter_mut().zip([
                s.hits,
                s.residual_hits,
                s.evictions,
                s.rejections,
                s.invalidations,
            ]) {
                *total += n;
            }
        }
        // Every kind of change and answer happened.
        assert!(totals.iter().all(|&n| n > 0), "{totals:?}");
    }

    #[test]
    fn a_rejected_insert_keeps_the_decided_rows() {
        let row = |m: &str| Tuple::new(vec![Value::str(m), Value::Int(1)]);
        let mut c = AnswerCache::new(row("a").wire_size());
        let s = SourceId(0);
        c.insert(s, lt(100).into(), vec![row("a")], true, Cost::new(9.0));
        let conds: Vec<Condition> = vec![lt(100).into(), lt(5).into(), lt(-1).into()];
        let mut covered = vec![vec![false; 2]; conds.len()];
        c.cover(&conds, (0, 1), &mut covered);
        let decided = |c: &AnswerCache| c.resolutions.decided().count();
        assert_eq!(decided(&c), 6);
        // Cheaper per byte than the resident entry: rejected, nothing
        // changes, every decided row stays.
        c.insert(s, lt(7).into(), vec![row("b")], true, Cost::new(1.0));
        assert_eq!(c.stats().rejections, 1);
        assert_eq!(decided(&c), 6);
        check(&c, "after the rejection");
        // A replacement changes the entries: the memo is cleared.
        c.insert(s, lt(100).into(), vec![row("c")], true, Cost::new(9.0));
        assert_eq!(decided(&c), 0);
        c.cover(&conds, (0, 1), &mut covered);
        // An admission that evicts changes them too.
        c.insert(s, lt(8).into(), vec![row("d")], true, Cost::new(20.0));
        assert_eq!((c.stats().evictions, decided(&c)), (1, 0));
    }

    #[test]
    fn a_full_memo_clears_then_keeps_the_newcomer() {
        let mut c = AnswerCache::new(1 << 20);
        let s = SourceId(1);
        let row = Tuple::new(vec![Value::str("a"), Value::Int(1)]);
        c.insert(s, lt(100).into(), vec![row], true, Cost::new(1.0));
        let conds: Vec<Condition> = (0..=RESOLUTION_MEMO_CONDITIONS as i64)
            .map(|v| lt(-v).into())
            .collect();
        let mut covered = vec![vec![false; 2]; conds.len()];
        c.cover(&conds, (0, 1), &mut covered);
        // The last condition found the memo full: it is the only one
        // named, and the earlier rows of the snapshot went with the rest.
        assert_eq!(c.resolutions.len(), 1);
        assert!(covered.iter().all(|row| row[1] && !row[0]));
        check(&c, "after the clear");
        // A lookup of a cleared condition names it again.
        assert_eq!(
            c.resolve(s, &conds[0]).map(|h| h.kind),
            Some(HitKind::Subsumed)
        );
        assert_eq!(c.resolutions.len(), 2);
        check(&c, "after the lookup");
    }
}
