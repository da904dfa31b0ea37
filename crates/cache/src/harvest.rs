//! One selection answer's records, shared by reference, with their
//! projection remembered.
//!
//! A [`Harvest`] is what a cached-mode miss produces, what a share
//! leader publishes, what a commit admits and what a lookup resolves to
//! — one `Arc`, never a copy of the rows, its wire bytes summed once,
//! when it is made. The first projection sorts the rows' *indices* by
//! merge item (stably, so values that compare equal — `Int(2)` and
//! `Float(2.0)` — keep the representation of the first row that carries
//! them, as `Relation`'s merge index and [`ItemSet::from_items`] both do)
//! and keeps that order beside the deduplicated item set. Rows that
//! already arrive in merge order — what an in-memory source's record
//! selection returns — cost the stable sort one run check (n − 1
//! compares) and move nothing. Every later exact hit is a
//! reference-count bump on that set; every residual hit is one filter
//! pass in merge order, de-duplicating neighbours, with no sort — and the
//! order keeps the sets it filtered out, so a narrower condition asked
//! again is a reference-count bump too. Both show as identity, not as a
//! count: an exact hit's set is the harvest's remembered `Arc`, and a
//! repeated residual hit's set the `Arc` the first one returned.
//!
//! All of it is derived data, built with no lock held: the order is at
//! most 36 bytes per row (a `u32` index and, for a row that starts a
//! new item, the 32-byte item) and written once; the residual sets it
//! owns together never hold more items than the harvest has rows, so at
//! most 32 bytes per row more. One that would push them past that is
//! remembered by `Weak` — asked again, it is the same set while anyone
//! still holds it (the server's memo of derived sets keys on that
//! identity) — and is pruned by the next insert once the last holder
//! lets go. None of it is counted against the cache's byte budget, which
//! weighs wire bytes only.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, Weak};

use fusion_types::error::{FusionError, Result};
use fusion_types::itemset::push_item_of;
use fusion_types::{Condition, Item, ItemSet, Schema, SourceId, Tuple};

/// The rows of one harvest in merge order, and the set they project to.
#[derive(Debug)]
struct MergeOrder {
    /// The merge column the order was built for.
    merge_index: usize,
    /// Row indices, stably sorted by the rows' merge values.
    by_item: Vec<u32>,
    /// The distinct merge items, ascending — the exact hit's answer.
    items: Arc<ItemSet>,
    /// Residual answers already filtered out of this order; readers
    /// share the lock.
    residuals: RwLock<Residuals>,
}

/// The residual sets one order remembers, by the condition that
/// filtered them. An owned set weighs its items plus one (an empty set
/// is not free); the owned sets' total weight stays within the order's
/// row count. A set past that bound is remembered by [`Weak`]: asked
/// again, it is the same set while anyone still holds it.
#[derive(Debug, Default)]
struct Residuals {
    sets: HashMap<Condition, Arc<ItemSet>>,
    weight: usize,
    /// Sets that did not fit; dead ones are pruned on every insert.
    spare: HashMap<Condition, Weak<ItemSet>>,
}

impl Residuals {
    /// The set remembered for `cond`, owned or still held elsewhere.
    fn get(&self, cond: &Condition) -> Option<Arc<ItemSet>> {
        match self.sets.get(cond) {
            Some(kept) => Some(Arc::clone(kept)),
            None => self.spare.get(cond).and_then(Weak::upgrade),
        }
    }
}

impl MergeOrder {
    /// The remembered answer of `cond`, if any. Poison recovery (here
    /// and in `remember`) is sound: a writer touches the maps and the
    /// weight with steps that cannot panic in between.
    fn remembered(&self, cond: &Condition) -> Option<Arc<ItemSet>> {
        let memo = self
            .residuals
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        memo.get(cond)
    }

    /// Keeps `items` as the answer of `cond` — owned while the row-count
    /// bound has room for it, else by [`Weak`] — and returns the set to
    /// serve: a racing reader's, if one got here first.
    fn remember(&self, cond: &Condition, items: Arc<ItemSet>) -> Arc<ItemSet> {
        let weight = items.len() + 1;
        let mut memo = self
            .residuals
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(kept) = memo.get(cond) {
            return kept;
        }
        memo.spare.retain(|_, set| set.strong_count() > 0);
        if memo.weight + weight <= self.by_item.len() {
            memo.sets.insert(cond.clone(), Arc::clone(&items));
            memo.weight += weight;
        } else {
            memo.spare.insert(cond.clone(), Arc::downgrade(&items));
        }
        items
    }
}

/// The full records one `sq(c, R)` returned, in the order the wrapper
/// returned them.
#[derive(Debug)]
pub struct Harvest {
    rows: Vec<Tuple>,
    /// The rows' wire bytes, summed once.
    wire_bytes: usize,
    /// Written once, by whichever projection finishes building first;
    /// racing builders produce equal orders, and a failed build writes
    /// nothing.
    order: OnceLock<Arc<MergeOrder>>,
}

impl Harvest {
    /// Wraps fetched records and sums their wire bytes; nothing else is
    /// derived until the first projection.
    pub fn new(rows: Vec<Tuple>) -> Harvest {
        Harvest {
            wire_bytes: rows.iter().map(Tuple::wire_size).sum(),
            rows,
            order: OnceLock::new(),
        }
    }

    /// The records, in the order the wrapper returned them.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// The sum of the records' [`Tuple::wire_size`]s: what the miss that
    /// fetched them shipped (`MessageSize::records_response`) and the
    /// entry's weight against the cache budget.
    pub fn wire_bytes(&self) -> usize {
        self.wire_bytes
    }

    /// The merge order for `schema`'s merge column: the remembered one,
    /// or a fresh build — remembered in turn if it is the first. A
    /// harvest read under a second merge column gets a right answer
    /// from an order built per call.
    fn order(
        &self,
        source: SourceId,
        cond: &Condition,
        schema: &Schema,
    ) -> Result<Arc<MergeOrder>> {
        let mi = schema.merge_index();
        if let Some(order) = self.order.get().filter(|o| o.merge_index == mi) {
            return Ok(Arc::clone(order));
        }
        if let Some(short) = self.rows.iter().find(|r| r.arity() <= mi) {
            return Err(FusionError::execution(format!(
                "cached answer of `{cond}` at R{} holds a row of arity {}, \
                 too short for the merge attribute at column {mi}",
                source.0 + 1,
                short.arity()
            )));
        }
        let n = u32::try_from(self.rows.len()).map_err(|_| {
            FusionError::execution(format!(
                "cached answer of `{cond}` at R{} holds {} rows, more than a merge order can index",
                source.0 + 1,
                self.rows.len()
            ))
        })?;
        let mut by_item: Vec<u32> = (0..n).collect();
        let key = |i: u32| self.rows[i as usize].get(mi);
        by_item.sort_by(|&a, &b| key(a).cmp(key(b)));
        let mut items: Vec<Item> = Vec::with_capacity(by_item.len());
        for &i in &by_item {
            if items.last().is_none_or(|last| last.value() != key(i)) {
                push_item_of(&mut items, key(i));
            }
        }
        items.shrink_to_fit();
        let built = Arc::new(MergeOrder {
            merge_index: mi,
            by_item,
            items: Arc::new(ItemSet::from_sorted_unique(items)),
            residuals: RwLock::default(),
        });
        // A racing builder may have won; both built the same order.
        let kept = self.order.get_or_init(|| Arc::clone(&built));
        Ok(if kept.merge_index == mi {
            Arc::clone(kept)
        } else {
            built
        })
    }

    /// Projects the records to the answer item set — the cache's one
    /// projection routine. Without `residual` that is the remembered
    /// set itself; with it, `cond` filters the rows in merge order, each
    /// item taken from the first of its rows that passes, unless the
    /// order already holds the set `cond` filtered out. Either way the
    /// result equals [`ItemSet::from_items`] over the qualifying rows'
    /// items, which is what a cold `sq` returns.
    ///
    /// # Errors
    /// Fails — on the first call and on every later one — when a row is
    /// too short to hold the merge attribute, naming `source`, `cond`
    /// and the row's arity; propagates predicate evaluation errors from
    /// the residual filter.
    pub fn project(
        &self,
        source: SourceId,
        cond: &Condition,
        schema: &Schema,
        residual: bool,
    ) -> Result<Arc<ItemSet>> {
        let order = self.order(source, cond, schema)?;
        if !residual {
            return Ok(Arc::clone(&order.items));
        }
        if let Some(known) = order.remembered(cond) {
            return Ok(known);
        }
        let bound = cond.pred.bind(schema)?;
        let mut items: Vec<Item> = Vec::with_capacity(order.items.len());
        for &i in &order.by_item {
            let row = &self.rows[i as usize];
            let value = row.get(order.merge_index);
            if items.last().is_some_and(|last| last.value() == value) {
                continue;
            }
            if bound.eval(row)? {
                push_item_of(&mut items, value);
            }
        }
        items.shrink_to_fit();
        Ok(order.remember(cond, Arc::new(ItemSet::from_sorted_unique(items))))
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

    fn lt(v: i64) -> Condition {
        Predicate::cmp("A1", CmpOp::Lt, v).into()
    }

    #[test]
    fn the_residual_filter_fails_on_an_unknown_attribute_even_when_empty() {
        let unknown: [Condition; 2] = [
            Predicate::eq("Z", 1i64).into(),
            Predicate::And(vec![Predicate::Const(false), Predicate::eq("Z", 1i64)]).into(),
        ];
        let rows = vec![Tuple::new(vec![Value::str("m"), Value::Int(1)])];
        for harvest in [Harvest::new(Vec::new()), Harvest::new(rows)] {
            for cond in &unknown {
                let err = harvest
                    .project(SourceId(0), cond, &schema(), true)
                    .unwrap_err();
                assert!(
                    matches!(err, FusionError::UnknownAttribute { .. }),
                    "{cond}"
                );
            }
        }
    }

    #[test]
    fn rows_in_merge_order_keep_their_order_and_project_alike() {
        // `2` and `2.0` are one item; the first row carrying it shows.
        let rows = vec![
            Tuple::new(vec![Value::Int(1), Value::Int(9)]),
            Tuple::new(vec![Value::Float(2.0), Value::Int(3)]),
            Tuple::new(vec![Value::Int(2), Value::Int(1)]),
            Tuple::new(vec![Value::str("a"), Value::Int(2)]),
        ];
        let bytes: usize = rows.iter().map(Tuple::wire_size).sum();
        let harvest = Harvest::new(rows);
        assert_eq!(harvest.wire_bytes(), bytes);
        let exact = harvest.project(SourceId(0), &lt(100), &schema(), false);
        assert_eq!(exact.unwrap().to_string(), "{1, 2.0, a}");
        let order = harvest.order.get().expect("built");
        assert_eq!(order.by_item, [0, 1, 2, 3]);
        let narrow = harvest.project(SourceId(0), &lt(3), &schema(), true);
        assert_eq!(narrow.unwrap().to_string(), "{2, a}");
    }

    #[test]
    fn residual_sets_are_remembered_within_the_row_count() {
        let rows: Vec<Tuple> = (0..40)
            .map(|i| Tuple::new(vec![Value::str(format!("m{:02}", i % 20)), Value::Int(i)]))
            .collect();
        let harvest = Harvest::new(rows.clone());
        let serve = |v: i64| {
            harvest
                .project(SourceId(0), &lt(v), &schema(), true)
                .unwrap()
        };
        // Asked again, a narrower condition gets the very set back.
        assert!(Arc::ptr_eq(&serve(5), &serve(5)));
        // A sweep of distinct conditions stays inside the bound, every
        // answer stays right, remembered or not, and a set past the bound
        // (inserted by `Weak`) leaves no dead entry beside it.
        let memo = || {
            harvest
                .order
                .get()
                .expect("built")
                .residuals
                .read()
                .unwrap()
        };
        for v in (0..60).chain(0..60) {
            let want = ItemSet::from_items(
                rows.iter()
                    .filter(|t| lt(v).eval(t, &schema()).unwrap())
                    .map(|t| t.item(&schema())),
            );
            let got = serve(v);
            assert_eq!(*got, want, "A1 < {v}");
            let memo = memo();
            let owned: usize = memo.sets.values().map(|s| s.len() + 1).sum();
            assert_eq!(memo.weight, owned);
            assert!(owned <= rows.len(), "{owned} items and sets owned");
            if !memo.sets.contains_key(&lt(v)) {
                assert!(
                    memo.spare.values().all(|s| s.strong_count() > 0),
                    "A1 < {v}"
                );
            }
        }
        // Past the bound, a set is the same one while a clone is held,
        // and a fresh one once every clone is gone.
        assert!(!memo().sets.contains_key(&lt(50)));
        let held = serve(50);
        assert!(Arc::ptr_eq(&held, &serve(50)));
        let gone = Arc::downgrade(&held);
        drop(held);
        let again = serve(50);
        assert!(gone.upgrade().is_none());
        assert!(!std::ptr::eq(gone.as_ptr(), Arc::as_ptr(&again)));
        assert_eq!(memo().spare.len(), 1);
    }
}
