//! One selection answer's records, shared by reference, with their
//! projection remembered.
//!
//! A [`Harvest`] is what a cached-mode miss produces, what a share
//! leader publishes, what a commit admits and what a lookup resolves to
//! — one `Arc`, never a copy of the rows: a source's answer by reference
//! ([`SharedRecords`]: one count for the row block, the answer's ids,
//! their wire bytes). A source that reads its answer off a merge index
//! hands over the ids in merge order with the items, so the first exact
//! projection is free. Owned records ([`Harvest::new`]) get ids `0..n`,
//! and the first projection sorts them by merge item — stably, so equal
//! values (`Int(2)`, `Float(2.0)`) keep the first row's representation,
//! as [`ItemSet::from_items`] does; ids already in order cost one run
//! check. Every later exact hit is a reference-count bump on that set;
//! every residual hit is one filter pass in merge order, de-duplicating
//! neighbours, with no sort — and the order keeps the sets it filtered
//! out, so a narrower condition asked again is a reference-count bump
//! too (an identity, not a count).
//!
//! All of it is derived data, built with no lock held and outside the
//! byte budget (wire bytes only): the order is ≤ 40 bytes per row (an id,
//! a 32-byte item where a new item starts), written once; the residual
//! sets it owns hold no more items than the harvest has rows. One past
//! that is remembered by `Weak` — the same set while anyone holds it (the
//! server's memo of derived sets keys on that identity) — and pruned by
//! the next insert once the last holder lets go.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, Weak};

use fusion_types::error::{FusionError, Result};
use fusion_types::itemset::push_item_of;
use fusion_types::{Condition, Item, ItemSet, Schema, SharedRecords, SourceId, Tuple};

/// The rows of one harvest in merge order, and the set they project to.
#[derive(Debug)]
struct MergeOrder {
    /// The merge column the order was built for.
    merge_index: usize,
    /// Block ids stably sorted by the rows' merge values; `None` when
    /// the harvest's own ids are in that order.
    by_item: Option<Vec<usize>>,
    /// The distinct merge items, ascending — the exact hit's answer.
    items: Arc<ItemSet>,
    /// Residual answers already filtered out of this order; readers
    /// share the lock.
    residuals: RwLock<Residuals>,
}

/// The residual sets one order remembers, by condition: owned ones weigh
/// their items plus one and stay within the row count together; one past
/// that is kept by [`Weak`], the same set while anyone still holds it.
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

    /// Keeps `items` as the answer of `cond` — owned while the bound of
    /// `rows` has room for it, else by [`Weak`] — and returns the set to
    /// serve: a racing reader's, if one got here first.
    fn remember(&self, cond: &Condition, items: Arc<ItemSet>, rows: usize) -> Arc<ItemSet> {
        let weight = items.len() + 1;
        let mut memo = self
            .residuals
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(kept) = memo.get(cond) {
            return kept;
        }
        memo.spare.retain(|_, set| set.strong_count() > 0);
        if memo.weight + weight <= rows {
            memo.sets.insert(cond.clone(), Arc::clone(&items));
            memo.weight += weight;
        } else {
            memo.spare.insert(cond.clone(), Arc::downgrade(&items));
        }
        items
    }
}

/// The full records one `sq(c, R)` returned: the rows `ids` names in `block`.
#[derive(Debug)]
pub struct Harvest {
    block: Arc<[Tuple]>,
    /// The records, in the order the wrapper returned them.
    ids: Vec<usize>,
    /// The rows' wire bytes, summed once.
    wire_bytes: usize,
    /// Given with the records, or written once by the first projection to
    /// finish building (racing builds are equal; a failed one writes nothing).
    order: OnceLock<Arc<MergeOrder>>,
}

/// A source's answer as it came, with its merge order and items if it had them.
impl From<SharedRecords> for Harvest {
    fn from(records: SharedRecords) -> Harvest {
        let order = records.items.map(|(merge_index, items)| MergeOrder {
            merge_index,
            by_item: None,
            items: Arc::new(items),
            residuals: RwLock::default(),
        });
        Harvest {
            block: records.block,
            ids: records.ids,
            wire_bytes: records.wire_bytes,
            order: order
                .map(Arc::new)
                .map_or_else(OnceLock::new, OnceLock::from),
        }
    }
}

impl Harvest {
    /// Wraps owned records and sums their wire bytes; nothing else is
    /// derived until the first projection.
    pub fn new(rows: Vec<Tuple>) -> Harvest {
        Harvest::from(SharedRecords::from(rows))
    }

    /// The records, in the order the wrapper returned them.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &Tuple> {
        self.ids.iter().map(|&i| &self.block[i])
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
        if let Some(short) = self.rows().find(|r| r.arity() <= mi) {
            return Err(FusionError::execution(format!(
                "cached answer of `{cond}` at R{} holds a row of arity {}, \
                 too short for the merge attribute at column {mi}",
                source.0 + 1,
                short.arity()
            )));
        }
        let key = |i: usize| self.block[i].get(mi);
        let by_item = (!self.ids.is_sorted_by(|&a, &b| key(a) <= key(b))).then(|| {
            let mut sorted = self.ids.clone();
            sorted.sort_by(|&a, &b| key(a).cmp(key(b)));
            sorted
        });
        let mut items: Vec<Item> = Vec::with_capacity(self.ids.len());
        for &i in by_item.as_deref().unwrap_or(&self.ids) {
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
        for &i in order.by_item.as_deref().unwrap_or(&self.ids) {
            let row = &self.block[i];
            let value = row.get(order.merge_index);
            if items.last().is_some_and(|last| last.value() == value) {
                continue;
            }
            if bound.eval(row)? {
                push_item_of(&mut items, value);
            }
        }
        items.shrink_to_fit();
        let items = Arc::new(ItemSet::from_sorted_unique(items));
        Ok(order.remember(cond, items, self.ids.len()))
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
        assert_eq!(order.by_item, None, "the ids were in merge order");
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
