//! In-memory relations: the view each wrapper exports (§2.1).
//!
//! Relations are row stores with optional per-attribute secondary indexes.
//! A source engine uses them to answer selection queries
//! (`sq(c_i, R_j)`), semijoin queries (`sjq(c_i, R_j, Y)`), and full loads
//! (`lq(R_j)`).

use crate::condition::{CmpOp, Condition, Predicate};
use crate::error::Result;
use crate::itemset::{push_clone, push_item_of, ItemSet};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{Item, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The merge-attribute index: the relation's distinct items in ascending
/// order, built once so that no query sorts or compares its answer. An
/// item's position is its *rank*; a selection marks the ranks of its rows
/// and reads the items off in rank order. Values that compare equal
/// (`Int(2)`, `Float(2.0)`) share a rank, shown as its first row's value.
#[derive(Debug, Clone)]
struct MergeIndex {
    /// Distinct merge values, ascending; position = rank.
    items: Vec<Item>,
    /// CSR offsets: the rows of rank `r` are `rows[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    /// Row ids grouped by rank, ascending within a rank.
    rows: Vec<usize>,
    /// Rank of each row.
    rank_of_row: Vec<usize>,
    /// Ranks whose rows do not all carry the rank's representation.
    mixed: BitSet,
    /// Each row's [`Tuple::wire_size`]: a selection sums without reading.
    wire_of_row: Vec<usize>,
}

impl MergeIndex {
    fn build(rows: &[Tuple], mi: usize) -> MergeIndex {
        let (values, starts, by_value) = group_rows_by(rows, mi);
        let mut rank_of_row = vec![0; rows.len()];
        let mut mixed = BitSet::new(values.len());
        for (rank, span) in starts.windows(2).enumerate() {
            for &rid in &by_value[span[0]..span[1]] {
                rank_of_row[rid] = rank;
                // Equal values that print apart: `2` and `2.0`, `0.0` and `-0.0`.
                let apart = match (rows[rid].get(mi), &values[rank]) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() != y.to_bits(),
                    (v, shown) => std::mem::discriminant(v) != std::mem::discriminant(shown),
                };
                if apart {
                    mixed.insert(rank);
                }
            }
        }
        MergeIndex {
            items: values.into_iter().map(Item).collect(),
            starts,
            rows: by_value,
            rank_of_row,
            mixed,
            wire_of_row: rows.iter().map(Tuple::wire_size).collect(),
        }
    }

    /// Row ids carrying the item of `rank`, in insertion order.
    fn rows_of(&self, rank: usize) -> &[usize] {
        &self.rows[self.starts[rank]..self.starts[rank + 1]]
    }

    /// Merge join of two sorted lists: yields `(i, rank)` for every
    /// `bindings[i]` that is the item of `rank`, in ascending order. A
    /// binding set much smaller than the index binary-searches forward
    /// instead of walking every item in between.
    fn join<'a>(&'a self, bindings: &'a [Item]) -> impl Iterator<Item = (usize, usize)> + 'a {
        let items = &self.items[..];
        let sparse = bindings.len() < items.len() / SPARSE_JOIN_RATIO;
        let (mut i, mut rank) = (0, 0);
        std::iter::from_fn(move || {
            while i < bindings.len() && rank < items.len() {
                if sparse {
                    rank += items[rank..].partition_point(|it| *it < bindings[i]);
                    if rank == items.len() {
                        break;
                    }
                }
                match bindings[i].cmp(&items[rank]) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => rank += 1,
                    Ordering::Equal => {
                        i += 1;
                        rank += 1;
                        return Some((i - 1, rank - 1));
                    }
                }
            }
            None
        })
    }
}

/// A binding set this many times smaller than the index it joins is
/// probed by forward binary search rather than merged by a linear walk
/// (the same ratio [`ItemSet::intersect`] switches at).
const SPARSE_JOIN_RATIO: usize = 16;

/// A fixed-size set of small integers (ranks, binding positions).
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Calls `f` with every set position, ascending.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// The items of `items` at the set positions, in position order.
    fn pick(&self, items: &[Item]) -> ItemSet {
        let count = self.words.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(count);
        self.for_each(|i| push_clone(&mut out, &items[i]));
        ItemSet::from_sorted_unique(out)
    }
}

/// A secondary index in the merge index's shape: one attribute's distinct
/// values ascending (equal across types: one key, the first row's), and the
/// ids of the rows holding each. A range of keys is a contiguous run of
/// `rows`: a comparison is two binary searches and one or two slices.
#[derive(Debug, Clone)]
struct SecondaryIndex {
    /// Distinct attribute values, ascending.
    keys: Vec<Value>,
    /// CSR offsets: the rows of `keys[k]` are `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    /// Row ids grouped by key, in insertion order within a key.
    rows: Vec<usize>,
}

impl SecondaryIndex {
    fn build(rows: &[Tuple], attr_idx: usize) -> SecondaryIndex {
        let (keys, starts, rows) = group_rows_by(rows, attr_idx);
        SecondaryIndex { keys, starts, rows }
    }

    /// The row ids of the keys at positions `range`.
    fn rows_of(&self, range: std::ops::Range<usize>) -> &[usize] {
        &self.rows[self.starts[range.start]..self.starts[range.end]]
    }
}

/// Groups row ids by the value at column `col`: the distinct values in
/// ascending order, CSR offsets (one more than values), and the row ids
/// grouped by value — by one stable sort, so the rows of a value stay in
/// insertion order and its first row supplies the value shown.
fn group_rows_by(rows: &[Tuple], col: usize) -> (Vec<Value>, Vec<usize>, Vec<usize>) {
    let mut by_value: Vec<usize> = (0..rows.len()).collect();
    by_value.sort_by(|&a, &b| rows[a].get(col).cmp(rows[b].get(col)));
    let mut values: Vec<Value> = Vec::new();
    let mut starts = Vec::new();
    for (pos, &rid) in by_value.iter().enumerate() {
        let v = rows[rid].get(col);
        if values.last() != Some(v) {
            values.push(v.clone());
            starts.push(pos);
        }
    }
    starts.push(by_value.len());
    (values, starts, by_value)
}

/// An in-memory relation over the common schema, its rows one shared block.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    rows: Arc<[Tuple]>,
    /// attr index → (value → row ids), built on demand.
    indexes: BTreeMap<usize, SecondaryIndex>,
    /// index over the merge attribute, built on demand.
    merge_index: Option<MergeIndex>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            rows: Arc::new([]),
            indexes: BTreeMap::new(),
            merge_index: None,
        }
    }

    /// Creates a relation from rows.
    ///
    /// # Panics
    /// Panics if a row's arity does not match the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Relation {
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.arity(),
                schema.arity(),
                "row {i} arity {} does not match schema arity {}",
                r.arity(),
                schema.arity()
            );
        }
        Relation {
            schema,
            rows: rows.into(),
            indexes: BTreeMap::new(),
            merge_index: None,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All tuples in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Builds a secondary index over attribute `attr_idx` (idempotent).
    pub fn build_index(&mut self, attr_idx: usize) {
        if self.indexes.contains_key(&attr_idx) {
            return;
        }
        self.indexes
            .insert(attr_idx, SecondaryIndex::build(&self.rows, attr_idx));
    }

    /// Builds the merge-attribute index (idempotent).
    pub fn build_merge_index(&mut self) {
        if self.merge_index.is_none() {
            self.merge_index = Some(MergeIndex::build(&self.rows, self.schema.merge_index()));
        }
    }

    /// Evaluates `sq(c, R)`: the set of items whose tuples satisfy `c`,
    /// together with the number of tuples examined (for cost accounting).
    ///
    /// Uses a secondary index for top-level point/range predicates when one
    /// has been built; falls back to a full scan otherwise. With the merge
    /// index built, the answer comes out in merge order without a sort.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors; an unknown attribute is
    /// reported before the first row, also on an empty relation.
    pub fn select_items(&self, cond: &Condition) -> Result<SelectOutcome> {
        let mut picked = Picked::new(self);
        let examined = self.for_each_match(cond, |rid| picked.add(rid))?;
        Ok(SelectOutcome {
            items: picked.finish(),
            tuples_examined: examined,
        })
    }

    /// The tuples satisfying `c` — a selection returning full records —
    /// in the order of [`Relation::select_shared`]'s ids, each a reference
    /// to the stored row.
    ///
    /// # Errors
    /// As [`Relation::select_items`].
    pub fn select_records(&self, cond: &Condition) -> Result<Vec<Tuple>> {
        let SharedRecords { block, ids, .. } = self.select_shared(cond)?;
        Ok(ids.into_iter().map(|rid| block[rid].clone()).collect())
    }

    /// The tuples satisfying `c` by reference, found as `select_items`
    /// finds its items: the row block and the matching ids — over the
    /// merge index in merge order (rank, then insertion), with wire bytes
    /// and items read off it (a mixed rank's from its first matching row,
    /// `2` or `2.0`); else in insertion order, with no items.
    ///
    /// # Errors
    /// As [`Relation::select_items`].
    pub fn select_shared(&self, cond: &Condition) -> Result<SharedRecords> {
        let index = self.merge_index.as_ref();
        let mut matched = BitSet::new(self.rows.len());
        let mut ranks = BitSet::new(index.map_or(0, |i| i.items.len()));
        let mut count = 0;
        self.for_each_match(cond, |rid| {
            matched.insert(rid);
            if let Some(index) = index {
                ranks.insert(index.rank_of_row[rid]);
            }
            count += 1;
        })?;
        let (mut ids, mut items) = (Vec::with_capacity(count), Vec::new());
        let mi = self.schema.merge_index();
        match index {
            None => matched.for_each(|rid| ids.push(rid)),
            Some(index) => ranks.for_each(|rank| {
                let first = ids.len();
                let rows = index.rows_of(rank).iter();
                ids.extend(rows.filter(|&&rid| matched.contains(rid)));
                if index.mixed.contains(rank) {
                    push_item_of(&mut items, self.rows[ids[first]].get(mi));
                } else {
                    push_clone(&mut items, &index.items[rank]);
                }
            }),
        }
        let wire =
            |rid: usize| index.map_or_else(|| self.rows[rid].wire_size(), |i| i.wire_of_row[rid]);
        Ok(SharedRecords {
            block: Arc::clone(&self.rows),
            wire_bytes: ids.iter().map(|&rid| wire(rid)).sum(),
            items: index.map(|_| (mi, ItemSet::from_sorted_unique(items))),
            ids,
        })
    }

    /// The one matching routine behind both selections: calls `hit` with
    /// the id of every row satisfying `cond`, once each, and returns the
    /// number of rows examined. A secondary index that answers the
    /// predicate on its own is walked (in index order, counting the
    /// entries traversed); anything else is one scan in insertion order
    /// with the attribute names resolved before the first row.
    fn for_each_match(&self, cond: &Condition, mut hit: impl FnMut(usize)) -> Result<usize> {
        if let Some((index, op, value)) = self.index_for(&cond.pred) {
            let mut examined = 0;
            for_each_indexed(index, op, value, |rids| {
                examined += rids.len();
                rids.iter().for_each(|&rid| hit(rid));
            });
            return Ok(examined);
        }
        let cond = cond.pred.bind(&self.schema)?;
        for (rid, row) in self.rows.iter().enumerate() {
            if cond.eval(row)? {
                hit(rid);
            }
        }
        Ok(self.rows.len())
    }

    /// The secondary index that answers `pred` on its own, if any: a single
    /// comparison of an indexed attribute against a non-NULL constant.
    fn index_for<'a>(
        &'a self,
        pred: &'a Predicate,
    ) -> Option<(&'a SecondaryIndex, CmpOp, &'a Value)> {
        let Predicate::Cmp { attr, op, value } = pred else {
            return None;
        };
        if matches!(value, Value::Null) {
            return None;
        }
        let index = self.indexes.get(&self.schema.index_of(attr).ok()?)?;
        Some((index, *op, value))
    }

    /// Evaluates `sjq(c, R, bindings)`: the subset of `bindings` whose items
    /// satisfy `c` at this relation (§2.1) — a merge join against the merge
    /// index, else one scan; the answer holds the bindings' own items.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn semijoin_items(&self, cond: &Condition, bindings: &ItemSet) -> Result<SelectOutcome> {
        let bound = bindings.as_slice();
        let cond = cond.pred.bind(&self.schema)?;
        let Some(merge_index) = &self.merge_index else {
            let mi = self.schema.merge_index();
            let mut kept = BitSet::new(bound.len());
            for row in self.rows.iter() {
                if let Some(i) = bindings.position_of(row.get(mi)) {
                    if cond.eval(row)? {
                        kept.insert(i);
                    }
                }
            }
            return Ok(SelectOutcome {
                items: kept.pick(bound),
                tuples_examined: self.rows.len(),
            });
        };
        let mut out = Vec::new();
        let mut examined = 0usize;
        for (i, rank) in merge_index.join(bound) {
            for &rid in merge_index.rows_of(rank) {
                examined += 1;
                if cond.eval(&self.rows[rid])? {
                    push_clone(&mut out, &bound[i]);
                    break;
                }
            }
        }
        Ok(SelectOutcome {
            items: ItemSet::from_sorted_unique(out),
            tuples_examined: examined,
        })
    }

    /// The tuples whose merge item is in `items`, in insertion order:
    /// membership per rank by one merge join over the merge index, else by
    /// a borrowed binary search per row; no item is cloned.
    pub fn rows_with_items<'a>(&'a self, items: &'a ItemSet) -> impl Iterator<Item = &'a Tuple> {
        let mi = self.schema.merge_index();
        let wanted = self.merge_index.as_ref().map(|index| {
            let mut ranks = BitSet::new(index.items.len());
            for (_, rank) in index.join(items.as_slice()) {
                ranks.insert(rank);
            }
            (ranks, &index.rank_of_row)
        });
        self.rows
            .iter()
            .enumerate()
            .filter(move |(rid, row)| match &wanted {
                Some((ranks, rank_of_row)) => ranks.contains(rank_of_row[*rid]),
                None => items.position_of(row.get(mi)).is_some(),
            })
            .map(|(_, row)| row)
    }

    /// All distinct merge-attribute items in the relation.
    pub fn distinct_items(&self) -> ItemSet {
        match &self.merge_index {
            Some(index) => ItemSet::from_sorted_unique(index.items.clone()),
            None => ItemSet::from_items(self.rows.iter().map(|r| r.item(&self.schema))),
        }
    }

    /// Total wire size in bytes if the entire relation is shipped (`lq`).
    pub fn wire_size(&self) -> usize {
        self.rows.iter().map(Tuple::wire_size).sum()
    }
}

/// Calls `take` with the row ids of every index entry satisfying
/// `entry op value` for a non-NULL `value`, in index order: one run of rows
/// per range of keys. As in [`Predicate::eval`], a NULL entry satisfies no
/// comparison; it sorts first, so the ranges that would reach it (`<`,
/// `<=`, `<>`) start past it.
fn for_each_indexed(
    index: &SecondaryIndex,
    op: CmpOp,
    value: &Value,
    mut take: impl FnMut(&[usize]),
) {
    let keys = &index.keys[..];
    let first = usize::from(matches!(keys.first(), Some(Value::Null)));
    let below = keys.partition_point(|k| k < value);
    let through = below + keys[below..].partition_point(|k| k <= value);
    match op {
        CmpOp::Eq => take(index.rows_of(below..through)),
        CmpOp::Lt => take(index.rows_of(first..below)),
        CmpOp::Le => take(index.rows_of(first..through)),
        CmpOp::Gt => take(index.rows_of(through..keys.len())),
        CmpOp::Ge => take(index.rows_of(below..keys.len())),
        CmpOp::Ne => {
            take(index.rows_of(first..below));
            take(index.rows_of(through..keys.len()));
        }
    }
}

/// The rows a selection has qualified so far. Over a merge index they are
/// a set of ranks; a relation without one (a freshly loaded `lq` answer)
/// has no ranks, so its items are collected and sorted at the end.
enum Picked<'a> {
    Ranked(&'a MergeIndex, BitSet),
    Unranked(&'a Relation, Vec<Item>),
}

impl<'a> Picked<'a> {
    fn new(relation: &'a Relation) -> Picked<'a> {
        match &relation.merge_index {
            Some(index) => Picked::Ranked(index, BitSet::new(index.items.len())),
            None => Picked::Unranked(relation, Vec::new()),
        }
    }

    fn add(&mut self, rid: usize) {
        match self {
            Picked::Ranked(index, ranks) => ranks.insert(index.rank_of_row[rid]),
            Picked::Unranked(relation, items) => {
                items.push(relation.rows[rid].item(&relation.schema));
            }
        }
    }

    fn finish(self) -> ItemSet {
        match self {
            Picked::Ranked(index, ranks) => ranks.pick(&index.items),
            Picked::Unranked(_, items) => ItemSet::from_items(items),
        }
    }
}

/// A record selection by reference ([`Relation::select_shared`]).
#[derive(Debug, Clone)]
pub struct SharedRecords {
    /// The rows the ids index, shared whole.
    pub block: Arc<[Tuple]>,
    /// The answer's rows: in merge order when `items` is set.
    pub ids: Vec<usize>,
    /// The merge column of that order, and the answer's distinct items.
    pub items: Option<(usize, ItemSet)>,
    /// The sum of the answer rows' [`Tuple::wire_size`]s.
    pub wire_bytes: usize,
}

/// Owned records become a block of their own, ids in the order given.
impl From<Vec<Tuple>> for SharedRecords {
    fn from(rows: Vec<Tuple>) -> SharedRecords {
        SharedRecords {
            wire_bytes: rows.iter().map(Tuple::wire_size).sum(),
            ids: (0..rows.len()).collect(),
            block: rows.into(),
            items: None,
        }
    }
}

/// Result of a selection or semijoin evaluation at a source, with the
/// amount of work done (for the processing component of query cost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectOutcome {
    /// Qualifying items.
    pub items: ItemSet,
    /// Tuples the engine had to examine.
    pub tuples_examined: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FusionError;
    use crate::schema::dmv_schema;
    use crate::tuple;

    /// The paper's Figure 1, relation R1.
    fn r1() -> Relation {
        Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["J55", "dui", 1993i64],
                tuple!["T21", "sp", 1994i64],
                tuple!["T80", "dui", 1993i64],
            ],
        )
    }

    #[test]
    fn select_items_full_scan() {
        let out = r1()
            .select_items(&Predicate::eq("V", "dui").into())
            .unwrap();
        assert_eq!(out.items, ItemSet::from_items(["J55", "T80"]));
        assert_eq!(out.tuples_examined, 3);
    }

    #[test]
    fn select_items_via_index() {
        let mut r = r1();
        r.build_index(1);
        let out = r.select_items(&Predicate::eq("V", "dui").into()).unwrap();
        assert_eq!(out.items, ItemSet::from_items(["J55", "T80"]));
        assert_eq!(out.tuples_examined, 2, "index should touch only matches");
    }

    #[test]
    fn index_range_scans() {
        let mut r = r1();
        r.build_index(2);
        let lt = r
            .select_items(&Predicate::cmp("D", CmpOp::Lt, 1994i64).into())
            .unwrap();
        assert_eq!(lt.items, ItemSet::from_items(["J55", "T80"]));
        let ge = r
            .select_items(&Predicate::cmp("D", CmpOp::Ge, 1994i64).into())
            .unwrap();
        assert_eq!(ge.items, ItemSet::from_items(["T21"]));
        let ne = r
            .select_items(&Predicate::cmp("D", CmpOp::Ne, 1993i64).into())
            .unwrap();
        assert_eq!(ne.items, ItemSet::from_items(["T21"]));
    }

    #[test]
    fn index_and_scan_agree() {
        let mut indexed = r1();
        indexed.build_index(1);
        let plain = r1();
        for cond in [
            Predicate::eq("V", "dui"),
            Predicate::eq("V", "nope"),
            Predicate::cmp("V", CmpOp::Ge, "sp"),
        ] {
            let a = indexed.select_items(&cond.clone().into()).unwrap().items;
            let b = plain.select_items(&cond.into()).unwrap().items;
            assert_eq!(a, b);
        }
    }

    #[test]
    fn semijoin_scan_and_probe_agree() {
        let bindings = ItemSet::from_items(["J55", "T21", "ZZZ"]);
        let cond: Condition = Predicate::eq("V", "sp").into();
        let scan = r1().semijoin_items(&cond, &bindings).unwrap();
        let mut probed = r1();
        probed.build_merge_index();
        let probe = probed.semijoin_items(&cond, &bindings).unwrap();
        assert_eq!(scan.items, ItemSet::from_items(["T21"]));
        assert_eq!(scan.items, probe.items);
        assert!(probe.tuples_examined <= scan.tuples_examined);
    }

    #[test]
    fn semijoin_result_is_subset_of_bindings() {
        let bindings = ItemSet::from_items(["T80"]);
        let out = r1()
            .semijoin_items(&Predicate::eq("V", "dui").into(), &bindings)
            .unwrap();
        assert!(out.items.is_subset_of(&bindings));
        assert_eq!(out.items, bindings);
    }

    #[test]
    fn a_rank_shows_the_value_of_its_first_row() {
        // Int(2) and Float(2.0) are one item. The merge index keeps the
        // value of the first row that carries it, whichever row qualifies.
        let mut r = Relation::from_rows(
            dmv_schema(),
            vec![tuple![2.0f64, "dui", 1993i64], tuple![2i64, "sp", 1994i64]],
        );
        let sp: Condition = Predicate::eq("V", "sp").into();
        let unranked = r.select_items(&sp).unwrap().items;
        assert_eq!(unranked.to_string(), "{2}");
        r.build_merge_index();
        let ranked = r.select_items(&sp).unwrap().items;
        assert_eq!(ranked.to_string(), "{2.0}");
        assert_eq!(ranked, unranked, "the same set either way");
        assert_eq!(r.distinct_items().len(), 1);
        // A semijoin answers with the bindings' own items.
        let bindings = ItemSet::from_items([2i64]);
        let out = r.semijoin_items(&sp, &bindings).unwrap();
        assert_eq!(out.items.to_string(), "{2}");
        assert_eq!(out.tuples_examined, 2);
    }

    #[test]
    fn indexed_comparisons_skip_null_attributes() {
        let mut r = Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["J55", "dui", Value::Null],
                tuple!["T21", "sp", 1994i64],
                tuple!["T80", "dui", 1993i64],
            ],
        );
        let plain = r.clone();
        r.build_index(2);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Ne, CmpOp::Gt, CmpOp::Ge] {
            let cond: Condition = Predicate::cmp("D", op, 1994i64).into();
            let indexed = r.select_items(&cond).unwrap();
            assert_eq!(indexed.items, plain.select_items(&cond).unwrap().items);
            assert!(!indexed.items.contains(&Item::new("J55")), "{cond}");
            assert_eq!(indexed.tuples_examined, indexed.items.len(), "{cond}");
        }
    }

    #[test]
    fn rows_with_items_keeps_insertion_order_with_and_without_index() {
        let wanted = ItemSet::from_items(["T80", "J55", "ZZZ"]);
        let mut r = r1();
        let plain: Vec<&Tuple> = r.rows_with_items(&wanted).collect();
        assert_eq!(plain, [&r.rows()[0], &r.rows()[2]]);
        let plain: Vec<Tuple> = plain.into_iter().cloned().collect();
        r.build_merge_index();
        let ranked: Vec<Tuple> = r.rows_with_items(&wanted).cloned().collect();
        assert_eq!(ranked, plain);
        assert_eq!(r.rows_with_items(&ItemSet::empty()).count(), 0);
    }

    #[test]
    fn distinct_items_and_sizes() {
        let r = r1();
        assert_eq!(r.distinct_items().len(), 3);
        assert_eq!(r.len(), 3);
        assert!(r.wire_size() > 0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Relation::from_rows(dmv_schema(), vec![tuple!["J55", "dui"]]);
    }

    #[test]
    fn select_records_come_in_merge_order_through_the_index() {
        let mut r = Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["T80", "dui", 1993i64],
                tuple!["J55", "dui", 1995i64],
                tuple!["T21", "sp", 1994i64],
                tuple!["J55", "dui", 1993i64],
            ],
        );
        let dui: Condition = Predicate::eq("V", "dui").into();
        let rows = |r: &Relation| r.select_records(&dui).unwrap();
        // No merge index: insertion order.
        assert_eq!(rows(&r), [0, 1, 3].map(|i| r.rows()[i].clone()));
        r.build_index(1);
        assert_eq!(rows(&r), [0, 1, 3].map(|i| r.rows()[i].clone()));
        // Merge order: rank ascending, a rank's rows in insertion order.
        r.build_merge_index();
        assert_eq!(rows(&r), [1, 3, 0].map(|i| r.rows()[i].clone()));
        // The records are the stored rows, shared.
        assert!(std::ptr::eq(rows(&r)[0].values(), r.rows()[1].values()));
    }

    #[test]
    fn an_unknown_attribute_fails_before_the_first_row() {
        let unknown: [Condition; 2] = [
            Predicate::eq("Z", 1i64).into(),
            // Row-at-a-time evaluation would never reach `Z`.
            Predicate::And(vec![Predicate::Const(false), Predicate::eq("Z", 1i64)]).into(),
        ];
        let mut indexed = r1();
        indexed.build_index(1);
        indexed.build_merge_index();
        for r in [Relation::empty(dmv_schema()), r1(), indexed] {
            for cond in &unknown {
                let items = r.select_items(cond).unwrap_err();
                let records = r.select_records(cond).unwrap_err();
                assert!(
                    matches!(items, FusionError::UnknownAttribute { .. }),
                    "{cond}"
                );
                assert_eq!(records, items, "{cond}");
            }
        }
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(dmv_schema());
        assert!(r.is_empty());
        let out = r.select_items(&Predicate::eq("V", "dui").into()).unwrap();
        assert!(out.items.is_empty());
    }
}
