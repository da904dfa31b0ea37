//! Ordered item sets with the local mediator algebra (∪, ∩, −).
//!
//! Simple plans let the mediator combine the item sets it receives from
//! sources with union and intersection (§2.3); the SJA+ postoptimizer adds
//! set difference (§4). All three are implemented as linear merges over
//! sorted, deduplicated storage, so every operation is `O(|a| + |b|)`.

use crate::value::{Item, Value};
use std::fmt;

/// A sorted, duplicate-free set of merge-attribute items.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct ItemSet {
    items: Vec<Item>,
}

impl ItemSet {
    /// The empty set.
    pub fn empty() -> Self {
        ItemSet { items: Vec::new() }
    }

    /// Builds a set from any item iterator, sorting and deduplicating.
    pub fn from_items<I, T>(iter: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Item>,
    {
        let mut items: Vec<Item> = iter.into_iter().map(Into::into).collect();
        items.sort();
        items.dedup();
        ItemSet { items }
    }

    /// Builds a set from a vector already known to be sorted and unique.
    ///
    /// # Panics
    /// In debug builds, panics if the invariant does not hold.
    pub fn from_sorted_unique(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "from_sorted_unique requires strictly increasing items"
        );
        ItemSet { items }
    }

    /// Number of items in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test by binary search.
    pub fn contains(&self, item: &Item) -> bool {
        self.position_of(item.value()).is_some()
    }

    /// Position of the item equal to `value`, by binary search on the
    /// borrowed value (no [`Item`] has to be built to ask).
    pub(crate) fn position_of(&self, value: &Value) -> Option<usize> {
        self.items.binary_search_by(|it| it.value().cmp(value)).ok()
    }

    /// Iterates items in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items.iter()
    }

    /// Borrows the underlying sorted slice.
    pub fn as_slice(&self) -> &[Item] {
        &self.items
    }

    /// Set union: `self ∪ other`.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        ItemSet {
            items: merge_union(self.items.iter(), other.items.iter(), push_clone),
        }
    }

    /// Set intersection: `self ∩ other`.
    pub fn intersect(&self, other: &ItemSet) -> ItemSet {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        // Merge when sizes are comparable; probe when one side is tiny.
        // Divide the large side rather than multiplying the small one:
        // `small.len() * 16` can overflow on huge sets.
        if small.len() < large.len() / 16 {
            let items = small
                .items
                .iter()
                .filter(|it| large.contains(it))
                .cloned()
                .collect();
            return ItemSet { items };
        }
        let mut out = Vec::with_capacity(small.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    push_clone(&mut out, &self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ItemSet { items: out }
    }

    /// Set difference: `self − other` (the SJA+ pruning operator, §4).
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() {
            if j >= other.items.len() {
                out.extend_from_slice(&self.items[i..]);
                break;
            }
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    push_clone(&mut out, &self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        ItemSet { items: out }
    }

    /// True if every item of `self` is in `other`.
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        // Probe when `self` is tiny relative to `other`; for comparable
        // sizes a linear merge beats per-item binary search.
        if self.len() < other.len() / 16 {
            return self.items.iter().all(|it| other.contains(it));
        }
        let mut j = 0;
        for it in &self.items {
            while j < other.items.len() && other.items[j] < *it {
                j += 1;
            }
            if j >= other.items.len() || other.items[j] != *it {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Union of many sets (the `X_i := ∪_j X_ij` plan step).
    ///
    /// Three or more inputs are merged pairwise in balanced rounds —
    /// `O(N log k)` comparisons for `N` total input items. Inputs that
    /// hold nothing but inline strings, as merge keys are, go through the
    /// rounds as bare integers, merged without a data-dependent branch;
    /// any other mix as *borrowed* items, of which only the last round,
    /// which sees each survivor once, clones.
    pub fn union_all<'a, I: IntoIterator<Item = &'a ItemSet>>(sets: I) -> ItemSet {
        let slices: Vec<&[Item]> = sets
            .into_iter()
            .map(ItemSet::as_slice)
            .filter(|s| !s.is_empty())
            .collect();
        let items = match slices[..] {
            [] => Vec::new(),
            [only] => only.to_vec(),
            [a, b] => merge_union(a.iter(), b.iter(), push_clone),
            _ => match inline_keys(&slices) {
                Some(runs) => union_of_keys(runs),
                None => union_of_borrowed(&slices),
            },
        };
        ItemSet { items }
    }

    /// Estimated wire size in bytes when shipped as a semijoin set.
    pub fn wire_size(&self) -> usize {
        self.items.iter().map(Item::wire_size).sum()
    }
}

/// Merges `runs` pairwise, in balanced rounds, until `at_most` are left.
fn merge_rounds<T>(
    mut runs: Vec<Vec<T>>,
    at_most: usize,
    merge: impl Fn(&[T], &[T]) -> Vec<T>,
) -> Vec<Vec<T>> {
    while runs.len() > at_most {
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        let mut rest = runs.into_iter();
        while let Some(a) = rest.next() {
            merged.push(match rest.next() {
                Some(b) => merge(&a, &b),
                None => a,
            });
        }
        runs = merged;
    }
    runs
}

/// The union of three or more sorted runs of any items: every round but
/// the last passes borrows along, the last one clones the survivors.
fn union_of_borrowed(slices: &[&[Item]]) -> Vec<Item> {
    let runs: Vec<Vec<&Item>> = slices
        .chunks(2)
        .map(|pair| match *pair {
            [a, b] => merge_union(a.iter(), b.iter(), Vec::push),
            _ => pair[0].iter().collect(),
        })
        .collect();
    let runs = merge_rounds(runs, 2, |a, b| {
        merge_union(a.iter().copied(), b.iter().copied(), Vec::push)
    });
    merge_union(runs[0].iter().copied(), runs[1].iter().copied(), push_clone)
}

/// Every run as [`Item::inline_key`]s, if every item has one.
fn inline_keys(slices: &[&[Item]]) -> Option<Vec<Vec<u128>>> {
    slices
        .iter()
        .map(|run| run.iter().map(Item::inline_key).collect())
        .collect()
}

/// The union of sorted runs of inline strings, merged as their keys. A
/// key is the whole string, so no round looks at an item and the answer
/// is rebuilt from the surviving keys.
fn union_of_keys(runs: Vec<Vec<u128>>) -> Vec<Item> {
    let merged = merge_rounds(runs, 1, merge_keys);
    merged[0]
        .iter()
        .copied()
        .map(Item::from_inline_key)
        .collect()
}

/// Linear merge of two sorted, duplicate-free runs of integers, without a
/// data-dependent branch: which side an element comes from, and which
/// cursors move, are selects and flag additions. A merge step over items
/// costs mostly its mispredicted three-way branch — sources answer with
/// independent subsets, so the order the runs interleave in is noise.
fn merge_keys(a: &[u128], b: &[u128]) -> Vec<u128> {
    let mut out = vec![0; a.len() + b.len()];
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (p, q) = (a[i], b[j]);
        out[len] = if p <= q { p } else { q };
        len += 1;
        i += usize::from(p <= q);
        j += usize::from(q <= p);
    }
    out.truncate(len);
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Linear merge of two sorted, duplicate-free runs of borrowed items.
/// `put` appends each survivor to the output: as a clone, or — in the
/// inner rounds of [`union_of_borrowed`] — as the borrow itself.
fn merge_union<'a, O>(
    mut a: impl ExactSizeIterator<Item = &'a Item>,
    mut b: impl ExactSizeIterator<Item = &'a Item>,
    put: impl Fn(&mut Vec<O>, &'a Item),
) -> Vec<O> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut x, mut y) = (a.next(), b.next());
    while let (Some(p), Some(q)) = (x, y) {
        match p.cmp(q) {
            std::cmp::Ordering::Less => {
                put(&mut out, p);
                x = a.next();
            }
            std::cmp::Ordering::Greater => {
                put(&mut out, q);
                y = b.next();
            }
            std::cmp::Ordering::Equal => {
                put(&mut out, p);
                x = a.next();
                y = b.next();
            }
        }
    }
    for rest in x.into_iter().chain(a) {
        put(&mut out, rest);
    }
    for rest in y.into_iter().chain(b) {
        put(&mut out, rest);
    }
    out
}

/// Appends a clone of `item`, built in place. `out.push(item.clone())`
/// holds the clone across the call that may grow the vector, and the
/// compiler then assembles it in a stack slot and copies it over from
/// there: a store-forwarding stall per item, on the busiest lines of the
/// data plane.
#[inline]
pub(crate) fn push_clone(out: &mut Vec<Item>, item: &Item) {
    out.extend_from_slice(std::slice::from_ref(item));
}

/// `push_clone` of the item a bare value makes (a merge column read off
/// a row): the vector makes room first and the clone is built straight
/// into it, never held across the call that may grow it.
#[inline]
pub fn push_item_of(out: &mut Vec<Item>, value: &Value) {
    out.extend(std::iter::once(value).map(|v| Item(v.clone())));
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, item) in self.items.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl<T: Into<Item>> FromIterator<T> for ItemSet {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        ItemSet::from_items(iter)
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[&str]) -> ItemSet {
        ItemSet::from_items(vals.iter().copied())
    }

    #[test]
    fn from_items_sorts_and_dedups() {
        let s = set(&["T21", "J55", "T21", "A01"]);
        let names: Vec<String> = s.iter().map(std::string::ToString::to_string).collect();
        assert_eq!(names, ["A01", "J55", "T21"]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_matches_paper_example() {
        // §1: X_1 = {J55, T80, T21}, the union of dui items at all sources.
        let x11 = set(&["J55", "T80"]);
        let x12 = set(&["T21"]);
        let x13 = ItemSet::empty();
        let x1 = ItemSet::union_all([&x11, &x12, &x13]);
        assert_eq!(x1, set(&["J55", "T21", "T80"]));
    }

    #[test]
    fn intersect_basics() {
        let a = set(&["a", "b", "c", "d"]);
        let b = set(&["b", "d", "e"]);
        assert_eq!(a.intersect(&b), set(&["b", "d"]));
        assert_eq!(a.intersect(&ItemSet::empty()), ItemSet::empty());
    }

    #[test]
    fn intersect_probe_path_for_skewed_sizes() {
        let big: ItemSet = (0..1000i64).collect();
        let small: ItemSet = [5i64, 999, 1000].into_iter().collect();
        let got = big.intersect(&small);
        assert_eq!(got, [5i64, 999].into_iter().collect());
        // Symmetric call takes the same path.
        assert_eq!(small.intersect(&big), got);
    }

    #[test]
    fn difference_matches_paper_example() {
        // §1: X_1 − Y_1 with X_1 = {J55, T80, T21}, Y_1 = {T21}.
        let x1 = set(&["J55", "T80", "T21"]);
        let y1 = set(&["T21"]);
        assert_eq!(x1.difference(&y1), set(&["J55", "T80"]));
    }

    #[test]
    fn difference_edge_cases() {
        let a = set(&["a", "b"]);
        assert_eq!(a.difference(&ItemSet::empty()), a);
        assert_eq!(ItemSet::empty().difference(&a), ItemSet::empty());
        assert_eq!(a.difference(&a), ItemSet::empty());
    }

    #[test]
    fn contains_and_subset() {
        let a = set(&["a", "c"]);
        let b = set(&["a", "b", "c"]);
        assert!(a.contains(&Item::new("c")));
        assert!(!a.contains(&Item::new("b")));
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
    }

    /// The reference pairwise fold `union_all` replaced.
    fn union_all_fold<'a, I: IntoIterator<Item = &'a ItemSet>>(sets: I) -> ItemSet {
        sets.into_iter()
            .fold(ItemSet::empty(), |acc, s| acc.union(s))
    }

    #[test]
    fn union_all_kway_matches_fold_across_sizes() {
        // Size-parameterized parity: k sets of varying sizes, strides,
        // and overlap, including empties and all-equal sets.
        for k in [0usize, 1, 2, 3, 5, 8, 13] {
            for stride in [1i64, 2, 3, 7] {
                let sets: Vec<ItemSet> = (0..k)
                    .map(|s| {
                        (0..(20 * (s + 1) as i64))
                            .map(|v| v * stride + s as i64)
                            .collect()
                    })
                    .collect();
                let refs: Vec<&ItemSet> = sets.iter().collect();
                assert_eq!(
                    ItemSet::union_all(refs.iter().copied()),
                    union_all_fold(refs.iter().copied()),
                    "k {k} stride {stride}"
                );
            }
        }
        // Empties interleaved.
        let a = set(&["a", "c"]);
        let e = ItemSet::empty();
        let b = set(&["b", "c", "d"]);
        assert_eq!(
            ItemSet::union_all([&e, &a, &e, &b, &e]),
            union_all_fold([&a, &b])
        );
        // Identical sets collapse.
        assert_eq!(ItemSet::union_all([&a, &a, &a]), a);
    }

    #[test]
    fn both_union_kernels_agree_on_inline_strings() {
        // Keys that differ only in the second word, in the length byte
        // (a trailing NUL against its prefix), or not at all; the empty
        // string, whose key is zero; the longest inline string.
        let pool = [
            "",
            "\0",
            "a",
            "a\0",
            "E0001234",
            "E0001234\0",
            "E0001234a",
            "E0001235",
            "abcdefghijklmn",
            "abcdefghijklmn\0",
            "abcdefghijklmno",
            "é",
            "🦀🦀🦀abc",
        ];
        let mut below = crate::xorshift_below();
        for k in 3..=17 {
            let sets: Vec<ItemSet> = (0..k)
                .map(|_| (0..1 + below(9)).map(|_| pool[below(pool.len())]).collect())
                .collect();
            let slices: Vec<&[Item]> = sets.iter().map(ItemSet::as_slice).collect();
            let keyed = union_of_keys(inline_keys(&slices).expect("all inline"));
            let borrowed = union_of_borrowed(&slices);
            assert_eq!(keyed, borrowed, "k {k}");
            assert_eq!(ItemSet::union_all(&sets).as_slice(), &keyed[..], "k {k}");
            assert_eq!(ItemSet::union_all(&sets), union_all_fold(&sets), "k {k}");
        }
        // One item without a key sends every input down the borrowed path.
        let long = set(&["a-string-past-the-inline-limit"]);
        let int: ItemSet = [7i64].into_iter().collect();
        for odd in [&long, &int] {
            let slices = [set(&["a"]), odd.clone(), set(&["b"])];
            let slices: Vec<&[Item]> = slices.iter().map(ItemSet::as_slice).collect();
            assert!(inline_keys(&slices).is_none());
        }
    }

    #[test]
    fn intersect_parity_at_probe_threshold_boundaries() {
        // The probe-path guard is `small < large / 16`. Check byte-equal
        // results on both sides of the boundary: large = 16*small (merge)
        // and large = 16*small + 16 (probe).
        for small_len in [1usize, 4, 10] {
            let small: ItemSet = (0..small_len as i64).map(|v| v * 5).collect();
            for large_len in [16 * small_len, 16 * small_len + 16] {
                let large: ItemSet = (0..large_len as i64).collect();
                let expect: ItemSet = small
                    .iter()
                    .filter(|it| large.contains(it))
                    .cloned()
                    .collect();
                assert_eq!(small.intersect(&large), expect, "{small_len}/{large_len}");
                assert_eq!(large.intersect(&small), expect, "{small_len}/{large_len}");
            }
        }
    }

    #[test]
    fn is_subset_of_parity_at_threshold_boundaries() {
        for small_len in [2usize, 8] {
            for large_len in [16 * small_len, 16 * small_len + 16] {
                let large: ItemSet = (0..large_len as i64).collect();
                let inside: ItemSet = (0..small_len as i64).map(|v| v * 3).collect();
                assert!(inside.is_subset_of(&large), "{small_len}/{large_len}");
                let outside: ItemSet = (0..small_len as i64)
                    .map(|v| v * 3)
                    .chain([large_len as i64 + 1])
                    .collect();
                assert!(!outside.is_subset_of(&large), "{small_len}/{large_len}");
            }
        }
        // Equal sizes take the merge path; a larger "subset" short-circuits.
        let a = set(&["a", "b", "c"]);
        assert!(a.is_subset_of(&a));
        let bigger = set(&["a", "b", "c", "d"]);
        assert!(!bigger.is_subset_of(&a));
        assert!(ItemSet::empty().is_subset_of(&a));
        assert!(ItemSet::empty().is_subset_of(&ItemSet::empty()));
    }

    #[test]
    fn display() {
        assert_eq!(set(&["J55", "T21"]).to_string(), "{J55, T21}");
        assert_eq!(ItemSet::empty().to_string(), "{}");
    }

    #[test]
    fn wire_size_sums_items() {
        let s: ItemSet = [1i64, 2].into_iter().collect();
        assert_eq!(s.wire_size(), 16);
    }

    #[test]
    fn mixed_type_items_order_consistently() {
        let s: ItemSet = [Item::new(2i64), Item::new("a"), Item::new(1i64)]
            .into_iter()
            .collect();
        let shown: Vec<String> = s.iter().map(std::string::ToString::to_string).collect();
        assert_eq!(shown, ["1", "2", "a"]);
    }
}
