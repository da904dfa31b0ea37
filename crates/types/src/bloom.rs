//! Bloom filters over item sets.
//!
//! A classic way to cut semijoin shipping costs (Babb 1979's hash-bit
//! filters, the basis of "bloomjoins"): instead of the full semijoin set
//! `X`, the mediator ships a bit vector; the source returns every
//! qualifying item whose hash positions are all set. The reply is a
//! *superset* of `X ∩ σ_c(R)` (false positives pass the filter), so the
//! mediator intersects the reply with `X` locally — restoring exact
//! semantics at zero extra communication.
//!
//! The filter for `k` items at `b` bits per item costs `k·b/8` bytes on
//! the wire versus `k · avg_item_bytes` for the explicit set, at the
//! price of a false-positive rate of roughly `0.5^{b·ln2}` returning
//! extra items.

use crate::itemset::ItemSet;
use crate::value::Item;
use std::hash::{Hash, Hasher};

/// Expected false-positive rate of a filter built at `bits_per_item`
/// density with the optimal hash count: `0.5^{b·ln 2} ≈ 0.6185^b`.
pub fn expected_fpr_for_bits(bits_per_item: f64) -> f64 {
    0.5f64.powf(bits_per_item.max(1.0) * std::f64::consts::LN_2)
}

/// A fixed-size Bloom filter over items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    n_hashes: u32,
}

impl BloomFilter {
    /// Builds a filter sized for `items` at `bits_per_item` bits per item
    /// (clamped to at least 1), with the standard optimal hash count
    /// `k = bits_per_item · ln 2`.
    pub fn build(items: &ItemSet, bits_per_item: f64) -> BloomFilter {
        let bpi = bits_per_item.max(1.0);
        let n_bits = ((items.len().max(1) as f64 * bpi).ceil() as u64).max(64);
        let n_hashes = ((bpi * std::f64::consts::LN_2).round() as u32).clamp(1, 16);
        let mut filter = BloomFilter {
            bits: vec![0u64; n_bits.div_ceil(64) as usize],
            n_bits,
            n_hashes,
        };
        for item in items {
            filter.insert(item);
        }
        filter
    }

    /// Inserts one item.
    pub fn insert(&mut self, item: &Item) {
        let (h1, h2) = self.hash_pair(item);
        for i in 0..self.n_hashes {
            let bit = self.index(h1, h2, i);
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Membership test: true if the item *may* be in the set (false
    /// positives possible, false negatives impossible).
    pub fn may_contain(&self, item: &Item) -> bool {
        let (h1, h2) = self.hash_pair(item);
        (0..self.n_hashes).all(|i| {
            let bit = self.index(h1, h2, i);
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Wire size in bytes (bit array plus a small header).
    pub fn wire_size(&self) -> usize {
        8 + self.bits.len() * 8
    }

    /// Number of bits in the filter.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Number of hash functions.
    pub fn n_hashes(&self) -> u32 {
        self.n_hashes
    }

    /// Expected false-positive rate for the standard formula
    /// `(1 − e^{−kn/m})^k` given `n` inserted items.
    pub fn expected_fpr(&self, n_items: usize) -> f64 {
        let k = self.n_hashes as f64;
        let m = self.n_bits as f64;
        let n = n_items as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Double hashing: two independent 64-bit hashes per item.
    fn hash_pair(&self, item: &Item) -> (u64, u64) {
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        item.hash(&mut h1);
        let a = h1.finish();
        // Derive the second hash by re-hashing with a salt.
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        0xA5A5_5A5A_u64.hash(&mut h2);
        item.hash(&mut h2);
        let b = h2.finish() | 1; // odd, to cycle through all positions
        (a, b)
    }

    fn index(&self, h1: u64, h2: u64, i: u32) -> u64 {
        h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.n_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize) -> ItemSet {
        (0..n as i64).collect()
    }

    #[test]
    fn no_false_negatives() {
        let items = set(500);
        let f = BloomFilter::build(&items, 8.0);
        for item in &items {
            assert!(f.may_contain(item), "false negative for {item}");
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let items = set(1_000);
        let f = BloomFilter::build(&items, 10.0);
        let mut fp = 0usize;
        let probes = 10_000;
        for i in 0..probes as i64 {
            let outside = Item::new(1_000_000 + i);
            if f.may_contain(&outside) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        let expected = f.expected_fpr(1_000);
        assert!(rate < 0.05, "rate {rate} too high");
        assert!(
            (rate - expected).abs() < 0.03,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn wire_size_scales_with_bits_per_item() {
        let items = set(1_000);
        let small = BloomFilter::build(&items, 4.0);
        let large = BloomFilter::build(&items, 16.0);
        assert!(small.wire_size() < large.wire_size());
        // Far smaller than the explicit 8-byte-per-item set.
        assert!(small.wire_size() < items.wire_size() / 2);
    }

    #[test]
    fn empty_and_tiny_sets() {
        let empty = BloomFilter::build(&ItemSet::empty(), 8.0);
        assert!(!empty.may_contain(&Item::new(1i64)));
        assert!(empty.n_bits() >= 64);
        let one = BloomFilter::build(&ItemSet::from_items([7i64]), 8.0);
        assert!(one.may_contain(&Item::new(7i64)));
    }

    #[test]
    fn hash_count_follows_bits_per_item() {
        let items = set(100);
        assert_eq!(BloomFilter::build(&items, 1.0).n_hashes(), 1);
        let ten = BloomFilter::build(&items, 10.0);
        assert_eq!(ten.n_hashes(), 7, "10·ln2 ≈ 6.93 → 7");
    }

    #[test]
    fn bit_pattern_is_pinned_across_item_representations() {
        // Golden bits taken from the build in which `Value::Str` held a
        // `String`: an item must hash the same however its string is stored
        // (inline, boxed), or filters built by one side stop matching.
        let items: ItemSet = [
            Item::new("J55"),
            Item::new("E0001234"),
            Item::new(""),
            Item::new("0-306-40615-2 (a long ISBN-like key)"),
            Item::new("日本語のテキスト"),
            Item::new(17i64),
            Item(crate::Value::Float(2.5)),
            Item(crate::Value::Null),
        ]
        .into_iter()
        .collect();
        let f = BloomFilter::build(&items, 10.0);
        assert_eq!((f.n_bits, f.n_hashes), (80, 7));
        assert_eq!(f.bits, [7_458_165_824_419_528_466, 33_948]);
    }

    #[test]
    fn string_items_work() {
        let items = ItemSet::from_items(["J55", "T21", "T80"]);
        let f = BloomFilter::build(&items, 12.0);
        assert!(f.may_contain(&Item::new("J55")));
        assert!(f.may_contain(&Item::new("T21")));
    }
}
