//! Subsumption soundness battery: whenever the cache serves a lookup —
//! exactly or through a subsuming entry's residual filter — the served
//! items must be byte-identical to evaluating the selection directly
//! against the source relation. Driven by seeded random relations and
//! condition pairs; the width is `width("cache-subsumption")`.

mod common;

use common::{for_seeds, width};
use fusion::cache::{subsumes, AnswerCache};
use fusion::types::schema::dmv_schema;
use fusion::types::{Condition, Cost, ItemSet, Relation, Schema, SourceId};

/// What `sq(cond, rel)` returns: matching rows' items, deduplicated and
/// sorted by the item-set algebra.
fn direct_sq(rel: &Relation, cond: &Condition, schema: &Schema) -> ItemSet {
    let items: Vec<_> = rel
        .rows()
        .iter()
        .filter(|t| cond.eval(t, schema).unwrap())
        .map(|t| t.item(schema))
        .collect();
    ItemSet::from_items(items)
}

/// Rows of `rel` matching `cond` — what a record-fetching `sq` caches.
fn matching_rows(rel: &Relation, cond: &Condition, schema: &Schema) -> Vec<fusion::types::Tuple> {
    rel.rows()
        .iter()
        .filter(|t| cond.eval(t, schema).unwrap())
        .cloned()
        .collect()
}

/// Cache a random condition's answer, then look up a second random
/// condition. Whenever the cache serves — and it must serve when the
/// prover says the cached condition subsumes the probe — the items are
/// byte-identical to direct evaluation. The battery must exercise both
/// exact and residual hits.
#[test]
fn served_lookups_match_direct_evaluation() {
    let schema = dmv_schema();
    let mut exact_hits = 0u64;
    let mut residual_hits = 0u64;
    for_seeds(width("cache-subsumption"), |g| {
        let rel = g.relation();
        let cached_cond = g.condition();
        let probe = g.condition();
        let s = SourceId(0);

        let mut cache = AnswerCache::new(1 << 20);
        cache.insert(
            s,
            cached_cond.clone(),
            matching_rows(&rel, &cached_cond, &schema),
            true,
            Cost::new(1.0),
        );

        let proved = cached_cond == probe || subsumes(&cached_cond.pred, &probe.pred);
        let served = cache.lookup(s, &probe, &schema).unwrap();
        match served {
            Some(got) => {
                assert!(proved, "served without a containment proof");
                assert_eq!(
                    *got.items,
                    direct_sq(&rel, &probe, &schema),
                    "served items diverge for probe {probe} under cached {cached_cond}"
                );
                match got.kind {
                    fusion::cache::HitKind::Exact => exact_hits += 1,
                    fusion::cache::HitKind::Subsumed => residual_hits += 1,
                }
            }
            None => assert!(
                !proved,
                "prover admits {cached_cond} ⊇ {probe} but the cache missed"
            ),
        }
    });
    assert!(exact_hits > 0, "battery never produced an exact hit");
    assert!(residual_hits > 0, "battery never produced a residual hit");
}

/// The prover itself is sound on random pairs: whenever it claims
/// subsumption, every tuple matching the narrow condition matches the
/// broad one too.
#[test]
fn proved_subsumption_implies_containment() {
    let schema = dmv_schema();
    let mut proofs = 0u64;
    for_seeds(width("cache-subsumption"), |g| {
        let rel = g.relation();
        let broad = g.condition();
        let narrow = g.condition();
        if !subsumes(&broad.pred, &narrow.pred) {
            return;
        }
        proofs += 1;
        for t in rel.rows() {
            if narrow.eval(t, &schema).unwrap() {
                assert!(
                    broad.eval(t, &schema).unwrap(),
                    "prover claims {broad} ⊇ {narrow}, but {t} matches only the narrow side"
                );
            }
        }
    });
    assert!(proofs > 0, "battery never proved a subsumption");
}

/// Entries harvested under fault-induced `Subset` completeness (stored
/// non-exact) are never served, even to probes they would subsume.
#[test]
fn subset_entries_never_serve_any_probe() {
    let schema = dmv_schema();
    for_seeds(width("cache-subsumption"), |g| {
        let rel = g.relation();
        let cached_cond = g.condition();
        let probe = g.condition();
        let s = SourceId(0);
        let mut cache = AnswerCache::new(1 << 20);
        cache.insert(
            s,
            cached_cond.clone(),
            matching_rows(&rel, &cached_cond, &schema),
            false,
            Cost::new(1.0),
        );
        assert!(
            cache.lookup(s, &probe, &schema).unwrap().is_none(),
            "non-exact entry for {cached_cond} served probe {probe}"
        );
        assert!(cache.lookup(s, &cached_cond, &schema).unwrap().is_none());
    });
}
