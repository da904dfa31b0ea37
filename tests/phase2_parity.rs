//! Phase-two retrieval battery: the cost-based covering planner must
//! never change *what* is fetched, only what it costs. Over seeded
//! replica worlds (one consistent global table, overlapping per-source
//! slices, mixed capabilities and pricing) the planned fetch is
//! byte-compared against the broadcast baseline, the warm cache run
//! against the cold one, and outage runs against the certified
//! completeness contract. The phase-two cells are the lattice's
//! (`common::lattice::FetchWorld`); the sweep width is `width("fetch")`,
//! and the warm/cold parity battery is pinned at 100 seeds.

mod common;

use common::lattice::FetchWorld;
use common::width;
use fusion::cache::AnswerCache;
use fusion::exec::RetryPolicy;
use fusion::source::Capabilities;
use fusion::stats::SplitMix64;
use fusion::types::schema::dmv_schema;
use fusion::types::{tuple, Cost, Relation, SourceId, Tuple};

/// One consistent global table; every source holds a slice of it, so
/// any source's rows for an item agree with any other's.
fn global_rows(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            tuple![
                format!("L{i:03}"),
                ["dui", "sp", "park"][i % 3],
                (1990 + (i % 10)) as i64
            ]
        })
        .collect()
}

/// A seeded replica world: 2–4 sources slicing a 40-row consistent
/// table with guaranteed pairwise overlap, capabilities drawn from a
/// priced, batch-bounded, projection-mixed pool.
fn world_for(seed: u64) -> FetchWorld {
    let mut rng = SplitMix64::new(seed ^ 0xFE7C4);
    let rows = global_rows(40);
    let n = 2 + rng.next_below(3);
    let mut rels = Vec::new();
    let mut caps = Vec::new();
    for _ in 0..n {
        let start = rng.next_below(15);
        let len = 20 + rng.next_below(20);
        let end = (start + len).min(40);
        rels.push(Relation::from_rows(dmv_schema(), rows[start..end].to_vec()));
        let mut c = match rng.next_below(3) {
            0 => Capabilities::full(),
            1 => Capabilities::full().with_projection(false),
            _ => Capabilities::full().with_fetch_batch(1 + rng.next_below(8)),
        };
        if rng.next_below(3) == 0 {
            c = c.with_fee_millis(rng.next_below(500) as u64);
        }
        caps.push(c);
    }
    FetchWorld { rels, caps }
}

/// Items covered by more than one source — where covering can beat
/// broadcasting.
fn overlap_of(rels: &[Relation]) -> usize {
    let mut seen = std::collections::BTreeMap::new();
    for r in rels {
        for item in &r.distinct_items() {
            *seen.entry(item.clone()).or_insert(0usize) += 1;
        }
    }
    seen.values().filter(|&&c| c > 1).count()
}

/// Planned full-attribute fetches return exactly the broadcast record
/// set over consistent replicas, and never cost more; with real
/// overlap they cost strictly less.
#[test]
fn planned_fetch_is_byte_identical_to_broadcast_and_cheaper() {
    for seed in 0..width("fetch") {
        let w = world_for(seed);
        let (out, broadcast) = w.check(&format!("seed {seed}"));
        if overlap_of(&w.rels) > 1 {
            let planned = out.total_cost().value();
            assert!(planned < broadcast, "seed {seed}: {planned} vs {broadcast}");
        }
    }
}

/// A cold run harvests into the answer cache; the warm re-run serves
/// every record from it byte-for-byte at zero exchange cost. Pinned at
/// 100 seeds regardless of the sweep width.
#[test]
fn warm_cache_rerun_is_byte_identical_at_zero_cost() {
    for seed in 0..100 {
        let w = world_for(seed);
        let mut cache = AnswerCache::new(1 << 20);
        let (_, _, cold, _) = w.planned(Some(&mut cache), None, None);
        let (warm_plan, _, warm, _) = w.planned(Some(&mut cache), None, None);
        assert_eq!(
            cold.records, warm.records,
            "seed {seed}: warm/cold diverged"
        );
        assert_eq!(warm.total_cost(), Cost::ZERO, "seed {seed}: warm run paid");
        assert!(warm_plan.assignments.is_empty(), "seed {seed}");
        assert_eq!(warm.cached_served, w.answer().len(), "seed {seed}");
    }
}

/// A single fetch-capable source holding the whole table produces the
/// broadcast baseline's exact bytes.
#[test]
fn single_source_full_coverage_is_bit_equal_to_baseline() {
    let rels = vec![Relation::from_rows(dmv_schema(), global_rows(40))];
    let caps = vec![Capabilities::full()];
    FetchWorld { rels, caps }.check("one source");
}

/// Killing a source whose coverage nothing else replaces degrades the
/// fetch to a certified `Subset` naming the dead source, and every
/// record that *was* deliverable still arrives; when survivors do
/// cover, the outcome stays exact.
#[test]
fn outage_degrades_to_named_subset_or_recovers_exactly() {
    let schema = dmv_schema();
    let (mut subsets, mut recovered) = (0, 0);
    for seed in 0..width("fetch") {
        let w = world_for(seed);
        let victim = SourceId((seed as usize) % w.rels.len());
        let policy = RetryPolicy::default();
        let (_, _, out, _) = w.planned(None, Some(&policy), Some(victim));
        // Survivor-only truth: records the live sources can produce.
        let mut live = w.rels.clone();
        live.remove(victim.0);
        let survivors = FetchWorld {
            rels: live,
            caps: Vec::new(),
        };
        if survivors.answer() == w.answer() {
            assert!(out.completeness.is_exact(), "seed {seed}");
            assert!(out.missing.is_empty(), "seed {seed}");
            recovered += 1;
        } else if !out.completeness.is_exact() {
            // Exclusive items died with the victim: the subset names it
            // and the missing list names real attributes.
            subsets += 1;
            assert!(!out.missing.is_empty(), "seed {seed}");
            for (_, lacking) in &out.missing {
                assert!(!lacking.is_empty(), "seed {seed}");
                for name in lacking {
                    let real = schema.attributes().iter().any(|a| &a.name == name);
                    assert!(real, "seed {seed}: bogus attribute {name}");
                }
            }
        }
    }
    // The battery must exercise both contract branches.
    assert!(recovered > 0, "no seed recovered exactly");
    assert!(subsets > 0, "no seed degraded to a subset");
}

/// With no fault plan, a retried fetch is the plain fetch bit for bit —
/// records, ledger and network trace — at any per-query fee and batch
/// size: the fee is added to the batch's exchange cost in the same
/// order on both paths, so not even the last ulp moves.
#[test]
fn retried_fetch_with_faults_off_is_bit_identical_to_plain_at_any_fee() {
    let rows = global_rows(40);
    let policy = RetryPolicy::default();
    for fee_millis in [1, 3, 7, 100, 333, 2_500] {
        for fetch_batch in [1, 3, 7] {
            let caps = Capabilities::full()
                .with_fetch_batch(fetch_batch)
                .with_fee_millis(fee_millis);
            let w = FetchWorld {
                rels: vec![
                    Relation::from_rows(dmv_schema(), rows[..30].to_vec()),
                    Relation::from_rows(dmv_schema(), rows[10..].to_vec()),
                ],
                caps: vec![caps; 2],
            };
            let (_, _, plain, plain_net) = w.planned(None, None, None);
            let (_, _, retried, retried_net) = w.planned(None, Some(&policy), None);
            let cell = format!("fee {fee_millis} batch {fetch_batch}");
            assert_eq!(retried.records, plain.records, "{cell}");
            assert_eq!(retried.ledger, plain.ledger, "{cell}");
            assert_eq!(retried.completeness, plain.completeness, "{cell}");
            assert_eq!(retried_net.trace(), plain_net.trace(), "{cell}");
        }
    }
}
