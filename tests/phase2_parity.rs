//! Phase-two retrieval battery: the cost-based covering planner must
//! never change *what* is fetched, only what it costs. Over seeded
//! replica worlds (one consistent global table, overlapping per-source
//! slices, mixed capabilities and pricing) the planned fetch is
//! byte-compared against the broadcast baseline, the warm cache run
//! against the cold one, and outage runs against the certified
//! completeness contract.
//!
//! The sweep battery size scales with `FETCH_BATTERY_SEEDS` (default
//! 24) so CI can run a heavier sweep than the local default; the
//! warm/cold parity battery is pinned at 100 seeds.

use fusion::cache::AnswerCache;
use fusion::core::phase2::{non_merge_attrs, CoverageCatalog};
use fusion::core::query::FusionQuery;
use fusion::core::NetworkCostModel;
use fusion::exec::{fetch_planned, fetch_records, RetryPolicy};
use fusion::net::{FaultPlan, LinkProfile, Network};
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
use fusion::stats::SplitMix64;
use fusion::types::schema::dmv_schema;
use fusion::types::{tuple, Cost, ItemSet, Predicate, Relation, Schema, SourceId, Tuple};

fn battery() -> u64 {
    std::env::var("FETCH_BATTERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

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

struct World {
    rels: Vec<Relation>,
    caps: Vec<Capabilities>,
}

/// A seeded replica world: 2–4 sources slicing a 40-row consistent
/// table with guaranteed pairwise overlap, capabilities drawn from a
/// priced, batch-bounded, projection-mixed pool.
fn world_for(seed: u64) -> World {
    let mut rng = SplitMix64::new(seed ^ 0xFE7C4);
    let schema = dmv_schema();
    let rows = global_rows(40);
    let n = 2 + rng.next_below(3);
    let mut rels = Vec::new();
    let mut caps = Vec::new();
    for _ in 0..n {
        let start = rng.next_below(15);
        let len = 20 + rng.next_below(20);
        let end = (start + len).min(40);
        rels.push(Relation::from_rows(
            schema.clone(),
            rows[start..end].to_vec(),
        ));
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
    World { rels, caps }
}

fn rebuild(w: &World) -> (SourceSet, Network) {
    let sources = SourceSet::new(
        w.caps
            .iter()
            .zip(&w.rels)
            .enumerate()
            .map(|(j, (c, r))| {
                Box::new(InMemoryWrapper::new(
                    format!("R{}", j + 1),
                    r.clone(),
                    *c,
                    ProcessingProfile::free(),
                    j as u64,
                )) as Box<dyn fusion::source::Wrapper>
            })
            .collect(),
    );
    (
        sources,
        Network::uniform(w.caps.len(), LinkProfile::Wan.link()),
    )
}

fn model_of(sources: &SourceSet, network: &Network, schema: &Schema) -> NetworkCostModel {
    let q = FusionQuery::new(schema.clone(), vec![Predicate::eq("V", "dui").into()]).unwrap();
    NetworkCostModel::new(sources, network, &q, None)
}

fn answer_of(rels: &[Relation]) -> ItemSet {
    rels.iter()
        .map(Relation::distinct_items)
        .fold(ItemSet::empty(), |a, b| a.union(&b))
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
    let schema = dmv_schema();
    let attrs = non_merge_attrs(&schema);
    for seed in 0..battery() {
        let w = world_for(seed);
        let answer = answer_of(&w.rels);
        let fetchable: Vec<bool> = vec![true; w.rels.len()];
        let catalog = CoverageCatalog::from_relations(&schema, &w.rels, &fetchable);
        let (mut sources, mut network) = rebuild(&w);
        let model = model_of(&sources, &network, &schema);
        let (plan, cert, out) = fetch_planned(
            &answer,
            &attrs,
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            None,
            None,
        )
        .unwrap();
        let (bsources, mut bnet) = rebuild(&w);
        sources = bsources;
        let broadcast = fetch_records(&answer, &sources, &mut bnet).unwrap();
        assert_eq!(
            out.records, broadcast.records,
            "seed {seed}: record sets diverged"
        );
        assert!(out.completeness.is_exact(), "seed {seed}");
        assert!(
            out.total_cost().value() <= broadcast.cost.value() + 1e-9,
            "seed {seed}: planned {} vs broadcast {}",
            out.total_cost(),
            broadcast.cost
        );
        if overlap_of(&w.rels) > 1 {
            assert!(
                out.total_cost().value() < broadcast.cost.value(),
                "seed {seed}: overlap demands a strict win: {} vs {}",
                out.total_cost(),
                broadcast.cost
            );
        }
        assert!(
            plan.planned_cost.value() + 1e-9 >= cert.lower_bound,
            "seed {seed}: certified bound violated"
        );
    }
}

/// A cold run harvests into the answer cache; the warm re-run serves
/// every record from it byte-for-byte at zero exchange cost. Pinned at
/// 100 seeds regardless of the sweep battery.
#[test]
fn warm_cache_rerun_is_byte_identical_at_zero_cost() {
    let schema = dmv_schema();
    let attrs = non_merge_attrs(&schema);
    for seed in 0..100 {
        let w = world_for(seed);
        let answer = answer_of(&w.rels);
        let fetchable: Vec<bool> = vec![true; w.rels.len()];
        let catalog = CoverageCatalog::from_relations(&schema, &w.rels, &fetchable);
        let mut cache = AnswerCache::new(1 << 20);
        let (sources, mut network) = rebuild(&w);
        let model = model_of(&sources, &network, &schema);
        let (_, _, cold) = fetch_planned(
            &answer,
            &attrs,
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            Some(&mut cache),
            None,
        )
        .unwrap();
        let (wsources, mut wnet) = rebuild(&w);
        let wmodel = model_of(&wsources, &wnet, &schema);
        let (warm_plan, _, warm) = fetch_planned(
            &answer,
            &attrs,
            &catalog,
            &wmodel,
            &schema,
            &wsources,
            &mut wnet,
            Some(&mut cache),
            None,
        )
        .unwrap();
        assert_eq!(
            cold.records, warm.records,
            "seed {seed}: warm/cold diverged"
        );
        assert_eq!(
            warm.total_cost(),
            Cost::ZERO,
            "seed {seed}: warm run paid for exchanges"
        );
        assert!(warm_plan.assignments.is_empty(), "seed {seed}");
        assert_eq!(warm.cached_served, answer.len(), "seed {seed}");
    }
}

/// A single fetch-capable source holding the whole table produces the
/// broadcast baseline's exact bytes.
#[test]
fn single_source_full_coverage_is_bit_equal_to_baseline() {
    let schema = dmv_schema();
    let rows = global_rows(40);
    let rel = Relation::from_rows(schema.clone(), rows);
    let build = || {
        let sources = SourceSet::new(vec![Box::new(InMemoryWrapper::new(
            "R1",
            rel.clone(),
            Capabilities::full(),
            ProcessingProfile::free(),
            0,
        )) as Box<dyn fusion::source::Wrapper>]);
        (sources, Network::uniform(1, LinkProfile::Wan.link()))
    };
    let answer = rel.distinct_items();
    let catalog = CoverageCatalog::from_relations(&schema, std::slice::from_ref(&rel), &[true]);
    let (sources, mut network) = build();
    let model = model_of(&sources, &network, &schema);
    let (_, _, out) = fetch_planned(
        &answer,
        &non_merge_attrs(&schema),
        &catalog,
        &model,
        &schema,
        &sources,
        &mut network,
        None,
        None,
    )
    .unwrap();
    let (bsources, mut bnet) = build();
    let broadcast = fetch_records(&answer, &bsources, &mut bnet).unwrap();
    assert_eq!(out.records, broadcast.records);
    assert!(out.completeness.is_exact());
}

/// Killing a source whose coverage nothing else replaces degrades the
/// fetch to a certified `Subset` naming the dead source, and every
/// record that *was* deliverable still arrives; when survivors do
/// cover, the outcome stays exact.
#[test]
fn outage_degrades_to_named_subset_or_recovers_exactly() {
    let schema = dmv_schema();
    let attrs = non_merge_attrs(&schema);
    let mut subsets = 0;
    let mut recovered = 0;
    for seed in 0..battery() {
        let w = world_for(seed);
        let n = w.rels.len();
        let victim = SourceId((seed as usize) % n);
        let answer = answer_of(&w.rels);
        let fetchable: Vec<bool> = vec![true; n];
        let catalog = CoverageCatalog::from_relations(&schema, &w.rels, &fetchable);
        let (sources, mut network) = rebuild(&w);
        network.set_fault_plan(FaultPlan::none(n).with_outage(victim, 0));
        let model = model_of(&sources, &network, &schema);
        let policy = RetryPolicy::default();
        let (_, _, out) = fetch_planned(
            &answer,
            &attrs,
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            None,
            Some(&policy),
        )
        .unwrap();
        // Survivor-only truth: records the live sources can produce.
        let live: Vec<Relation> = (0..n)
            .filter(|&j| j != victim.0)
            .map(|j| w.rels[j].clone())
            .collect();
        let survivors_cover = answer_of(&live) == answer;
        if survivors_cover {
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
                    assert!(
                        schema.attributes().iter().any(|a| &a.name == name),
                        "seed {seed}: bogus attribute {name}"
                    );
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
    let schema = dmv_schema();
    let attrs = non_merge_attrs(&schema);
    let rows = global_rows(40);
    let policy = RetryPolicy::default();
    for fee_millis in [1, 3, 7, 100, 333, 2_500] {
        for fetch_batch in [1, 3, 7] {
            let caps = Capabilities::full()
                .with_fetch_batch(fetch_batch)
                .with_fee_millis(fee_millis);
            let w = World {
                rels: vec![
                    Relation::from_rows(schema.clone(), rows[..30].to_vec()),
                    Relation::from_rows(schema.clone(), rows[10..].to_vec()),
                ],
                caps: vec![caps; 2],
            };
            let answer = answer_of(&w.rels);
            let catalog = CoverageCatalog::from_relations(&schema, &w.rels, &[true, true]);
            let run = |policy: Option<&RetryPolicy>| {
                let (sources, mut network) = rebuild(&w);
                let model = model_of(&sources, &network, &schema);
                let (_, _, out) = fetch_planned(
                    &answer,
                    &attrs,
                    &catalog,
                    &model,
                    &schema,
                    &sources,
                    &mut network,
                    None,
                    policy,
                )
                .unwrap();
                (out, network)
            };
            let (plain, plain_net) = run(None);
            let (retried, retried_net) = run(Some(&policy));
            let cell = format!("fee {fee_millis} batch {fetch_batch}");
            assert_eq!(retried.records, plain.records, "{cell}");
            assert_eq!(retried.ledger, plain.ledger, "{cell}");
            assert_eq!(retried.completeness, plain.completeness, "{cell}");
            assert_eq!(retried_net.trace(), plain_net.trace(), "{cell}");
        }
    }
}
