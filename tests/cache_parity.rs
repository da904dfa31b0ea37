//! Warm/cold cache parity battery: executing with the semantic answer
//! cache — populating it, serving from it, and re-optimizing against
//! its snapshot — must be byte-identical to cold execution in answers
//! and completeness, on the sequential, parallel, and fault-tolerant
//! paths alike. The cache is allowed to change *costs*, never results.
//! The cells are the lattice's (`common::lattice`); the width is
//! `width("cache-parity")`.

mod common;

use common::lattice::{retried, stages, world, Cache, Case, Cell, Faults, Shape, World, SEQ};
use common::width;
use fusion::cache::CachedCostModel;
use fusion::core::sja_optimal;
use fusion::exec::{run, Completeness, RunOptions, Target};

/// Cold, then warm, on the sequential and the two-thread parallel path:
/// both rounds answer the truth, byte-identically to the sequential
/// reference, and the warm one hits; then a plan re-optimized against
/// the warm snapshot may re-order, never change the answer.
#[test]
fn warm_execution_matches_cold_answers() {
    for seed in 0..width("cache-parity") {
        let scenario = world(World::Small, seed);
        let (query, sources) = (&scenario.query, &scenario.sources);
        let case = Case::new(&scenario, Shape::Sja);
        let schedules = [SEQ, stages(2)];
        let mut runs = case.sweep((&schedules, false), None, &[Faults::Off], Cache::Warm);
        let mut cache = runs[0].cache.take().expect("a cached run");
        let snap = cache.snapshot(query.conditions(), scenario.n());
        assert!(snap.any_covered(), "seed {seed}: nothing covered");
        let plan = sja_optimal(&CachedCostModel::new(&case.model, &snap)).plan;
        let mut net = scenario.network();
        let options = RunOptions {
            cache: Some(&mut cache),
            ..RunOptions::default()
        };
        let replanned = run(Target::Plan(&plan), query, sources, &mut net, options);
        let truth = scenario.ground_truth().unwrap();
        assert_eq!(
            replanned.unwrap().outcome.answer,
            truth,
            "seed {seed} replanned"
        );
    }
}

/// Under injected faults the cached fault-tolerant executor returns the
/// same answer and completeness tag as the uncached one, seed by seed —
/// including runs that degrade to subset answers, whose harvests are
/// never served.
#[test]
fn faulty_cached_runs_match_cold_completeness() {
    let mut subsets = 0u32;
    for seed in 0..width("cache-parity") {
        let scenario = world(World::Small, seed);
        let cell = Cell::of(SEQ, retried(), Faults::Stormy(seed, 0.35), Cache::Cold);
        let runs = Case::new(&scenario, Shape::Sja).check(&[cell]);
        subsets += u32::from(!runs[0].last().completeness.is_exact());
    }
    assert!(subsets > 0, "battery never exercised a subset run");
}

/// A permanent outage: cold and cached runs agree on the subset answer
/// and the missing-source report, and a later fault-free warm run
/// refills the cache with exact entries only.
#[test]
fn outage_subset_parity_then_recovery() {
    let scenario = world(World::Figure1, 0);
    let (query, sources) = (&scenario.query, &scenario.sources);
    let case = Case::new(&scenario, Shape::Sja);
    let cell = Cell::of(SEQ, retried(), Faults::Outage(2), Cache::Cold);
    let mut cache = case.check(&[cell]).remove(0).cache.expect("a cached run");

    // Faults gone: the next cached run is exact, matches the truth, and
    // leaves the cache fully warm.
    let mut net = scenario.network();
    let options = RunOptions {
        retry: retried(),
        cache: Some(&mut cache),
        ..RunOptions::default()
    };
    let healed = run(Target::Plan(&case.plan), query, sources, &mut net, options);
    let healed = healed.unwrap().outcome;
    assert_eq!(healed.answer, scenario.ground_truth().unwrap());
    assert_eq!(healed.completeness, Completeness::Exact);
    assert!(cache
        .snapshot(query.conditions(), scenario.n())
        .any_covered());
}
