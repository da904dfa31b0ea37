//! Warm/cold cache parity battery: executing with the semantic answer
//! cache — populating it, serving from it, and re-optimizing against
//! its snapshot — must be byte-identical to cold execution in answers
//! and completeness, on the sequential, parallel, and fault-tolerant
//! paths alike. The cache is allowed to change *costs*, never results.
//!
//! The seed battery size scales with `CACHE_BATTERY_SEEDS` (default
//! 100) so CI can run a heavier sweep than the local default.

use fusion::cache::{AnswerCache, CachedCostModel};
use fusion::core::sja_optimal;
use fusion::exec::{
    execute_plan, execute_plan_parallel, execute_plan_with, Completeness, ParallelConfig,
    RetryPolicy,
};
use fusion::net::{FaultPlan, FaultSpec};
use fusion::stats::SplitMix64;
use fusion::workload::synth::{synth_scenario, SynthSpec};
use fusion::workload::{dmv, CapabilityMix, Scenario};

fn battery() -> u64 {
    std::env::var("CACHE_BATTERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

/// A seed-varied small synth scenario: 2–3 conditions, 3–5 sources.
fn scenario_for(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed ^ 0xCAC4E);
    let m = 2 + rng.next_below(2);
    let n = 3 + rng.next_below(3);
    let sels: Vec<f64> = (0..m).map(|_| rng.next_f64_range(0.05, 0.5)).collect();
    let spec = SynthSpec {
        n_sources: n,
        domain_size: 300,
        rows_per_source: 120,
        seed,
        capability_mix: CapabilityMix::AllFull,
        link: None,
        processing: fusion::source::ProcessingProfile::indexed_db(),
    };
    synth_scenario(&spec, &sels)
}

/// Cold answer, then three cached runs — populate, exact-serve, and
/// re-optimized against the warm snapshot — plus a warm parallel run.
/// Every answer must be byte-identical to the cold one.
#[test]
fn warm_execution_matches_cold_answers() {
    for seed in 0..battery() {
        let scenario = scenario_for(seed);
        let model = scenario.cost_model();
        let plan = sja_optimal(&model).plan;
        let mut network = scenario.network();
        let cold = execute_plan(&plan, &scenario.query, &scenario.sources, &mut network).unwrap();

        let mut cache = AnswerCache::new(1 << 22);
        for round in 0..2 {
            let mut network = scenario.network();
            let warm = execute_plan_with(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut network,
                None,
                Some(&mut cache),
            )
            .unwrap();
            assert_eq!(warm.answer, cold.answer, "seed {seed} round {round}");
        }
        assert!(cache.stats().hits > 0, "seed {seed}: repeat never hit");

        // Re-optimize against the warm snapshot: the plan may re-order,
        // the answer may not change.
        let snap = cache.snapshot(scenario.query.conditions(), scenario.n());
        assert!(snap.any_covered(), "seed {seed}: nothing covered");
        let warm_plan = sja_optimal(&CachedCostModel::new(&model, &snap)).plan;
        let mut network = scenario.network();
        let replanned = execute_plan_with(
            &warm_plan,
            &scenario.query,
            &scenario.sources,
            &mut network,
            None,
            Some(&mut cache),
        )
        .unwrap();
        assert_eq!(replanned.answer, cold.answer, "seed {seed} replanned");

        // The parallel cached path agrees, cold and warm.
        let mut cache = AnswerCache::new(1 << 22);
        let config = ParallelConfig::with_threads(2);
        for round in 0..2 {
            let mut network = scenario.network();
            let par = execute_plan_parallel(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut network,
                None,
                Some(&mut cache),
                &config,
            )
            .unwrap();
            assert_eq!(
                par.outcome.answer, cold.answer,
                "seed {seed} parallel round {round}"
            );
        }
    }
}

/// Under injected faults the cached fault-tolerant executor returns the
/// same answer and completeness tag as the cold one, seed by seed —
/// including runs that degrade to subset answers.
#[test]
fn faulty_cached_runs_match_cold_completeness() {
    let spec = FaultSpec {
        transient_rate: 0.35,
        timeout_rate: 0.1,
        slowdown_rate: 0.05,
        slowdown_factor: 3.0,
        timeout_wait: 0.2,
        outage_from: None,
    }
    .validated();
    let mut subsets = 0u32;
    for seed in 0..battery() {
        let scenario = scenario_for(seed);
        let model = scenario.cost_model();
        let plan = sja_optimal(&model).plan;
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let faults = || FaultPlan::uniform(scenario.n(), seed, spec);

        let mut network = scenario.network();
        network.set_fault_plan(faults());
        let cold = execute_plan_with(
            &plan,
            &scenario.query,
            &scenario.sources,
            &mut network,
            Some(&policy),
            None,
        )
        .unwrap();

        let mut cache = AnswerCache::new(1 << 22);
        let mut network = scenario.network();
        network.set_fault_plan(faults());
        let warm = execute_plan_with(
            &plan,
            &scenario.query,
            &scenario.sources,
            &mut network,
            Some(&policy),
            Some(&mut cache),
        )
        .unwrap();
        assert_eq!(warm.answer, cold.answer, "seed {seed}");
        assert_eq!(warm.completeness, cold.completeness, "seed {seed}");
        if matches!(cold.completeness, Completeness::Subset { .. }) {
            subsets += 1;
            // A subset harvest is never served: every resident entry is
            // tagged non-exact or epoch-invalidated.
            let snap = cache.snapshot(scenario.query.conditions(), scenario.n());
            assert!(!snap.any_covered(), "seed {seed}: subset entries served");
        }
    }
    assert!(subsets > 0, "battery never exercised a subset run");
}

/// A permanent outage: cold and cached runs agree on the subset answer
/// and the missing-source report, and a later fault-free warm run
/// refills the cache with exact entries only.
#[test]
fn outage_subset_parity_then_recovery() {
    let scenario = dmv::figure1_scenario();
    let model = scenario.cost_model();
    let plan = sja_optimal(&model).plan;
    let policy = RetryPolicy::default();
    let down = FaultPlan::none(scenario.n()).with_outage(fusion::types::SourceId(2), 0);

    let mut network = scenario.network();
    network.set_fault_plan(down.clone());
    let cold = execute_plan_with(
        &plan,
        &scenario.query,
        &scenario.sources,
        &mut network,
        Some(&policy),
        None,
    )
    .unwrap();
    assert!(matches!(cold.completeness, Completeness::Subset { .. }));

    let mut cache = AnswerCache::new(1 << 20);
    let mut network = scenario.network();
    network.set_fault_plan(down);
    let warm = execute_plan_with(
        &plan,
        &scenario.query,
        &scenario.sources,
        &mut network,
        Some(&policy),
        Some(&mut cache),
    )
    .unwrap();
    assert_eq!(warm.answer, cold.answer);
    assert_eq!(warm.completeness, cold.completeness);
    assert!(!cache
        .snapshot(scenario.query.conditions(), scenario.n())
        .any_covered());

    // Faults gone: the next cached run is exact, matches the truth, and
    // leaves the cache fully warm.
    let truth = scenario.ground_truth().unwrap();
    let mut network = scenario.network();
    let healed = execute_plan_with(
        &plan,
        &scenario.query,
        &scenario.sources,
        &mut network,
        Some(&policy),
        Some(&mut cache),
    )
    .unwrap();
    assert_eq!(healed.answer, truth);
    assert_eq!(healed.completeness, Completeness::Exact);
    assert!(cache
        .snapshot(scenario.query.conditions(), scenario.n())
        .any_covered());
}
