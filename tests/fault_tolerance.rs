//! Fault-tolerance integration: deterministic replay, subset soundness
//! under a seed battery, the single-source-outage acceptance criterion,
//! faults-off parity with the plain executor, and retry policies checked
//! on entry. The cells are the lattice's (`common::lattice`); the width
//! is `width("fault")`.

mod common;

use common::lattice::{fixed, retried, stages, storms, world, Cache, Case, Cell, Faults, Retry};
use common::lattice::{Shape, World, REPLAY, SEQ};
use common::width;
use fusion::core::phase2::{non_merge_attrs, CoverageCatalog};
use fusion::exec::{fetch_planned, run, Completeness, RetryPolicy, RunOptions, StepKind, Target};
use fusion::net::FaultPlan;
use fusion::types::{CondId, ItemSet, SourceId};

/// Checks `faults` in plan order on `shape`'s plan, or (`reopt`) its
/// spec, over both fixed worlds.
fn sweep(shape: Shape, reopt: bool, retry: Retry, faults: &[Faults]) {
    for scenario in fixed() {
        Case::new(&scenario, shape).sweep((&[SEQ], reopt), retry, faults, Cache::None);
    }
}

// ---------- determinism -----------------------------------------------------

/// Same fault seed, same policy ⇒ identical answer, completeness tag,
/// ledger (attempts and failed costs included), and network trace.
#[test]
fn same_seed_replays_identically() {
    for scenario in fixed() {
        let case = Case::new(&scenario, Shape::SjaPlus);
        let storm = Faults::Stormy(0xBAD, 0.3);
        let cell = Cell::of(SEQ, retried(), storm, Cache::None);
        assert_eq!(case.check(&[cell])[0].fp, case.run(cell).fp, "{}", case.tag);
    }
}

/// Different fault seeds leave the *exact* runs identical: an answer that
/// survives retries does not depend on which attempts failed.
#[test]
fn fault_seed_never_changes_an_exact_answer() {
    let storms = storms(width("fault").min(16), &[0.2]);
    sweep(Shape::SjaPlus, false, retried(), &storms);
}

// ---------- subset soundness ------------------------------------------------

/// Seed battery: under every fault seed and rate, the answer is a subset
/// of the fault-free exact answer, and `Exact` means equal. `Subset`
/// outcomes name at least one missing source.
#[test]
fn every_answer_is_a_sound_subset_of_the_exact_answer() {
    let storms = storms(width("fault"), &[0.3, 0.6, 0.9]);
    sweep(Shape::SjaPlus, false, retried(), &storms);
}

/// The re-optimizing driver degrades just as soundly — at the lattice's
/// `every_round()`, per-round re-planning around dead sources: whatever
/// it switches to around the faults, the answer stays a subset, and
/// every run — degraded or not — replays bit for bit from its switch
/// records under the same fault plan and policy.
#[test]
fn reopt_execution_degrades_to_sound_subsets() {
    let storms = storms(width("fault").min(16), &[0.5]);
    sweep(Shape::Sja, true, retried(), &storms);
}

/// A step the run dropped is not an observation. With one source down
/// from its first exchange, every one of its steps is dropped before
/// any round boundary is reached: the violations that follow come from
/// live sources only, the feedback store learns nothing about the dead
/// one — its `items_out = 0` must never calibrate a later query — and
/// the answer is the fusion over the survivors.
#[test]
fn a_dropped_step_is_not_an_observation() {
    let scenario = world(World::Synth6, 17);
    let (m, n) = (scenario.m(), scenario.n());
    let outages: Vec<Faults> = (0..n).map(Faults::Outage).collect();
    let case = Case::new(&scenario, Shape::Sja);
    let runs = case.sweep((&[SEQ], true), retried(), &outages, Cache::None);
    for (dead, run) in runs.iter().enumerate() {
        let (ran, feedback) = run.reopt.as_ref().expect("a reopt run");
        let out = ran.reopt.as_ref().expect("a spec run reports");
        let tag = format!("R{} down", dead + 1);
        assert!(out.violations > 0, "{tag}: nothing re-planned");
        for i in 0..m {
            let observed = |j| feedback.observed(CondId(i), SourceId(j));
            assert_eq!(observed(dead), None, "{tag}: c{} calibrated", i + 1);
            for live in (0..n).filter(|j| *j != dead) {
                assert!(observed(live).is_some(), "{tag}: c{}/R{live}", i + 1);
            }
        }
        // No switch was argued from a dead source's silence.
        for sw in &out.switches {
            let entry = (ran.outcome.ledger.entries().iter())
                .find(|e| e.kind != StepKind::Reopt && e.step == sw.violating_step)
                .expect("violating step executed");
            assert_ne!(entry.source, Some(SourceId(dead)), "{tag}");
        }
    }
}

// ---------- acceptance criterion: single-source permanent outage -----------

/// Knocking one source out permanently yields `Completeness::Subset`
/// naming exactly that source, and the answer equals the brute-force
/// fusion answer over the surviving sources — for every source, on every
/// scenario, under both the FILTER and SJA plan shapes.
#[test]
fn single_source_outage_equals_fusion_over_survivors() {
    for scenario in fixed() {
        let outages: Vec<Faults> = (0..scenario.n()).map(Faults::Outage).collect();
        for shape in [Shape::Filter, Shape::Sja] {
            let case = Case::new(&scenario, shape);
            case.sweep((&[SEQ], false), retried(), &outages, Cache::None);
        }
    }
}

/// Every source down at once: the fusion of zero sources is empty, and
/// the executor still terminates with a (vacuously sound) subset.
#[test]
fn total_outage_returns_the_empty_subset() {
    let scenario = world(World::Figure1, 0);
    let (query, sources, n) = (&scenario.query, &scenario.sources, scenario.n());
    let plan = Case::new(&scenario, Shape::SjaPlus).plan;
    let mut network = scenario.network();
    network.set_fault_plan((0..n).fold(FaultPlan::none(n), |f, j| f.with_outage(SourceId(j), 0)));
    let options = RunOptions {
        retry: retried(),
        ..RunOptions::default()
    };
    let out = run(Target::Plan(&plan), query, sources, &mut network, options);
    let out = out.unwrap().outcome;
    assert_eq!(out.answer, ItemSet::empty());
    let Completeness::Subset {
        missing_sources, ..
    } = &out.completeness
    else {
        panic!("expected a subset answer");
    };
    assert_eq!(missing_sources.len(), n);
}

// ---------- faults-off parity ----------------------------------------------

/// With no fault plan (or an all-`none` one), the fault-tolerant executor
/// is byte-identical to the plain one: same answer, same ledger entry by
/// entry, `Exact` completeness, zero failed cost. The same pair for
/// certified per-round re-optimization (switches, rounds, final spec and
/// calibration included).
#[test]
fn faults_off_is_byte_identical_to_plain_execution() {
    let quiet = [Faults::Off, Faults::Quiet];
    sweep(Shape::Filter, false, retried(), &quiet);
    sweep(Shape::SjaPlus, false, retried(), &quiet);
    sweep(Shape::Sja, true, retried(), &quiet);
}

/// A no-retry policy under faults still never aborts: failures become
/// drops, drops become subsets.
#[test]
fn no_retry_policy_degrades_without_error() {
    let scenario = world(World::Synth5, 23);
    let once: &'static RetryPolicy = Box::leak(Box::new(RetryPolicy::no_retry()));
    let storms = storms(width("fault").min(16), &[0.5]);
    let case = Case::new(&scenario, Shape::SjaPlus);
    case.sweep((&[SEQ], false), Some(once), &storms, Cache::None);
}

/// A retry policy is public configuration: every executor that takes one
/// refuses a policy it cannot price with an error naming the field,
/// before the first exchange — never a panic at the first transient
/// failure.
#[test]
fn hostile_retry_policy_is_an_error_at_every_entry() {
    let scenario = world(World::Figure1, 0);
    let case = Case::new(&scenario, Shape::Sja);
    let storm = Faults::Stormy(1, 0.5);
    let schema = scenario.query.schema();
    let catalog = CoverageCatalog::from_relations(schema, &scenario.relations, &[true; 3]);
    let (truth, attrs) = (scenario.ground_truth().unwrap(), non_merge_attrs(schema));
    let bad = |f: fn(&mut RetryPolicy)| {
        let mut policy = RetryPolicy::default();
        f(&mut policy);
        &*Box::leak(Box::new(policy))
    };
    for (field, policy) in [
        ("max_attempts", bad(|p| p.max_attempts = 0)),
        ("breaker_threshold", bad(|p| p.breaker_threshold = 0)),
        ("backoff_base", bad(|p| p.backoff_base = -1.0)),
        ("backoff_factor", bad(|p| p.backoff_factor = f64::NAN)),
        ("jitter", bad(|p| p.jitter = f64::NAN)),
    ] {
        let cells = [SEQ, stages(2), REPLAY].map(|s| Cell::of(s, Some(policy), storm, Cache::None));
        let reopt = [SEQ, stages(2)].map(|s| Cell::of(s, Some(policy), storm, Cache::None).reopt());
        let mut errors: Vec<String> = (cells.into_iter().chain(reopt))
            .map(|cell| case.try_run(cell))
            .map(|run| run.err().expect("a hostile policy ran").to_string())
            .collect();
        let (mut net, model) = (case.network(storm), scenario.cost_model());
        let (src, retry) = (&scenario.sources, Some(policy));
        let fetched = fetch_planned(
            &truth, &attrs, &catalog, &model, schema, src, &mut net, None, retry,
        );
        errors.push(fetched.expect_err("phase two ran").to_string());
        for e in errors {
            assert!(e.contains(field), "{field}: {e}");
        }
    }
}
