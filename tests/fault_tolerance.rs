//! Fault-tolerance integration: deterministic replay, subset soundness
//! under a seed battery, the single-source-outage acceptance criterion,
//! and faults-off parity with the plain executor.
//!
//! The seed battery size scales with `FAULT_BATTERY_SEEDS` (default 40)
//! so CI can run a heavier sweep than the local default.

use fusion::core::postopt::sja_plus;
use fusion::core::{filter_plan, sja_optimal};
use fusion::exec::{
    execute_adaptive, execute_plan, execute_plan_reopt, execute_plan_with, Completeness,
    ReoptConfig, ReoptOutcome, ReoptSession, RetryPolicy, StepKind,
};
use fusion::net::{FaultPlan, FaultSpec, Network};
use fusion::types::{CondId, ItemSet, SourceId};
use fusion::workload::synth::{synth_scenario, SynthSpec};
use fusion::workload::{dmv, Scenario};

fn battery() -> u64 {
    std::env::var("FAULT_BATTERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

fn scenarios() -> Vec<Scenario> {
    vec![
        dmv::figure1_scenario(),
        synth_scenario(&SynthSpec::default_with(6, 17), &[0.05, 0.4, 0.6]),
    ]
}

/// A spec that exercises every fault kind at once (side rates shrink as
/// the transient rate approaches 1 so the outcome mix stays valid).
fn stormy(transient: f64) -> FaultSpec {
    let side = (0.1f64).min((1.0 - transient) / 2.0);
    FaultSpec {
        transient_rate: transient,
        timeout_rate: side,
        slowdown_rate: side,
        slowdown_factor: 3.0,
        timeout_wait: 0.2,
        outage_from: None,
    }
    .validated()
}

fn run_ft(
    scenario: &Scenario,
    faults: FaultPlan,
    policy: &RetryPolicy,
) -> fusion::exec::ExecutionOutcome {
    let model = scenario.cost_model();
    let plan = sja_plus(&model).plan;
    let mut network = scenario.network();
    network.set_fault_plan(faults);
    execute_plan_with(
        &plan,
        &scenario.query,
        &scenario.sources,
        &mut network,
        Some(policy),
        None,
    )
    .expect("fault-tolerant execution degrades instead of failing")
}

/// The SJA plan under certified re-optimization at point trust regions
/// (every inexact observation re-opens the suffix search), sequentially,
/// from a fresh session.
fn run_reopt(
    scenario: &Scenario,
    network: &mut Network,
    retry: Option<&RetryPolicy>,
) -> (ReoptOutcome, ReoptSession) {
    let model = scenario.cost_model();
    let mut session = ReoptSession::new(scenario.m(), scenario.n(), 4096);
    let out = execute_plan_reopt(
        &sja_optimal(&model).spec,
        &scenario.query,
        &scenario.sources,
        network,
        &model,
        None,
        &mut session,
        &ReoptConfig::every_round(),
        None,
        retry,
    )
    .expect("fault-tolerant re-optimization degrades instead of failing");
    (out, session)
}

// ---------- determinism -----------------------------------------------------

/// Same fault seed, same policy ⇒ identical answer, completeness tag,
/// ledger (attempts and failed costs included), and network trace.
#[test]
fn same_seed_replays_identically() {
    for scenario in scenarios() {
        let n = scenario.n();
        let model = scenario.cost_model();
        let plan = sja_plus(&model).plan;
        let policy = RetryPolicy::default();
        let run = || {
            let mut network = scenario.network();
            network.set_fault_plan(FaultPlan::uniform(n, 0xBAD, stormy(0.3)));
            let out = execute_plan_with(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut network,
                Some(&policy),
                None,
            )
            .unwrap();
            (out, network.trace().to_vec(), network.failed_count())
        };
        let (a, trace_a, failed_a) = run();
        let (b, trace_b, failed_b) = run();
        assert_eq!(a.answer, b.answer, "{}", scenario.name);
        assert_eq!(a.completeness, b.completeness, "{}", scenario.name);
        assert_eq!(a.ledger, b.ledger, "{}", scenario.name);
        assert_eq!(trace_a, trace_b, "{}", scenario.name);
        assert_eq!(failed_a, failed_b, "{}", scenario.name);
    }
}

/// Different fault seeds leave the *exact* runs identical: an answer that
/// survives retries does not depend on which attempts failed.
#[test]
fn fault_seed_never_changes_an_exact_answer() {
    for scenario in scenarios() {
        let n = scenario.n();
        let exact = scenario.ground_truth().unwrap();
        for seed in 0..battery().min(16) {
            let out = run_ft(
                &scenario,
                FaultPlan::uniform(n, seed, stormy(0.2)),
                &RetryPolicy::default(),
            );
            if out.completeness.is_exact() {
                assert_eq!(out.answer, exact, "{} seed {seed}", scenario.name);
            }
        }
    }
}

// ---------- subset soundness ------------------------------------------------

/// Seed battery: under every fault seed and rate, the answer is a subset
/// of the fault-free exact answer, and `Exact` means equal. `Subset`
/// outcomes name at least one missing source.
#[test]
fn every_answer_is_a_sound_subset_of_the_exact_answer() {
    for scenario in scenarios() {
        let n = scenario.n();
        let exact = scenario.ground_truth().unwrap();
        for seed in 0..battery() {
            for rate in [0.3, 0.6, 0.9] {
                let out = run_ft(
                    &scenario,
                    FaultPlan::uniform(n, seed, stormy(rate)),
                    &RetryPolicy::default(),
                );
                assert!(
                    out.answer.is_subset_of(&exact),
                    "{} seed {seed} rate {rate}: {} extra items",
                    scenario.name,
                    out.answer.difference(&exact).len()
                );
                match &out.completeness {
                    Completeness::Exact => {
                        assert_eq!(
                            out.answer, exact,
                            "{} seed {seed} rate {rate}",
                            scenario.name
                        );
                    }
                    Completeness::Subset {
                        missing_sources, ..
                    } => {
                        assert!(!missing_sources.is_empty());
                        assert!(missing_sources.iter().all(|s| s.0 < n));
                    }
                }
            }
        }
    }
}

/// The adaptive executor degrades just as soundly: dead sources are
/// skipped during re-planning and the answer stays a subset.
#[test]
fn adaptive_execution_degrades_to_sound_subsets() {
    for scenario in scenarios() {
        let n = scenario.n();
        let exact = scenario.ground_truth().unwrap();
        let model = scenario.cost_model();
        for seed in 0..battery().min(16) {
            let mut network = scenario.network();
            network.set_fault_plan(FaultPlan::uniform(n, seed, stormy(0.5)));
            let out = execute_adaptive(
                &scenario.query,
                &scenario.sources,
                &mut network,
                &model,
                Some(&RetryPolicy::default()),
            )
            .unwrap();
            assert!(
                out.answer.is_subset_of(&exact),
                "{} seed {seed}",
                scenario.name
            );
            if out.completeness.is_exact() {
                assert_eq!(out.answer, exact, "{} seed {seed}", scenario.name);
            }
        }
    }
}

/// So does the re-optimizing driver under a retry policy: whatever it
/// switches to around the faults, the answer stays a subset, and every
/// run — degraded or not — replays bit for bit from its switch records
/// under the same fault plan and policy.
#[test]
fn reopt_execution_degrades_to_sound_subsets() {
    for scenario in scenarios() {
        let n = scenario.n();
        let exact = scenario.ground_truth().unwrap();
        let model = scenario.cost_model();
        let spec = sja_optimal(&model).spec;
        let policy = RetryPolicy::default();
        for seed in 0..battery().min(16) {
            let faulty = || {
                let mut network = scenario.network();
                network.set_fault_plan(FaultPlan::uniform(n, seed, stormy(0.5)));
                network
            };
            let (out, _) = run_reopt(&scenario, &mut faulty(), Some(&policy));
            assert!(
                out.outcome.answer.is_subset_of(&exact),
                "{} seed {seed}",
                scenario.name
            );
            if out.outcome.completeness.is_exact() {
                assert_eq!(out.outcome.answer, exact, "{} seed {seed}", scenario.name);
            }
            fusion::check::verify_reopt_replay(
                &out,
                &spec,
                &scenario.query,
                &scenario.sources,
                &faulty,
                Some(&policy),
            )
            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", scenario.name));
        }
    }
}

/// A step the run dropped is not an observation. With one source down
/// from its first exchange, every one of its steps is dropped before
/// any round boundary is reached: the violations that follow come from
/// live sources only, the session learns nothing about the dead one —
/// its `items_out = 0` must never calibrate a later query — and the
/// answer is the fusion over the survivors.
#[test]
fn a_dropped_step_is_not_an_observation() {
    let scenario = synth_scenario(&SynthSpec::default_with(6, 17), &[0.05, 0.4, 0.6]);
    let (m, n) = (scenario.m(), scenario.n());
    for dead in 0..n {
        let mut network = scenario.network();
        network.set_fault_plan(FaultPlan::none(n).with_outage(SourceId(dead), 0));
        let (out, session) = run_reopt(&scenario, &mut network, Some(&RetryPolicy::default()));
        let Completeness::Subset {
            missing_sources, ..
        } = &out.outcome.completeness
        else {
            panic!("R{} down: expected a subset answer", dead + 1);
        };
        assert_eq!(missing_sources.as_slice(), &[SourceId(dead)]);
        let survivors: Vec<_> = (scenario.relations.iter().enumerate())
            .filter(|(j, _)| *j != dead)
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(
            out.outcome.answer,
            scenario.query.naive_answer(&survivors).unwrap(),
            "R{} down",
            dead + 1
        );
        assert!(out.violations > 0, "R{} down: nothing re-planned", dead + 1);
        for i in 0..m {
            assert_eq!(
                session.feedback.observed(CondId(i), SourceId(dead)),
                None,
                "R{} down: c{} calibrated from a dropped step",
                dead + 1,
                i + 1
            );
            for live in (0..n).filter(|j| *j != dead) {
                assert!(
                    session
                        .feedback
                        .observed(CondId(i), SourceId(live))
                        .is_some(),
                    "R{} down: live cell c{}/R{} unobserved",
                    dead + 1,
                    i + 1,
                    live + 1
                );
            }
        }
        // No switch was argued from a dead source's silence.
        for sw in &out.switches {
            let entry = (out.outcome.ledger.entries().iter())
                .find(|e| e.kind != StepKind::Reopt && e.step == sw.violating_step)
                .expect("violating step executed");
            assert_ne!(entry.source, Some(SourceId(dead)), "R{} down", dead + 1);
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
    for scenario in scenarios() {
        let n = scenario.n();
        let model = scenario.cost_model();
        let plans = [
            ("FILTER", filter_plan(&model).plan),
            ("SJA", sja_optimal(&model).plan),
        ];
        for dead in 0..n {
            let survivors: Vec<_> = scenario
                .relations
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != dead)
                .map(|(_, r)| r.clone())
                .collect();
            let expected = scenario.query.naive_answer(&survivors).unwrap();
            for (name, plan) in &plans {
                let mut network = scenario.network();
                network.set_fault_plan(FaultPlan::none(n).with_outage(SourceId(dead), 0));
                let out = execute_plan_with(
                    plan,
                    &scenario.query,
                    &scenario.sources,
                    &mut network,
                    Some(&RetryPolicy::default()),
                    None,
                )
                .unwrap();
                let Completeness::Subset {
                    missing_sources, ..
                } = &out.completeness
                else {
                    panic!("{name} on {}: expected a subset answer", scenario.name);
                };
                assert_eq!(
                    missing_sources.as_slice(),
                    &[SourceId(dead)],
                    "{name} on {}",
                    scenario.name
                );
                assert_eq!(
                    out.answer,
                    expected,
                    "{name} on {} with R{} down",
                    scenario.name,
                    dead + 1
                );
            }
        }
    }
}

/// Every source down at once: the fusion of zero sources is empty, and
/// the executor still terminates with a (vacuously sound) subset.
#[test]
fn total_outage_returns_the_empty_subset() {
    let scenario = dmv::figure1_scenario();
    let n = scenario.n();
    let mut faults = FaultPlan::none(n);
    for j in 0..n {
        faults = faults.with_outage(SourceId(j), 0);
    }
    let out = run_ft(&scenario, faults, &RetryPolicy::default());
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
/// entry, `Exact` completeness, zero failed cost.
#[test]
fn faults_off_is_byte_identical_to_plain_execution() {
    for scenario in scenarios() {
        let model = scenario.cost_model();
        for plan in [filter_plan(&model).plan, sja_plus(&model).plan] {
            let mut plain_net = scenario.network();
            let plain =
                execute_plan(&plan, &scenario.query, &scenario.sources, &mut plain_net).unwrap();
            for faults in [None, Some(FaultPlan::none(scenario.n()))] {
                let mut ft_net = scenario.network();
                if let Some(f) = faults {
                    ft_net.set_fault_plan(f);
                }
                let ft = execute_plan_with(
                    &plan,
                    &scenario.query,
                    &scenario.sources,
                    &mut ft_net,
                    Some(&RetryPolicy::default()),
                    None,
                )
                .unwrap();
                assert_eq!(ft.answer, plain.answer, "{}", scenario.name);
                assert_eq!(ft.ledger, plain.ledger, "{}", scenario.name);
                assert!(ft.completeness.is_exact(), "{}", scenario.name);
                assert_eq!(ft.ledger.failed_total(), fusion::types::Cost::ZERO);
                assert_eq!(ft_net.trace(), plain_net.trace(), "{}", scenario.name);
            }
        }
        // The same pair for per-round re-planning: a retry policy with
        // nothing to retry changes not a byte of an adaptive run.
        let adaptive = |retry: Option<&RetryPolicy>| {
            let mut net = scenario.network();
            let out = execute_adaptive(&scenario.query, &scenario.sources, &mut net, &model, retry)
                .unwrap();
            (out, net)
        };
        let (plain, plain_net) = adaptive(None);
        let (ft, ft_net) = adaptive(Some(&RetryPolicy::default()));
        assert_eq!(ft.answer, plain.answer, "{}", scenario.name);
        assert_eq!(ft.ledger, plain.ledger, "{}", scenario.name);
        assert_eq!(ft.completeness, plain.completeness, "{}", scenario.name);
        assert_eq!(ft_net.trace(), plain_net.trace(), "{}", scenario.name);
        let rounds = |o: &fusion::exec::AdaptiveOutcome| -> Vec<_> {
            o.rounds
                .iter()
                .map(|r| {
                    (
                        r.cond,
                        r.choices.clone(),
                        r.predicted_size.to_bits(),
                        r.actual_size,
                    )
                })
                .collect()
        };
        assert_eq!(rounds(&ft), rounds(&plain), "{}", scenario.name);
        // And for certified re-optimization, switches included.
        let mut plain_net = scenario.network();
        let (plain, plain_session) = run_reopt(&scenario, &mut plain_net, None);
        let mut ft_net = scenario.network();
        let (ft, ft_session) = run_reopt(&scenario, &mut ft_net, Some(&RetryPolicy::default()));
        assert_eq!(ft.outcome.answer, plain.outcome.answer, "{}", scenario.name);
        assert_eq!(ft.outcome.ledger, plain.outcome.ledger, "{}", scenario.name);
        assert_eq!(
            ft.outcome.completeness, plain.outcome.completeness,
            "{}",
            scenario.name
        );
        assert_eq!(ft.switches, plain.switches, "{}", scenario.name);
        assert_eq!(ft.final_spec, plain.final_spec, "{}", scenario.name);
        assert_eq!(
            ft_session.feedback, plain_session.feedback,
            "{}",
            scenario.name
        );
        assert_eq!(ft_net.trace(), plain_net.trace(), "{}", scenario.name);
    }
}

/// A no-retry policy under faults still never aborts: failures become
/// drops, drops become subsets.
#[test]
fn no_retry_policy_degrades_without_error() {
    let scenario = synth_scenario(&SynthSpec::default_with(5, 23), &[0.1, 0.5]);
    let n = scenario.n();
    let exact = scenario.ground_truth().unwrap();
    for seed in 0..battery().min(16) {
        let out = run_ft(
            &scenario,
            FaultPlan::uniform(n, seed, stormy(0.5)),
            &RetryPolicy::no_retry(),
        );
        assert!(out.answer.is_subset_of(&exact), "seed {seed}");
    }
}
