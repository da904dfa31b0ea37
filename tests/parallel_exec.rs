//! Parallel-execution parity battery: the multi-threaded executor must be
//! **byte-identical** to sequential execution — answers, completeness,
//! ledger entry by entry, and network trace — across thread counts, plan
//! shapes, scenarios, and fault seeds, and deterministic under same-seed
//! replay.
//!
//! The seed battery size scales with `PARALLEL_BATTERY_SEEDS` (default
//! 24) so CI can run a heavier sweep than the local default.

mod common;

use common::{for_seeds, queue_order_plan};
use fusion::core::plan::Plan;
use fusion::core::postopt::sja_plus;
use fusion::core::query::FusionQuery;
use fusion::core::{filter_plan, greedy_sja, sj_optimal, sja_optimal};
use fusion::exec::{
    execute_plan, execute_plan_parallel, execute_plan_with, schedule, stage_schedule,
    verify_stage_trace, ParallelConfig, RetryPolicy,
};
use fusion::net::{FaultPlan, FaultSpec, LinkProfile, Network};
use fusion::source::{InMemoryWrapper, SourceSet};
use fusion::workload::synth::{synth_scenario, SynthSpec};
use fusion::workload::{dmv, Scenario};

const THREADS: [usize; 3] = [1, 2, 8];

fn battery() -> u64 {
    std::env::var("PARALLEL_BATTERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

fn scenarios() -> Vec<Scenario> {
    vec![
        dmv::figure1_scenario(),
        synth_scenario(&SynthSpec::default_with(6, 17), &[0.05, 0.4, 0.6]),
    ]
}

/// A spec that exercises every fault kind at once (mirrors the
/// fault-tolerance battery).
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

// ---------- faults off ------------------------------------------------------

/// Every plan shape, every scenario, threads ∈ {1, 2, 8}: identical
/// answer, ledger, completeness, exchange trace, and network totals.
#[test]
fn parallel_is_byte_identical_to_sequential() {
    for scenario in scenarios() {
        let model = scenario.cost_model();
        for (shape, plan) in [
            ("FILTER", filter_plan(&model).plan),
            ("SJA", sja_optimal(&model).plan),
            ("SJA+", sja_plus(&model).plan),
        ] {
            let mut seq_net = scenario.network();
            let seq =
                execute_plan(&plan, &scenario.query, &scenario.sources, &mut seq_net).unwrap();
            for threads in THREADS {
                let mut par_net = scenario.network();
                let par = execute_plan_parallel(
                    &plan,
                    &scenario.query,
                    &scenario.sources,
                    &mut par_net,
                    None,
                    None,
                    &ParallelConfig::with_threads(threads),
                )
                .unwrap();
                let tag = format!("{shape} on {} with {threads} threads", scenario.name);
                assert_eq!(par.outcome.answer, seq.answer, "{tag}");
                assert_eq!(par.outcome.ledger, seq.ledger, "{tag}");
                assert_eq!(par.outcome.completeness, seq.completeness, "{tag}");
                assert_eq!(par_net.trace(), seq_net.trace(), "{tag}");
                assert_eq!(par_net.total_cost(), seq_net.total_cost(), "{tag}");
                assert_eq!(par.threads, threads, "{tag}");
            }
        }
    }
}

/// The parallel ledger replays through the sequential scheduling
/// machinery: same response time, and the stage trace it produces
/// verifies.
#[test]
fn parallel_ledger_replays_and_verifies() {
    for scenario in scenarios() {
        let model = scenario.cost_model();
        let plan = sja_optimal(&model).plan;
        let mut seq_net = scenario.network();
        let seq = execute_plan(&plan, &scenario.query, &scenario.sources, &mut seq_net).unwrap();
        let mut par_net = scenario.network();
        let par = execute_plan_parallel(
            &plan,
            &scenario.query,
            &scenario.sources,
            &mut par_net,
            None,
            None,
            &ParallelConfig::with_threads(4),
        )
        .unwrap();
        let (seq_sched, seq_rt) = schedule(&plan, &seq.ledger).unwrap();
        let (par_sched, par_rt) = schedule(&plan, &par.outcome.ledger).unwrap();
        assert_eq!(seq_sched, par_sched, "{}", scenario.name);
        assert_eq!(seq_rt, par_rt, "{}", scenario.name);
        let (trace, makespan) = stage_schedule(&plan, &par.outcome.ledger).unwrap();
        verify_stage_trace(&plan, &par.outcome.ledger, &trace).unwrap();
        assert_eq!(par.makespan, makespan, "{}", scenario.name);
        assert!(
            makespan <= par.outcome.ledger.total().value() + 1e-9,
            "{}: makespan cannot exceed total work",
            scenario.name
        );
    }
}

/// What the executor reports is what it ran: `stages` and `makespan` are
/// those of the one certified schedule `stage_schedule` re-derives, and
/// that schedule keeps every stage source-disjoint and every source's
/// steps in plan order — on optimizer plans, random specs, and a plan
/// with two steps of one source at one dependency level.
#[test]
fn reported_schedule_is_the_executed_schedule() {
    let check = |plan: &Plan, query: &FusionQuery, sources: &SourceSet, tag: &str| {
        let mut net = Network::uniform(sources.len(), LinkProfile::Wan.link());
        let config = ParallelConfig::with_threads(2);
        let par =
            execute_plan_parallel(plan, query, sources, &mut net, None, None, &config).unwrap();
        let (trace, makespan) = stage_schedule(plan, &par.outcome.ledger).unwrap();
        assert_eq!(trace.len(), par.stages, "{tag}");
        assert_eq!(makespan.to_bits(), par.makespan.to_bits(), "{tag}");
        let mut last_stage = vec![None; sources.len()];
        for entry in &trace {
            for &t in &entry.steps {
                let Some(src) = plan.steps[t].source() else {
                    continue;
                };
                // Steps ascend inside a stage and stages are visited in
                // order, so this is plan order per source — strictly
                // later stage each time, hence never twice in one.
                assert!(
                    last_stage[src.0] < Some(entry.stage),
                    "{tag}: step {t} repeats or reorders R{} in stage {}",
                    src.0 + 1,
                    entry.stage
                );
                last_stage[src.0] = Some(entry.stage);
            }
            assert!(entry.steps.is_sorted(), "{tag}");
        }
    };
    for_seeds(battery(), |g| {
        let m = 1 + g.0.next_below(5);
        let n = 2 + g.0.next_below(4);
        let query = g.query(m);
        let sources = SourceSet::new(
            g.relations(n)
                .into_iter()
                .enumerate()
                .map(|(j, r)| {
                    Box::new(InMemoryWrapper::fully_capable(format!("R{}", j + 1), r)) as _
                })
                .collect(),
        );
        let model = g.model(m, n);
        for (shape, plan) in [
            ("FILTER", filter_plan(&model).plan),
            ("SJ", sj_optimal(&model).plan),
            ("SJA", sja_optimal(&model).plan),
            ("SJA+", sja_plus(&model).plan),
            ("GREEDY", greedy_sja(&model).plan),
            ("SPEC", g.spec(m, n).build(n).unwrap()),
        ] {
            check(&plan, &query, &sources, shape);
        }
    });
    let scenario = dmv::figure1_scenario();
    check(
        &queue_order_plan(),
        &scenario.query,
        &scenario.sources,
        "two R3 selections at one level",
    );
}

// ---------- faults on -------------------------------------------------------

/// Seed battery under every fault kind: the fault-tolerant parallel
/// executor matches sequential fault-tolerant execution byte for byte —
/// including attempt counters and failed costs, which is what the
/// per-source serial queues exist to protect.
#[test]
fn parallel_ft_matches_sequential_across_fault_battery() {
    let policy = RetryPolicy::default();
    for scenario in scenarios() {
        let n = scenario.n();
        let model = scenario.cost_model();
        let plan = sja_plus(&model).plan;
        for seed in 0..battery() {
            for rate in [0.3, 0.7] {
                let faults = FaultPlan::uniform(n, seed, stormy(rate));
                let mut seq_net = scenario.network();
                seq_net.set_fault_plan(faults.clone());
                let seq = execute_plan_with(
                    &plan,
                    &scenario.query,
                    &scenario.sources,
                    &mut seq_net,
                    Some(&policy),
                    None,
                )
                .unwrap();
                for threads in THREADS {
                    let faults = faults.clone();
                    let mut par_net = scenario.network();
                    par_net.set_fault_plan(faults);
                    let par = execute_plan_parallel(
                        &plan,
                        &scenario.query,
                        &scenario.sources,
                        &mut par_net,
                        Some(&policy),
                        None,
                        &ParallelConfig::with_threads(threads),
                    )
                    .unwrap();
                    let tag = format!(
                        "{} seed {seed} rate {rate} threads {threads}",
                        scenario.name
                    );
                    assert_eq!(par.outcome.answer, seq.answer, "{tag}");
                    assert_eq!(par.outcome.ledger, seq.ledger, "{tag}");
                    assert_eq!(par.outcome.completeness, seq.completeness, "{tag}");
                    assert_eq!(par_net.trace(), seq_net.trace(), "{tag}");
                    assert_eq!(par_net.failed_count(), seq_net.failed_count(), "{tag}");
                }
            }
        }
    }
}

/// Same fault seed, same thread count ⇒ identical runs — thread
/// scheduling never leaks into the outcome.
#[test]
fn same_seed_parallel_replay_is_deterministic() {
    let policy = RetryPolicy::default();
    for scenario in scenarios() {
        let n = scenario.n();
        let model = scenario.cost_model();
        let plan = sja_plus(&model).plan;
        let run = |threads: usize| {
            let mut network = scenario.network();
            network.set_fault_plan(FaultPlan::uniform(n, 0xBAD, stormy(0.4)));
            let out = execute_plan_parallel(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut network,
                Some(&policy),
                None,
                &ParallelConfig::with_threads(threads),
            )
            .unwrap();
            (out, network.trace().to_vec())
        };
        for threads in THREADS {
            let (a, trace_a) = run(threads);
            let (b, trace_b) = run(threads);
            assert_eq!(a.outcome.answer, b.outcome.answer, "{}", scenario.name);
            assert_eq!(a.outcome.ledger, b.outcome.ledger, "{}", scenario.name);
            assert_eq!(
                a.outcome.completeness, b.outcome.completeness,
                "{}",
                scenario.name
            );
            assert_eq!(trace_a, trace_b, "{}", scenario.name);
        }
        // And across thread counts: the outcome is a function of the
        // inputs alone.
        let (t1, trace1) = run(1);
        let (t8, trace8) = run(8);
        assert_eq!(t1.outcome.ledger, t8.outcome.ledger, "{}", scenario.name);
        assert_eq!(trace1, trace8, "{}", scenario.name);
    }
}

/// A permanent single-source outage degrades the parallel run to the
/// same subset the sequential run reports.
#[test]
fn parallel_outage_degrades_identically() {
    let policy = RetryPolicy::default();
    for scenario in scenarios() {
        let n = scenario.n();
        let model = scenario.cost_model();
        let plan = sja_optimal(&model).plan;
        for dead in 0..n {
            let faults = FaultPlan::none(n).with_outage(fusion::types::SourceId(dead), 0);
            let mut seq_net = scenario.network();
            seq_net.set_fault_plan(faults.clone());
            let seq = execute_plan_with(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut seq_net,
                Some(&policy),
                None,
            )
            .unwrap();
            let mut par_net = scenario.network();
            par_net.set_fault_plan(faults);
            let par = execute_plan_parallel(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut par_net,
                Some(&policy),
                None,
                &ParallelConfig::with_threads(8),
            )
            .unwrap();
            let tag = format!("{} with R{} down", scenario.name, dead + 1);
            assert_eq!(par.outcome.answer, seq.answer, "{tag}");
            assert_eq!(par.outcome.completeness, seq.completeness, "{tag}");
            assert_eq!(par.outcome.ledger, seq.ledger, "{tag}");
            assert!(!par.outcome.completeness.is_exact(), "{tag}");
        }
    }
}
