//! Concurrency interference battery: the static analyzer and the
//! deterministic schedule model-checker must *agree* — certified
//! schedules are proven conflict-free by both, and a seeded mutant (the
//! fault-recovery epoch bump left unordered against a cache admission)
//! is caught by both, with the analyzer's witness schedules replaying to
//! a real byte-level divergence.
//!
//! The interleaving battery size scales with `CHECK_BATTERY_SEEDS`
//! (default 8) so CI can run a heavier sweep in release mode.

mod common;

use common::queue_order_plan;
use fusion::cache::AnswerCache;
use fusion::check::{
    check_certified, check_schedules, enumerate_schedules, schedule_fingerprint, CheckConfig,
};
use fusion::core::dataflow::{
    cache_commit_race_findings, conflicting_footprint_findings, interference_report,
    stage_decomposition, verify_stage_decomposition, Event, EventGraph,
};
use fusion::core::plan::{Plan, Step, VarId};
use fusion::core::{filter_plan, sja_optimal};
use fusion::exec::{
    execute_plan_parallel, execute_plan_with, ParallelConfig, ReplayOptions, RetryPolicy,
};
use fusion::net::{FaultPlan, FaultSpec, Network};
use fusion::types::{CondId, SourceId};
use fusion::workload::dmv;

fn battery() -> u64 {
    std::env::var("CHECK_BATTERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// Every certified schedule of the paper's optimizer plans is proven
/// conflict-free by the static analyzer AND linearizable by the
/// model-checker — plain, fault-tolerant, and cached modes.
#[test]
fn certified_schedules_are_conflict_free_and_linearizable() {
    let scenario = dmv::figure1_scenario();
    let model = scenario.cost_model();
    let make_net = || scenario.network();
    for opt in [filter_plan(&model), sja_optimal(&model)] {
        for cached in [false, true] {
            assert!(
                interference_report(&opt.plan, cached).unwrap().is_empty(),
                "analyzer: certified schedule must be conflict-free"
            );
        }
        let plain = check_certified(
            &opt.plan,
            &scenario.query,
            &scenario.sources,
            &make_net,
            None,
            &CheckConfig::default(),
        )
        .unwrap();
        assert!(plain.linearizable(), "{:?}", plain.divergence);
        let policy = RetryPolicy::default();
        let cached_cfg = CheckConfig::default().cached(1 << 20);
        for seed in 0..battery().min(8) {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.4));
            let make_faulty = || {
                let mut net = scenario.network();
                net.set_fault_plan(faults.clone());
                net
            };
            let report = check_certified(
                &opt.plan,
                &scenario.query,
                &scenario.sources,
                &make_faulty,
                Some(&policy),
                &cached_cfg,
            )
            .unwrap();
            assert!(
                report.linearizable(),
                "seed {seed}: {:?}",
                report.divergence
            );
        }
    }
}

/// The always-on release guard: a stage schedule that puts both R3
/// selections in one stage is rejected outright — in release builds too
/// (CI runs this battery with `--release`) — and the conflicting
/// footprints produce a lint finding with witness schedules.
#[test]
fn release_guard_rejects_racy_stage_schedule() {
    let plan = queue_order_plan();
    // Dependency-wavefront stages without the serial-queue refinement:
    // steps 2 (`sq(c1,R3)`... index 2) and 6 share source R3 in stage 0.
    let racy = vec![vec![0, 1, 2, 6], vec![3], vec![4, 5, 7], vec![8]];
    let err = verify_stage_decomposition(&plan, &racy).unwrap_err();
    assert!(
        err.to_string().contains("source-disjoint"),
        "guard must name the violated invariant: {err}"
    );
    // The certified stages pass the same guard.
    let stages = stage_decomposition(&plan).unwrap().stages;
    verify_stage_decomposition(&plan, &stages).unwrap();
    // The static lint view of the same race: two unordered executions
    // with conflicting footprints on R3's network shard.
    let graph = EventGraph::certified(&plan, &racy, false);
    let findings = conflicting_footprint_findings(&plan, &graph);
    assert!(
        !findings.is_empty(),
        "conflicting-stage-footprints must fire on the racy schedule"
    );
    assert!(
        findings[0].message.contains("network shard"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("witness schedules"),
        "{}",
        findings[0].message
    );
}

/// A one-selection plan whose cached event graph is mutated so the
/// fault-recovery epoch bump is left *unordered* against the cache
/// admission — the seeded bug both tools must catch.
fn mutant_plan() -> Plan {
    let mut plan = Plan::new(vec![], VarId(0), 1, 1);
    let x = plan.fresh_var("X");
    plan.steps = vec![Step::Sq {
        out: x,
        cond: CondId(0),
        source: SourceId(0),
    }];
    plan.result = x;
    plan
}

/// The mutant graph: lookup → exec, exec → bump, exec → commit — the
/// certified bump → commit edge is deliberately missing.
fn mutant_graph(plan: &Plan) -> EventGraph {
    let mut g = EventGraph::new();
    let lookup = g.push(plan, Event::Lookup { step: 0 });
    let exec = g.push(plan, Event::Exec { step: 0 });
    let bump = g.push(plan, Event::EpochBump { source: 0 });
    let commit = g.push(plan, Event::Commit { step: 0 });
    g.add_edge(lookup, exec);
    g.add_edge(exec, bump);
    g.add_edge(exec, commit);
    g
}

fn one_source_fixture() -> (fusion::core::FusionQuery, fusion::source::SourceSet) {
    use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion::types::schema::dmv_schema;
    use fusion::types::{tuple, Predicate, Relation};
    let rel = Relation::from_rows(
        dmv_schema(),
        vec![
            tuple!["J55", "dui", 1993i64],
            tuple!["T21", "sp", 1994i64],
            tuple!["T80", "dui", 1993i64],
        ],
    );
    let query =
        fusion::core::FusionQuery::new(dmv_schema(), vec![Predicate::eq("V", "dui").into()])
            .unwrap();
    let sources = fusion::source::SourceSet::new(vec![Box::new(InMemoryWrapper::new(
        "R1".to_owned(),
        rel,
        Capabilities::full(),
        ProcessingProfile::indexed_db(),
        0,
    )) as Box<dyn fusion::source::Wrapper>]);
    (query, sources)
}

/// The seeded mutant is caught by BOTH tools: the static analyzer flags
/// the unordered bump/commit pair with a two-schedule witness, and the
/// model-checker replays those two schedules to a real byte-level
/// divergence (the admission lands at different epochs, so the second
/// round serves from cache in one schedule and refetches in the other).
#[test]
fn seeded_mutant_is_caught_by_analyzer_and_checker() {
    let plan = mutant_plan();
    let graph = mutant_graph(&plan);

    // Static: the cache-commit-race lint fires with witness schedules.
    let findings = cache_commit_race_findings(&plan, &graph);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "cache-commit-race");
    assert!(
        findings[0].message.contains("witness schedules"),
        "{}",
        findings[0].message
    );
    // ... and the certified graph of the same plan is clean.
    assert!(interference_report(&plan, true).unwrap().is_empty());

    // Dynamic: the model-checker finds the divergence. The fault plan
    // must fail the source transiently during the fetch (so the bump
    // fires) while the retry still delivers (so an admission is
    // pending); the commit guard is switched off to run the mutant's
    // admission semantics.
    let (query, sources) = one_source_fixture();
    let cfg = CheckConfig::default()
        .cached(1 << 20)
        .with_options(ReplayOptions {
            guard_commits: false,
        });
    let policy = RetryPolicy::default();
    let mut caught = None;
    for seed in 0..64u64 {
        let faults = FaultPlan::uniform(1, seed, FaultSpec::transient(0.5));
        let make_net = || {
            let mut net = Network::uniform(1, fusion::net::LinkProfile::Wan.link());
            net.set_fault_plan(faults.clone());
            net
        };
        // Only seeds where the single exchange actually fails once can
        // expose the race; skip the quiet ones.
        let mut probe = make_net();
        let mut probe_cache = AnswerCache::new(1 << 20);
        execute_plan_with(
            &plan,
            &query,
            &sources,
            &mut probe,
            Some(&policy),
            Some(&mut probe_cache),
        )
        .unwrap();
        if probe.failed_count_for(SourceId(0)) == 0 {
            continue;
        }
        let report = check_schedules(
            &plan,
            &query,
            &sources,
            &make_net,
            Some(&policy),
            &cfg,
            &graph,
        )
        .unwrap();
        let (schedules, _) = enumerate_schedules(&graph, 16);
        assert!(
            schedules.len() >= 2,
            "the unordered pair must branch the search"
        );
        let divergence = report
            .divergence
            .expect("model-checker must catch the mutant");

        // The analyzer's witness schedules replay to the same parity
        // violation: the two orders it printed produce different
        // fingerprints through the real executors.
        let witness = &interference_report_for(&graph)[0].witness;
        let fp_first = schedule_fingerprint(
            &plan,
            &query,
            &sources,
            &make_net,
            Some(&policy),
            &cfg,
            &witness.first,
        )
        .unwrap();
        let fp_second = schedule_fingerprint(
            &plan,
            &query,
            &sources,
            &make_net,
            Some(&policy),
            &cfg,
            &witness.second,
        )
        .unwrap();
        assert_ne!(
            fp_first, fp_second,
            "seed {seed}: static witness must replay to a real divergence"
        );
        caught = Some((seed, divergence));
        break;
    }
    let (seed, divergence) = caught.expect("no seed exposed the race within the battery");
    assert!(
        !divergence.schedule.is_empty() && !divergence.baseline.is_empty(),
        "seed {seed}: divergence must carry both schedules"
    );

    // The *certified* graph of the same plan — with the bump → commit
    // edge restored and the production commit guard on — is linearizable
    // under the very same fault seeds: restoring the order fixes the bug.
    let certified = CheckConfig::default().cached(1 << 20);
    for seed in 0..8u64 {
        let faults = FaultPlan::uniform(1, seed, FaultSpec::transient(0.5));
        let make_net = || {
            let mut net = Network::uniform(1, fusion::net::LinkProfile::Wan.link());
            net.set_fault_plan(faults.clone());
            net
        };
        let report = check_certified(
            &plan,
            &query,
            &sources,
            &make_net,
            Some(&policy),
            &certified,
        )
        .unwrap();
        assert!(
            report.linearizable(),
            "seed {seed}: the certified schedule must stay clean: {:?}",
            report.divergence
        );
    }
}

fn interference_report_for(graph: &EventGraph) -> Vec<fusion::core::dataflow::Interference> {
    graph.interferences()
}

/// The real-thread side of the battery: the parallel cached fault-
/// tolerant executor (whose stage certificate the analyzer just proved
/// conflict-free) stays byte-identical to the sequential one across a
/// seed sweep.
#[test]
fn parallel_cached_ft_parity_battery() {
    let scenario = dmv::figure1_scenario();
    let model = scenario.cost_model();
    let plan = sja_optimal(&model).plan;
    let policy = RetryPolicy::default();
    for seed in 0..battery() {
        let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.4));
        let mut seq_cache = AnswerCache::new(1 << 20);
        let mut par_cache = AnswerCache::new(1 << 20);
        for round in 0..2 {
            let mut seq_net = scenario.network();
            seq_net.set_fault_plan(faults.clone());
            let seq = execute_plan_with(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut seq_net,
                Some(&policy),
                Some(&mut seq_cache),
            )
            .unwrap();
            let mut par_net = scenario.network();
            par_net.set_fault_plan(faults.clone());
            let par = execute_plan_parallel(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut par_net,
                Some(&policy),
                Some(&mut par_cache),
                &ParallelConfig::with_threads(4),
            )
            .unwrap();
            assert_eq!(par.outcome.answer, seq.answer, "seed {seed} round {round}");
            assert_eq!(par.outcome.ledger, seq.ledger, "seed {seed} round {round}");
            assert_eq!(
                par.outcome.completeness, seq.completeness,
                "seed {seed} round {round}"
            );
            assert_eq!(
                par_net.trace(),
                seq_net.trace(),
                "seed {seed} round {round}"
            );
            assert_eq!(
                par_cache.stats(),
                seq_cache.stats(),
                "seed {seed} round {round}"
            );
        }
    }
}
