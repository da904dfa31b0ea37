//! Concurrency interference battery: the static analyzer and the
//! deterministic schedule model-checker must *agree* — certified
//! schedules are proven conflict-free by both, and a seeded mutant (the
//! fault-recovery epoch bump left unordered against a cache admission)
//! is caught by both, with the analyzer's witness schedules replaying to
//! a real byte-level divergence. The replay and parallel cells are the
//! lattice's (`common::lattice`); the width is `width("concurrency")`.

mod common;

use common::lattice::{in_memory, retried, stages, storms, world, Cache, Case, Cell, Faults};
use common::lattice::{Shape, World, REPLAY};
use common::mutants::sq;
use common::{queue_order_plan, width};
use fusion::cache::AnswerCache;
use fusion::check::{check_certified, check_schedules, enumerate_schedules};
use fusion::check::{schedule_fingerprint, CheckConfig};
use fusion::core::dataflow::{
    cache_commit_race_findings, conflicting_footprint_findings, interference_report,
    stage_decomposition, verify_stage_decomposition, Event, EventGraph,
};
use fusion::core::plan::{Plan, VarId};
use fusion::core::FusionQuery;
use fusion::exec::{run, RunOptions, Target};
use fusion::net::{FaultPlan, FaultSpec, LinkProfile, Network};
use fusion::source::{Capabilities, ProcessingProfile};
use fusion::types::schema::dmv_schema;
use fusion::types::{tuple, Predicate, Relation, SourceId};

/// Every certified schedule of the paper's optimizer plans is proven
/// conflict-free by the static analyzer AND linearizable by the
/// model-checker — plain, and fault-tolerant with a warm cache.
#[test]
fn certified_schedules_are_conflict_free_and_linearizable() {
    let scenario = world(World::Figure1, 0);
    let storms = storms(width("concurrency").min(8), &[0.4]);
    for shape in [Shape::Filter, Shape::Sja] {
        let case = Case::new(&scenario, shape);
        for cached in [false, true] {
            let report = interference_report(&case.plan, cached).unwrap();
            assert!(
                report.is_empty(),
                "analyzer: certified must be conflict-free"
            );
        }
        case.check(&[Cell::of(REPLAY, None, Faults::Off, Cache::None)]);
        case.sweep((&[REPLAY], false), retried(), &storms, Cache::Warm);
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
    let err = err.to_string();
    assert!(
        err.contains("source-disjoint"),
        "guard must name the invariant: {err}"
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
        "conflicting-stage-footprints must fire"
    );
    let message = &findings[0].message;
    assert!(message.contains("network shard"), "{message}");
    assert!(message.contains("witness schedules"), "{message}");
}

/// A one-selection plan whose cached event graph is mutated so the
/// fault-recovery epoch bump is left *unordered* against the cache
/// admission — the seeded bug both tools must catch.
fn mutant_plan() -> Plan {
    let mut plan = Plan::new(vec![sq(0, 0, 0)], VarId(0), 1, 1);
    plan.var_names = vec!["X".into()];
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

/// One source under transient faults of rate 0.5 drawn from `seed`.
fn faulty(seed: u64) -> impl Fn() -> Network {
    move || {
        let mut net = Network::uniform(1, LinkProfile::Wan.link());
        net.set_fault_plan(FaultPlan::uniform(1, seed, FaultSpec::transient(0.5)));
        net
    }
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
    let message = &findings[0].message;
    assert!(message.contains("witness schedules"), "{message}");
    // ... and the certified graph of the same plan is clean.
    assert!(interference_report(&plan, true).unwrap().is_empty());

    // Dynamic: the model-checker finds the divergence. The fault plan
    // must fail the source transiently during the fetch (so the bump
    // fires) while the retry still delivers (so an admission is
    // pending); the commit guard is switched off to run the mutant's
    // admission semantics.
    let rows = vec![
        tuple!["J55", "dui", 1993i64],
        tuple!["T21", "sp", 1994i64],
        tuple!["T80", "dui", 1993i64],
    ];
    let rels = [Relation::from_rows(dmv_schema(), rows)];
    let sources = in_memory(
        &rels,
        &[Capabilities::full()],
        ProcessingProfile::indexed_db(),
    );
    let query = FusionQuery::new(dmv_schema(), vec![Predicate::eq("V", "dui").into()]).unwrap();
    let cfg = CheckConfig {
        guard_commits: false,
        ..CheckConfig::default().cached(1 << 20)
    };
    let policy = retried();
    let mut caught = None;
    for seed in 0..64u64 {
        let make_net = faulty(seed);
        // Only seeds where the single exchange actually fails once can
        // expose the race; skip the quiet ones.
        let (mut probe, mut probe_cache) = (make_net(), AnswerCache::new(1 << 20));
        let options = RunOptions {
            retry: policy,
            cache: Some(&mut probe_cache),
            ..RunOptions::default()
        };
        run(Target::Plan(&plan), &query, &sources, &mut probe, options).unwrap();
        if probe.failed_count_for(SourceId(0)) == 0 {
            continue;
        }
        let report =
            check_schedules(&plan, &query, &sources, &make_net, policy, &cfg, &graph).unwrap();
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
        let witness = &graph.interferences()[0].witness;
        let fp = |order: &[Event]| {
            schedule_fingerprint(&plan, &query, &sources, &make_net, policy, &cfg, order).unwrap()
        };
        let (first, second) = (fp(&witness.first), fp(&witness.second));
        assert_ne!(
            first, second,
            "seed {seed}: the witness must replay to a divergence"
        );
        caught = Some((seed, divergence));
        break;
    }
    let (seed, divergence) = caught.expect("no seed exposed the race within the battery");
    let both = !divergence.schedule.is_empty() && !divergence.baseline.is_empty();
    assert!(both, "seed {seed}: divergence must carry both schedules");

    // The *certified* graph of the same plan — with the bump → commit
    // edge restored and the production commit guard on — is linearizable
    // under the very same fault seeds: restoring the order fixes the bug.
    let certified = CheckConfig::default().cached(1 << 20);
    for seed in 0..8u64 {
        let make_net = faulty(seed);
        let report =
            check_certified(&plan, &query, &sources, &make_net, policy, &certified).unwrap();
        let divergence = &report.divergence;
        assert!(
            report.linearizable(),
            "seed {seed}: certified must stay clean: {divergence:?}"
        );
    }
}

/// The real-thread side of the battery: the parallel cached fault-
/// tolerant executor (whose stage certificate the analyzer just proved
/// conflict-free) stays byte-identical to the sequential one across a
/// seed sweep, cache statistics and epochs included, round by round.
#[test]
fn parallel_cached_ft_parity_battery() {
    let scenario = world(World::Figure1, 0);
    let storms = storms(width("concurrency"), &[0.4]);
    let case = Case::new(&scenario, Shape::Sja);
    case.sweep((&[stages(4)], false), retried(), &storms, Cache::Warm);
}
