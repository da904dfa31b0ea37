//! Parallel-execution parity battery: the multi-threaded executor must be
//! **byte-identical** to sequential execution — answers, completeness,
//! ledger entry by entry, and network trace — across thread counts, plan
//! shapes, scenarios, and fault seeds, and deterministic under same-seed
//! replay. The cells are the lattice's (`common::lattice`); the width is
//! `width("parallel")`.

mod common;

use common::lattice::{
    fixed, in_memory, retried, stages, storms, Cache, Case, Cell, Faults, Shape,
};
use common::{for_seeds, queue_order_plan, width};
use fusion::core::plan::Plan;
use fusion::core::query::FusionQuery;
use fusion::core::{filter_plan, greedy_sja, sj_optimal, sja_optimal, sja_plus};
use fusion::exec::{run, stage_schedule, RunOptions, Schedule, Target};
use fusion::net::{LinkProfile, Network};
use fusion::source::{Capabilities, ProcessingProfile, SourceSet};
use fusion::workload::dmv;

/// The certified stages at 1, 2 and 8 threads.
const STAGED: [Schedule<'static>; 3] = [stages(1), stages(2), stages(8)];

// ---------- faults off ------------------------------------------------------

/// Every plan shape, every scenario, threads ∈ {1, 2, 8}: identical
/// answer, ledger, completeness, exchange trace, and network totals.
#[test]
fn parallel_is_byte_identical_to_sequential() {
    for scenario in fixed() {
        for shape in [Shape::Filter, Shape::Sja, Shape::SjaPlus] {
            Case::new(&scenario, shape).sweep((&STAGED, false), None, &[Faults::Off], Cache::None);
        }
    }
}

/// The parallel ledger replays through the stage-schedule machinery: the
/// stage trace it produces verifies, and its makespan is the executor's
/// and never exceeds the total work (every fault-free parallel cell).
#[test]
fn parallel_ledger_replays_and_verifies() {
    for scenario in fixed() {
        let cell = Cell::of(stages(4), None, Faults::Off, Cache::None);
        Case::new(&scenario, Shape::Sja).check(&[cell]);
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
        let options = RunOptions {
            schedule: stages(2),
            ..RunOptions::default()
        };
        let out = run(Target::Plan(plan), query, sources, &mut net, options).unwrap();
        let (trace, makespan) = stage_schedule(plan, &out.outcome.ledger).unwrap();
        let par = out.stages.unwrap();
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
    for_seeds(width("parallel"), |g| {
        let m = 1 + g.0.next_below(5);
        let n = 2 + g.0.next_below(4);
        let query = g.query(m);
        let full = vec![Capabilities::full(); n];
        let sources = in_memory(&g.relations(n), &full, ProcessingProfile::default());
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
    let storms = storms(width("parallel"), &[0.3, 0.7]);
    for scenario in fixed() {
        Case::new(&scenario, Shape::SjaPlus).sweep(
            (&STAGED, false),
            retried(),
            &storms,
            Cache::None,
        );
    }
}

/// Same fault seed, same thread count ⇒ identical runs — thread
/// scheduling never leaks into the outcome — and across thread counts
/// the outcome is a function of the inputs alone.
#[test]
fn same_seed_parallel_replay_is_deterministic() {
    let storm = [Faults::Stormy(0xBAD, 0.4)];
    for scenario in fixed() {
        let case = Case::new(&scenario, Shape::SjaPlus);
        let runs = case.sweep((&STAGED, false), retried(), &storm, Cache::None);
        for (schedule, run) in STAGED.into_iter().zip(runs) {
            let again = case.run(Cell::of(schedule, retried(), storm[0], Cache::None));
            assert_eq!(again.fp, run.fp, "{} {schedule:?}", case.tag);
        }
    }
}

/// A permanent single-source outage degrades the parallel run to the
/// same subset the sequential run reports: the fusion over the survivors.
#[test]
fn parallel_outage_degrades_identically() {
    for scenario in fixed() {
        let outages: Vec<Faults> = (0..scenario.n()).map(Faults::Outage).collect();
        let case = Case::new(&scenario, Shape::Sja);
        case.sweep((&[stages(8)], false), retried(), &outages, Cache::None);
    }
}
