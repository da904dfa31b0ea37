//! Adaptive re-optimization parity battery.
//!
//! Two invariants, swept over seeded random relations and queries:
//!
//! * **Accurate statistics → adaptation is invisible.** When the cost
//!   model's per-cell estimates are exact, the adaptive executor must
//!   be byte-identical to the reopt-off executor — same ledger, same
//!   network trace, zero violations, zero switches — on the
//!   sequential, parallel, and cached paths alike.
//! * **Misestimates → switches are safe.** Under deliberately deflated
//!   estimates the adaptive executor may splice certified plan
//!   switches mid-flight, but every switched run must replay
//!   bit-for-bit from its switch records, the parallel path must match
//!   the sequential path byte-for-byte, and every answer must be the
//!   truth — adaptation changes costs, never results.
//!
//! A third test drives the mediator server with between-query feedback
//! calibration on and proves its admission log still replays to byte
//! parity at every worker count.
//!
//! A fourth pins what `slack: 1, min_gain: 0` means — point trust
//! regions for every step and for the running set, the search's winner
//! taken whenever it differs: per-round re-planning. Every executed round
//! is the first round of Figures 3–4's enumeration over the conditions
//! still to run, from the observed running-set size; it was priced to
//! leave that enumeration's `|X|` and left the ledger's — while staying a
//! certified, replayable plan execution. It sweeps correlated synthetic
//! worlds and toy DMV ones, where an observation can equal its estimate.
//!
//! A fifth holds an eight-condition query at that config to the same
//! enumeration: a suffix of seven conditions is the one search a node
//! budget could once cut short, and it now re-plans to the exact optimum.
//!
//! The cells are the lattice's (`common::lattice`); the width is
//! `width("reopt")`.

mod common;

use common::lattice::SEQ;
use common::lattice::{serve_cells, stages, world, Cache, Case, Cell, Faults, Run, Shape, World};
use common::width;
use fusion::core::optimizer::{reference_enumeration, RoundRule};
use fusion::core::plan::SourceChoice;
use fusion::core::{FeedbackCostModel, TableCostModel};
use fusion::exec::{ReoptConfig, ReoptReport, ServerConfig, StepKind, TenantEvent};
use fusion::stats::{CardinalityFeedback, SplitMix64};
use fusion::types::{CondId, SourceId};
use fusion::workload::Scenario;

/// A cost model whose per-cell cardinality estimates are the truth
/// scaled by `factor` (1.0 = exact). Selection is priced at 50 while a
/// semijoin pays 1 + 4/item, so underestimating the running set locks
/// in semijoins that the observed cardinalities later disown.
fn model_for(scenario: &Scenario, factor: f64) -> TableCostModel {
    let n = scenario.n();
    let mut model = TableCostModel::uniform(scenario.m(), n, 50.0, 1.0, 4.0, 1e9, 0.0, 25.0);
    for (i, cond) in scenario.query.conditions().iter().enumerate() {
        for (j, rel) in scenario.relations.iter().enumerate() {
            let truth = rel.select_items(cond).expect("selectable").items.len() as f64;
            model.set_est_sq_items(CondId(i), SourceId(j), truth * factor);
        }
    }
    model
}

/// The reopt cells both statistics tests sweep at the default config —
/// sequential, on two threads, and sequential from a cold cache — under
/// a model whose estimates are the truth scaled by `factor`.
fn reopt_runs(scenario: &Scenario, factor: f64) -> (Case<'_, TableCostModel>, Vec<(Cell, Run)>) {
    let mut case = Case::with_model(scenario, model_for(scenario, factor), Shape::Sja);
    case.reopt = ReoptConfig::default();
    let cells = [
        Cell::of(SEQ, None, Faults::Off, Cache::None).reopt(),
        Cell::of(stages(2), None, Faults::Off, Cache::None).reopt(),
        Cell::of(SEQ, None, Faults::Off, Cache::Cold).reopt(),
    ];
    let runs = case.check(&cells);
    (case, cells.into_iter().zip(runs).collect())
}

/// What a reopt cell's rule decided.
fn report(run: &Run) -> &ReoptReport {
    let (out, _) = run.reopt.as_ref().expect("a reopt run");
    out.reopt.as_ref().expect("a spec run reports")
}

#[test]
fn accurate_statistics_make_adaptation_invisible() {
    for seed in 0..width("reopt") {
        let scenario = world(World::Dmv3, seed);
        let (case, runs) = reopt_runs(&scenario, 1.0);
        for (cell, run) in runs {
            let tag = format!("{} {cell:?}", case.tag);
            let out = report(&run);
            assert!(out.switches.is_empty(), "{tag}: switched");
            assert_eq!(out.violations, 0, "{tag}: violated");
            let reopt_off = case.run(Cell::of(SEQ, None, Faults::Off, cell.cache));
            assert_eq!(
                run.fp, reopt_off.fp,
                "{tag}: not byte-identical to reopt-off"
            );
        }
    }
}

#[test]
fn misestimated_statistics_switch_without_changing_answers() {
    let mut switched_runs = 0u32;
    for seed in 0..width("reopt") {
        let scenario = world(World::Dmv3, seed);
        // Deflate every cell estimate 8–64x: semijoins look cheap at
        // plan time, and the observed running sets disown the plan.
        let factor = 1.0 / (8.0 * (1 << SplitMix64::new(seed).next_below(3)) as f64);
        let (_, runs) = reopt_runs(&scenario, factor);
        switched_runs += u32::from(!report(&runs[0].1).switches.is_empty());
    }
    assert!(switched_runs > 0, "no certified switch");
}

/// The server path: between-query feedback calibration keeps the
/// admission log replayable to byte parity at every worker count, with
/// every answer equal to an isolated adaptive-off execution.
#[test]
fn server_feedback_calibration_preserves_replay_parity() {
    let scenario = world(World::Dmv3, 0xE23_5EED);
    let q = TenantEvent::Query(scenario.query.clone());
    let q2 = TenantEvent::Query(world(World::Dmv3, 0xE23_5EEE).query);
    let update = TenantEvent::Update(SourceId(0));
    let tenants = vec![vec![q.clone(), q2.clone(), q.clone()], vec![q2, update, q]];
    let config = ServerConfig {
        reopt: true,
        cache_budget: 1 << 20,
        ..ServerConfig::default()
    };
    serve_cells(&scenario, &tenants, &config, &[1, 2, 4]);
}

#[test]
fn slack_one_reopt_replans_every_round_like_the_reference_enumeration() {
    let mut switched_runs = 0u32;
    let correlated = (0..width("reopt")).map(|seed| world(World::Correlated, seed));
    let dmv = (0..4 * width("reopt")).map(|seed| world(World::Dmv3, seed));
    for scenario in correlated.chain(dmv) {
        let (m, n, seed) = (scenario.m(), scenario.n(), &scenario.name);
        // Per-round re-planning, checked by the lattice: the answer is
        // the truth and the run replays bit for bit from its switch
        // records, each splice re-certified.
        let case = Case::new(&scenario, Shape::Sja);
        let cell = Cell::of(SEQ, None, Faults::Off, Cache::None).reopt();
        let run = case.check(&[cell]).remove(0);
        let out = report(&run);
        switched_runs += u32::from(!out.switches.is_empty());

        // Round by round against Figures 3–4: the conditions still to
        // run, from the size the previous round actually left behind —
        // which is also where the round's predicted `|X|` chains from.
        let spec = &out.final_spec;
        let entries: Vec<_> = (run.last().ledger.entries().iter())
            .filter(|e| e.kind != StepKind::Reopt)
            .collect();
        assert_eq!(out.rounds.len(), m, "{seed}: rounds");
        let mut closed = 0usize;
        let mut x: Option<f64> = None;
        for (r, round) in out.rounds.iter().enumerate() {
            let remaining: Vec<usize> = spec.order[r..].iter().map(|c| c.0).collect();
            let want = reference_enumeration(&case.model, RoundRule::PerSource, &remaining, x);
            assert_eq!(round.cond, spec.order[r], "{seed} round {r}");
            assert_eq!(round.choices, spec.choices[r], "{seed} round {r}");
            assert_eq!(spec.order[r].0, want.order[0], "{seed} round {r}");
            assert_eq!(spec.choices[r], want.choices[0], "{seed} round {r}");
            let (predicted, chained) = (round.predicted_size, want.sizes[0]);
            assert_eq!(predicted.to_bits(), chained.to_bits(), "{seed} round {r}");
            let all_semijoin = spec.choices[r].iter().all(|c| *c == SourceChoice::Semijoin);
            closed += n + 1 + usize::from(r > 0 && !all_semijoin);
            let observed = entries[closed - 1].items_out;
            assert_eq!(round.actual_size, observed, "{seed} round {r}: ledger");
            x = Some(observed as f64);
        }
        assert_eq!(closed, entries.len(), "{seed}: round layout");
    }
    assert!(switched_runs > 0, "battery never exercised a switch");
}

#[test]
fn eight_condition_reopt_switches_to_the_reference_suffix() {
    // Six worlds: enough that one first-round re-plan switches (most
    // keep the committed suffix), few enough for a debug run.
    let mut seven = 0u32;
    for seed in 0..6 {
        let scenario = world(World::Correlated8, seed);
        let (m, n) = (scenario.m(), scenario.n());
        let case = Case::new(&scenario, Shape::Sja);
        let cell = Cell::of(SEQ, None, Faults::Off, Cache::None).reopt();
        let run = case.check(&[cell]).remove(0);
        let out = report(&run);
        // A re-plan prices only unplaced conditions, whose cells nothing
        // has observed yet: under the feedback decorator they are the
        // model's own.
        let unobserved = CardinalityFeedback::new(m, n);
        let model = FeedbackCostModel::new(&case.model, &unobserved);
        for sw in &out.switches {
            let remaining: Vec<usize> = sw.suffix_order.iter().map(|c| c.0).collect();
            let want = reference_enumeration(&model, RoundRule::PerSource, &remaining, Some(sw.x0));
            let tag = format!("seed {seed}, after round {}", sw.rounds_done);
            assert_eq!(remaining, want.order, "{tag}");
            assert_eq!(sw.suffix_choices, want.choices, "{tag}");
            let (got, want) = (sw.new_suffix_cost.value(), want.cost.value());
            assert_eq!(got.to_bits(), want.to_bits(), "{tag}");
            seven += u32::from(remaining.len() == 7);
        }
    }
    assert!(seven > 0, "no seven-condition suffix was re-planned");
}
