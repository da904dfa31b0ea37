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
//!   the sequential path byte-for-byte, and every answer must equal
//!   the misestimate-locked plan's answer — adaptation changes costs,
//!   never results.
//!
//! A third test drives the mediator server with between-query feedback
//! calibration on and proves its admission log still replays to byte
//! parity at every worker count.
//!
//! A fourth pins what `slack: 1, min_gain: 0` means — point trust
//! regions, any strictly cheaper suffix switches: on populations large
//! enough that no estimate is exact, that is per-round re-planning.
//! Every executed round is the first round of Figures 3–4's enumeration
//! over the conditions still to run, from the observed running-set size,
//! and the run is bit-equal to `execute_adaptive`'s — while staying a
//! certified, replayable plan execution. (On toy populations an
//! observation can equal its estimate, and that round is not re-planned:
//! DESIGN §15 has the counts.)
//!
//! The battery size scales with `REOPT_BATTERY_SEEDS` (default 16; CI
//! runs 32 in release).

mod common;

use common::{for_seeds, Gen};
use fusion::cache::AnswerCache;
use fusion::check::verify_reopt_replay;
use fusion::core::optimizer::{reference_enumeration, RoundRule};
use fusion::core::plan::SourceChoice;
use fusion::core::query::FusionQuery;
use fusion::core::{sja_optimal, TableCostModel};
use fusion::exec::{
    execute_adaptive, execute_plan, execute_plan_reopt, execute_plan_with, replay_plan_reopt,
    replay_serial, serve, verify_replay_parity, ReoptConfig, ReoptSession, ServerConfig, StepKind,
    TenantEvent,
};
use fusion::net::{LinkProfile, Network};
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
use fusion::stats::SplitMix64;
use fusion::types::{CondId, Condition, Relation, SourceId};
use fusion::workload::synth::{
    condition_with_selectivity, synth_scenario_for, synth_schema, CapabilityMix, SynthSpec,
};
use fusion::workload::Scenario;

const N_SOURCES: usize = 3;

fn battery() -> u64 {
    std::env::var("REOPT_BATTERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

fn wan() -> Network {
    Network::uniform(N_SOURCES, LinkProfile::Wan.link())
}

fn sources_from(relations: Vec<Relation>) -> SourceSet {
    SourceSet::new(
        relations
            .into_iter()
            .enumerate()
            .map(|(j, r)| {
                Box::new(InMemoryWrapper::new(
                    format!("R{}", j + 1),
                    r,
                    Capabilities::full(),
                    ProcessingProfile::indexed_db(),
                    j as u64,
                )) as Box<dyn Wrapper>
            })
            .collect(),
    )
}

/// A cost model whose per-cell cardinality estimates are the truth
/// scaled by `factor` (1.0 = exact). Selection is priced at 50 while a
/// semijoin pays 1 + 4/item, so underestimating the running set locks
/// in semijoins that the observed cardinalities later disown.
fn model_for(query: &FusionQuery, relations: &[Relation], factor: f64) -> TableCostModel {
    let m = query.m();
    let mut model = TableCostModel::uniform(m, N_SOURCES, 50.0, 1.0, 4.0, 1e9, 0.0, 25.0);
    for (i, cond) in query.conditions().iter().enumerate() {
        for (j, rel) in relations.iter().enumerate() {
            let truth = rel.select_items(cond).expect("selectable").items.len() as f64;
            model.set_est_sq_items(CondId(i), SourceId(j), truth * factor);
        }
    }
    model
}

/// One generated case: a 2–3 condition query over three random
/// DMV-shaped relations, with the relations kept for truth-counting.
fn generate(g: &mut Gen) -> (FusionQuery, Vec<Relation>) {
    let m = 2 + g.0.next_below(2);
    (g.query(m), g.relations(N_SOURCES))
}

#[test]
fn accurate_statistics_make_adaptation_invisible() {
    for_seeds(battery(), |g| {
        let (query, relations) = generate(g);
        let model = model_for(&query, &relations, 1.0);
        let sources = sources_from(relations);
        let opt = sja_optimal(&model);
        let config = ReoptConfig::default();

        let mut net_off = wan();
        let off = execute_plan(&opt.plan, &query, &sources, &mut net_off).unwrap();

        let mut session = ReoptSession::new(query.m(), N_SOURCES, 1024);
        let mut net_on = wan();
        let on = execute_plan_reopt(
            &opt.spec,
            &query,
            &sources,
            &mut net_on,
            &model,
            None,
            &mut session,
            &config,
            None,
            None,
        )
        .unwrap();
        assert!(on.switches.is_empty(), "switch under exact statistics");
        assert_eq!(on.violations, 0, "violation under exact statistics");
        assert_eq!(on.outcome.answer, off.answer);
        assert_eq!(on.outcome.ledger, off.ledger, "ledger not byte-identical");
        assert_eq!(net_on.trace(), net_off.trace(), "trace not byte-identical");

        // Parallel adaptive path: byte-identical to sequential adaptive.
        let mut session = ReoptSession::new(query.m(), N_SOURCES, 1024);
        let mut net_par = wan();
        let par = execute_plan_reopt(
            &opt.spec,
            &query,
            &sources,
            &mut net_par,
            &model,
            None,
            &mut session,
            &config,
            Some(2),
            None,
        )
        .unwrap();
        assert_eq!(par.outcome.ledger, on.outcome.ledger);
        assert_eq!(net_par.trace(), net_on.trace());

        // Cached path: adaptive-with-cache vs reopt-off-with-cache,
        // both from cold caches.
        let mut cache_off = AnswerCache::new(1 << 20);
        let mut net_coff = wan();
        let coff = execute_plan_with(
            &opt.plan,
            &query,
            &sources,
            &mut net_coff,
            None,
            Some(&mut cache_off),
        )
        .unwrap();
        let mut cache_on = AnswerCache::new(1 << 20);
        let mut session = ReoptSession::new(query.m(), N_SOURCES, 1024);
        let mut net_con = wan();
        let con = execute_plan_reopt(
            &opt.spec,
            &query,
            &sources,
            &mut net_con,
            &model,
            Some(&mut cache_on),
            &mut session,
            &config,
            None,
            None,
        )
        .unwrap();
        assert!(con.switches.is_empty());
        assert_eq!(con.outcome.answer, coff.answer);
        assert_eq!(con.outcome.ledger, coff.ledger, "cached ledger diverged");
        assert_eq!(net_con.trace(), net_coff.trace());
    });
}

#[test]
fn misestimated_statistics_switch_without_changing_answers() {
    let mut switched_runs = 0u32;
    for_seeds(battery(), |g| {
        let (query, relations) = generate(g);
        // Deflate every cell estimate 8–64x: semijoins look cheap at
        // plan time, and the observed running sets disown the plan.
        let factor = 1.0 / (8.0 * (1 << g.0.next_below(3)) as f64);
        let model = model_for(&query, &relations, factor);
        let sources = sources_from(relations);
        let opt = sja_optimal(&model);
        let config = ReoptConfig::default();

        let mut net_locked = wan();
        let locked = execute_plan(&opt.plan, &query, &sources, &mut net_locked).unwrap();

        let mut session = ReoptSession::new(query.m(), N_SOURCES, 1024);
        let mut net_on = wan();
        let on = execute_plan_reopt(
            &opt.spec,
            &query,
            &sources,
            &mut net_on,
            &model,
            None,
            &mut session,
            &config,
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            on.outcome.answer, locked.answer,
            "adaptation changed the answer"
        );
        switched_runs += u32::from(!on.switches.is_empty());

        // Bit-for-bit replay from the switch records.
        let mut net_replay = wan();
        let replayed = replay_plan_reopt(
            &opt.spec,
            &on.switches,
            &query,
            &sources,
            &mut net_replay,
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            replayed.outcome.ledger, on.outcome.ledger,
            "replay diverged"
        );
        assert_eq!(replayed.outcome.answer, on.outcome.answer);
        assert_eq!(replayed.final_spec, on.final_spec);
        assert_eq!(net_replay.trace(), net_on.trace());

        // Parallel adaptive run: same switches, same bytes.
        let mut session = ReoptSession::new(query.m(), N_SOURCES, 1024);
        let mut net_par = wan();
        let par = execute_plan_reopt(
            &opt.spec,
            &query,
            &sources,
            &mut net_par,
            &model,
            None,
            &mut session,
            &config,
            Some(2),
            None,
        )
        .unwrap();
        assert_eq!(par.switches, on.switches, "parallel switched differently");
        assert_eq!(par.outcome.ledger, on.outcome.ledger);
        assert_eq!(net_par.trace(), net_on.trace());

        // Cached adaptive run from a cold cache: answers still agree,
        // and the run replays bit-for-bit against a fresh cache.
        let mut cache = AnswerCache::new(1 << 20);
        let mut session = ReoptSession::new(query.m(), N_SOURCES, 1024);
        let mut net_cached = wan();
        let cached = execute_plan_reopt(
            &opt.spec,
            &query,
            &sources,
            &mut net_cached,
            &model,
            Some(&mut cache),
            &mut session,
            &config,
            None,
            None,
        )
        .unwrap();
        assert_eq!(cached.outcome.answer, locked.answer);
        let mut cache_replay = AnswerCache::new(1 << 20);
        let mut net_creplay = wan();
        let creplayed = replay_plan_reopt(
            &opt.spec,
            &cached.switches,
            &query,
            &sources,
            &mut net_creplay,
            Some(&mut cache_replay),
            None,
        )
        .unwrap();
        assert_eq!(creplayed.outcome.ledger, cached.outcome.ledger);
        assert_eq!(net_creplay.trace(), net_cached.trace());
    });
    assert!(
        switched_runs > 0,
        "battery never exercised a certified switch"
    );
}

/// The server path: between-query feedback calibration keeps the
/// admission log replayable to byte parity at every worker count, with
/// every answer equal to an isolated adaptive-off execution.
#[test]
fn server_feedback_calibration_preserves_replay_parity() {
    let mut g = Gen::new(0xE23_5EED);
    let (query, relations) = generate(&mut g);
    let (query2, _) = generate(&mut g);
    let sources = sources_from(relations);
    let tenants: Vec<Vec<TenantEvent>> = vec![
        vec![
            TenantEvent::Query(query.clone()),
            TenantEvent::Query(query2.clone()),
            TenantEvent::Query(query.clone()),
        ],
        vec![
            TenantEvent::Query(query2),
            TenantEvent::Update(SourceId(0)),
            TenantEvent::Query(query),
        ],
    ];
    for workers in [1, 2, 4] {
        let config = ServerConfig {
            reopt: true,
            cache_budget: 1 << 20,
            ..ServerConfig::with_workers(workers)
        };
        let netf = wan;
        let report = serve(&sources, &netf, Some(25.0), &tenants, &config).unwrap();
        assert_eq!(report.results.len(), 5, "workers {workers}");
        let (replayed, fp) =
            replay_serial(&sources, &netf, Some(25.0), &tenants, &config, &report.log).unwrap();
        verify_replay_parity(&report, &replayed, &fp)
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
        for r in &report.results {
            let TenantEvent::Query(q) = &tenants[r.tenant][r.index] else {
                panic!("result for a non-query event");
            };
            let model = fusion::core::NetworkCostModel::new(&sources, &wan(), q, Some(25.0));
            let mut net = wan();
            let iso = execute_plan(&sja_optimal(&model).plan, q, &sources, &mut net).unwrap();
            assert_eq!(
                r.outcome.answer, iso.answer,
                "workers {workers}: tenant {} event {} diverged",
                r.tenant, r.index
            );
        }
    }
}

/// One seeded scenario of the every-round battery: m ∈ 2..=5 conditions
/// drawn on 1–3 shared attributes (so most are correlated and the
/// independence chain drifts), n ∈ 2..=6 sources of 250 rows, every
/// third population half emulated-semijoin at batch 50, every second on
/// mixed link profiles.
fn correlated_scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(0xE14_E23 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let m = rng.next_range(2, 6);
    let n = rng.next_range(2, 7);
    let shared = rng.next_range(1, 4);
    let conditions: Vec<Condition> = (0..m)
        .map(|_| {
            let attr = rng.next_range(1, shared + 1);
            condition_with_selectivity(attr, rng.next_f64_range(0.05, 0.95))
        })
        .collect();
    let mix = if seed.is_multiple_of(3) {
        CapabilityMix::FractionEmulated {
            frac: 0.5,
            batch: 50,
        }
    } else {
        CapabilityMix::AllFull
    };
    let spec = SynthSpec {
        n_sources: n,
        domain_size: 1_500,
        rows_per_source: 250,
        seed: 18_000 + seed,
        capability_mix: mix,
        link: seed.is_multiple_of(2).then_some(LinkProfile::Wan),
        processing: ProcessingProfile::indexed_db(),
    };
    let query = FusionQuery::new(synth_schema(), conditions).expect("valid query");
    synth_scenario_for(&spec, query)
}

#[test]
fn slack_one_reopt_replans_every_round_like_the_reference_enumeration() {
    let mut switched_runs = 0u32;
    for seed in 0..battery() {
        let scenario = correlated_scenario(seed);
        let (m, n) = (scenario.m(), scenario.n());
        let model = scenario.cost_model();
        let opt = sja_optimal(&model);
        let mut session = ReoptSession::new(m, n, 4096);
        let mut net = scenario.network();
        let out = execute_plan_reopt(
            &opt.spec,
            &scenario.query,
            &scenario.sources,
            &mut net,
            &model,
            None,
            &mut session,
            &ReoptConfig::every_round(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            out.outcome.answer,
            scenario.ground_truth().unwrap(),
            "seed {seed}"
        );
        switched_runs += u32::from(!out.switches.is_empty());

        // Round by round against Figures 3–4: the conditions still to
        // run, from the size the previous round actually left behind.
        let spec = &out.final_spec;
        let entries: Vec<_> = (out.outcome.ledger.entries().iter())
            .filter(|e| e.kind != StepKind::Reopt)
            .collect();
        let mut closed = 0usize;
        let mut x: Option<f64> = None;
        for r in 0..m {
            let remaining: Vec<usize> = spec.order[r..].iter().map(|c| c.0).collect();
            let want = reference_enumeration(&model, RoundRule::PerSource, &remaining, x);
            assert_eq!(spec.order[r].0, want.order[0], "seed {seed} round {r}");
            assert_eq!(spec.choices[r], want.choices[0], "seed {seed} round {r}");
            let all_semijoin = spec.choices[r].iter().all(|c| *c == SourceChoice::Semijoin);
            closed += n + 1 + usize::from(r > 0 && !all_semijoin);
            x = Some(entries[closed - 1].items_out as f64);
        }
        assert_eq!(closed, entries.len(), "seed {seed}: round layout");

        // Something `execute_adaptive` cannot offer: the run replays bit
        // for bit from its switch records, each splice re-certified.
        let fresh = || scenario.network();
        let verified = verify_reopt_replay(
            &out,
            &opt.spec,
            &scenario.query,
            &scenario.sources,
            &fresh,
            None,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(verified, out.switches.len());

        // And the direct differential against the per-round executor.
        let mut adaptive_net = scenario.network();
        let adaptive = execute_adaptive(
            &scenario.query,
            &scenario.sources,
            &mut adaptive_net,
            &model,
            None,
        )
        .unwrap();
        assert_eq!(
            adaptive.total_cost().value().to_bits(),
            out.total_cost().value().to_bits(),
            "seed {seed}: executed cost"
        );
        let rounds: Vec<_> = (adaptive.rounds.iter())
            .map(|r| (r.cond, r.choices.clone()))
            .collect();
        let executed: Vec<_> = (spec.order.iter().copied())
            .zip(spec.choices.iter().cloned())
            .collect();
        assert_eq!(rounds, executed, "seed {seed}: executed rounds");
    }
    assert!(switched_runs > 0, "battery never exercised a switch");
}
