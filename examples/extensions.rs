//! The beyond-the-paper extensions in one tour: Bloom-filter semijoins,
//! the response-time objective, and mid-query re-optimization.
//!
//! ```sh
//! cargo run --release --example extensions
//! ```

use fusion::core::optimizer::{estimate_makespan, sja_response_optimal};
use fusion::core::postopt::{sja_plus_with, PostOptConfig};
use fusion::core::sja_optimal;
use fusion::exec::{execute_plan, ReoptConfig, ReoptRule, RunOptions, Target};
use fusion::net::LinkProfile;
use fusion::source::ProcessingProfile;
use fusion::stats::CardinalityFeedback;
use fusion::workload::synth::{condition_with_selectivity, synth_query, synth_scenario, SynthSpec};
use fusion::workload::CapabilityMix;

fn main() {
    // ---- 1. Bloom-filter semijoins --------------------------------------
    // Fat semijoin sets over slow links: ship 10 bits per item instead of
    // whole items, re-intersect locally for exactness.
    println!("== Bloom-filter semijoins ==\n");
    let spec = SynthSpec {
        n_sources: 6,
        domain_size: 60_000,
        rows_per_source: 8_000,
        seed: 11_000,
        capability_mix: CapabilityMix::AllFull,
        link: Some(LinkProfile::Intercontinental),
        processing: ProcessingProfile::indexed_db(),
    };
    let scenario = synth_scenario(&spec, &[0.08, 0.3, 0.5]);
    let model = scenario.cost_model();
    let explicit = sja_plus_with(
        &model,
        PostOptConfig {
            use_difference: false,
            use_loading: false,
            use_bloom: false,
            bloom_bits: 10,
        },
    );
    let bloom = sja_plus_with(
        &model,
        PostOptConfig {
            use_difference: false,
            use_loading: false,
            use_bloom: true,
            bloom_bits: 10,
        },
    );
    let run = |plan: &fusion::core::plan::Plan| {
        let mut network = scenario.network();
        execute_plan(plan, &scenario.query, &scenario.sources, &mut network).expect("plan executes")
    };
    let (e_out, b_out) = (run(&explicit.plan), run(&bloom.plan));
    assert_eq!(e_out.answer, b_out.answer, "bloom stays exact");
    println!(
        "explicit semijoins: {}   bloom(10 bits): {}   ({:.1}% saved, identical answers)\n",
        e_out.total_cost(),
        b_out.total_cost(),
        (1.0 - b_out.total_cost().value() / e_out.total_cost().value()) * 100.0
    );

    // ---- 2. Response-time objective --------------------------------------
    // The objectives diverge when a straggler source is slow to produce
    // the first round's result: semijoins at the fast sources serialize
    // behind it, selections overlap with it.
    println!("== Response-time objective (§6 future work) ==\n");
    let mut straggler =
        fusion::core::TableCostModel::uniform(2, 4, 1.0, 200.0, 0.0, 1e9, 5.0, 1000.0);
    straggler.set_sq_cost(fusion::types::CondId(0), fusion::types::SourceId(3), 40.0);
    for j in 0..4 {
        straggler.set_sq_cost(fusion::types::CondId(1), fusion::types::SourceId(j), 20.0);
        straggler.set_sjq_cost(
            fusion::types::CondId(1),
            fusion::types::SourceId(j),
            10.0,
            0.0,
        );
    }
    straggler.set_sjq_cost(
        fusion::types::CondId(1),
        fusion::types::SourceId(3),
        0.5,
        0.0,
    );
    let work_opt = sja_optimal(&straggler);
    let rt_opt = sja_response_optimal(&straggler);
    println!(
        "work-optimal plan:  est work {}  est makespan {:.3}",
        work_opt.cost,
        estimate_makespan(&straggler, &work_opt.spec)
    );
    println!(
        "rt-optimal plan:    est work {}  est makespan {:.3}",
        rt_opt.optimized.cost, rt_opt.est_response_time
    );
    println!("(the RT plan pays extra total work to overlap the straggler)\n");

    // ---- 3. Mid-query re-optimization ------------------------------------
    // Nested conditions break the independence assumption; the
    // re-optimizer at point trust regions re-plans each round from the
    // observed cardinality.
    println!("== Mid-query re-optimization under correlated conditions ==\n");
    let nested = vec![
        condition_with_selectivity(1, 0.30),
        condition_with_selectivity(1, 0.32), // superset of the first!
        condition_with_selectivity(2, 0.90),
    ];
    let spec = SynthSpec {
        n_sources: 6,
        domain_size: 40_000,
        rows_per_source: 3_000,
        seed: 13_999,
        capability_mix: CapabilityMix::AllFull,
        link: Some(LinkProfile::Intercontinental),
        processing: ProcessingProfile::indexed_db(),
    };
    let mut corr = synth_scenario(&spec, &[0.3, 0.32, 0.9]);
    corr.query =
        fusion::core::query::FusionQuery::new(synth_query(&[0.5]).schema().clone(), nested)
            .expect("valid query");
    let model = corr.cost_model();
    let static_plan = sja_optimal(&model);
    let mut network = corr.network();
    let static_out = execute_plan(&static_plan.plan, &corr.query, &corr.sources, &mut network)
        .expect("static executes");
    let mut network = corr.network();
    let mut feedback = CardinalityFeedback::new(corr.m(), corr.n());
    let rule = ReoptRule::Live {
        model: &model,
        feedback: &mut feedback,
        config: &ReoptConfig::every_round(),
    };
    let target = Target::Spec(&static_plan.spec, rule);
    let (query, sources) = (&corr.query, &corr.sources);
    let adaptive = fusion::exec::run(target, query, sources, &mut network, RunOptions::default())
        .expect("adaptive executes");
    let (adaptive_out, report) = (
        adaptive.outcome,
        adaptive.reopt.expect("a spec run reports"),
    );
    assert_eq!(static_out.answer, adaptive_out.answer);
    println!(
        "static SJA: {}   adaptive: {}   ({:.1}% saved)",
        static_out.total_cost(),
        adaptive_out.total_cost(),
        (1.0 - adaptive_out.total_cost().value() / static_out.total_cost().value()) * 100.0
    );
    for round in &report.rounds {
        println!(
            "  round {}: predicted |X| ≈ {:.0}, observed {}",
            round.cond, round.predicted_size, round.actual_size
        );
    }
}
