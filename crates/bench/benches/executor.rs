//! B3: mediator executor throughput — full optimize-and-execute pipeline
//! over live wrappers and the simulated network. The timings are also
//! written to `BENCH_b3_executor.json` (in `$BENCH_DIR`, default the
//! package root).

use fusion_bench::json::write_artifact;
use fusion_bench::microbench::{BenchmarkId, Criterion};
use fusion_core::postopt::sja_plus;
use fusion_core::{filter_plan, sja_optimal};
use fusion_exec::execute_plan;
use fusion_net::LinkProfile;
use fusion_source::ProcessingProfile;
use fusion_workload::synth::{synth_scenario, SynthSpec};
use fusion_workload::CapabilityMix;
use std::hint::black_box;

fn scenario(n: usize) -> fusion_workload::Scenario {
    let spec = SynthSpec {
        n_sources: n,
        domain_size: 20_000,
        rows_per_source: 1_000,
        seed: 777,
        capability_mix: CapabilityMix::AllFull,
        link: Some(LinkProfile::Wan),
        processing: ProcessingProfile::indexed_db(),
    };
    synth_scenario(&spec, &[0.02, 0.3, 0.5])
}

/// Execute the optimal SJA plan end-to-end, varying the source count.
fn bench_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("b3_execute_sja");
    group.sample_size(20);
    for n in [4usize, 8, 16] {
        let sc = scenario(n);
        let model = sc.cost_model();
        let plan = sja_optimal(&model).plan;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut network = sc.network();
                black_box(
                    execute_plan(&plan, &sc.query, &sc.sources, &mut network)
                        .expect("bench plan executes")
                        .answer,
                )
            });
        });
    }
    group.finish();
}

/// Compare executed plan shapes at fixed n = 8.
fn bench_plan_shapes(c: &mut Criterion) {
    let sc = scenario(8);
    let model = sc.cost_model();
    let plans = [
        ("filter", filter_plan(&model).plan),
        ("sja", sja_optimal(&model).plan),
        ("sja_plus", sja_plus(&model).plan),
    ];
    let mut group = c.benchmark_group("b3_plan_shapes");
    group.sample_size(20);
    for (name, plan) in &plans {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut network = sc.network();
                black_box(
                    execute_plan(plan, &sc.query, &sc.sources, &mut network)
                        .expect("bench plan executes")
                        .answer,
                )
            });
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_execute(&mut c);
    bench_plan_shapes(&mut c);
    let path = write_artifact("BENCH_b3_executor.json", &c.to_json("b3-executor"))
        .expect("write BENCH_b3_executor.json");
    println!("wrote {}", path.display());
}
