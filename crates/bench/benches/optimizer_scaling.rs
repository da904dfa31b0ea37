//! B1/B2: optimizer runtime scaling (§3's complexity claims).
//!
//! * B1 — runtime is **linear in the number of sources** (`O(m!·m·n)`
//!   with m fixed): "very important when we deal with a large number of
//!   sources as is the case with integrating Internet sources".
//! * B2 — runtime is **factorial in the number of conditions** for
//!   Figures 3–4 taken literally (`sja_exact` / `sj_exact`: the reference
//!   enumeration), while the greedy variant of \[24\] stays linear and
//!   the optimizers' own bounded search (`sja_bnb`) cuts most of the
//!   space. m ∈ {2, 3} are the sizes the server workloads ask, where the
//!   search has nothing to cut and must not cost more.
//!
//! The search rows call `ordering_search`, not `sja_optimal`: the front
//! door answers a repeated `TableCostModel` from the plan memo, and a
//! timing loop would measure the hit (`plan_ops`' `plan_memo` group does).
//!
//! The timings are also written to `BENCH_b1_b2_optimizer_scaling.json`
//! (in `$BENCH_DIR`, default the package root).

use fusion_bench::exp::pruning::reference_plan;
use fusion_bench::json::write_artifact;
use fusion_bench::microbench::{BenchmarkId, Criterion};
use fusion_core::optimizer::{ordering_search, RoundRule};
use fusion_core::{filter_plan, greedy_sja, TableCostModel};
use std::hint::black_box;

fn model(m: usize, n: usize) -> TableCostModel {
    // Non-trivial estimates so decisions are not degenerate.
    let mut t = TableCostModel::uniform(m, n, 10.0, 1.0, 0.1, 1e6, 5.0, 10_000.0);
    for i in 0..m {
        for j in 0..n {
            t.set_sq_cost(
                fusion_types::CondId(i),
                fusion_types::SourceId(j),
                5.0 + ((i * 31 + j * 17) % 23) as f64,
            );
            t.set_est_sq_items(
                fusion_types::CondId(i),
                fusion_types::SourceId(j),
                1.0 + ((i * 13 + j * 7) % 40) as f64,
            );
        }
    }
    t
}

/// B1: SJA runtime vs number of sources, m = 3.
fn bench_scaling_in_sources(c: &mut Criterion) {
    let mut group = c.benchmark_group("b1_sja_vs_sources");
    group.sample_size(20);
    for n in [10usize, 100, 1_000, 10_000] {
        let m = model(3, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ordering_search(&m, RoundRule::PerSource).0.cost));
        });
    }
    group.finish();
}

/// B2: reference enumeration vs search vs greedy runtime vs number of
/// conditions, n = 16.
fn bench_scaling_in_conditions(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_vs_conditions");
    group.sample_size(10);
    for m in [2usize, 3, 4, 6, 8] {
        let t = model(m, 16);
        group.bench_with_input(BenchmarkId::new("sja_exact", m), &m, |b, _| {
            b.iter(|| black_box(reference_plan(&t, RoundRule::PerSource).cost));
        });
        group.bench_with_input(BenchmarkId::new("sj_exact", m), &m, |b, _| {
            b.iter(|| black_box(reference_plan(&t, RoundRule::Uniform).cost));
        });
        group.bench_with_input(BenchmarkId::new("sja_greedy", m), &m, |b, _| {
            b.iter(|| black_box(greedy_sja(&t).cost));
        });
        group.bench_with_input(BenchmarkId::new("sja_bnb", m), &m, |b, _| {
            b.iter(|| black_box(ordering_search(&t, RoundRule::PerSource).0.cost));
        });
        group.bench_with_input(BenchmarkId::new("filter", m), &m, |b, _| {
            b.iter(|| black_box(filter_plan(&t).cost));
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_scaling_in_sources(&mut c);
    bench_scaling_in_conditions(&mut c);
    let path = write_artifact(
        "BENCH_b1_b2_optimizer_scaling.json",
        &c.to_json("b1-b2-optimizer-scaling"),
    )
    .expect("write BENCH_b1_b2_optimizer_scaling.json");
    println!("wrote {}", path.display());
}
