//! Micro-benchmarks of the mediator's local machinery: item-set algebra,
//! the source-side data plane, plan construction/validation, the two
//! proof memos, and selectivity estimation. The timings are also written to
//! `BENCH_b3_plan_ops.json` (in `$BENCH_DIR`, default the package root);
//! the answer cache's hit path goes to `BENCH_b4_cache_hit.json`, the
//! stage-schedule certificate and its callers to
//! `BENCH_b5_stage_schedule.json`, the plan memo behind `sja_optimal` to
//! `BENCH_b6_plan_memo.json`.

use fusion_bench::json::write_artifact;
use fusion_bench::microbench::{BenchmarkGroup, BenchmarkId, Criterion};
use fusion_cache::{subsumes, AnswerCache, Harvest, HitKind, ResolvedHit};
use fusion_core::analyze::ensure_sound;
use fusion_core::dataflow::{analyze_dataflow, stage_decomposition, SourceBounds};
use fusion_core::optimizer::{ordering_search, RoundRule, PLAN_MEMO_CAPACITY};
use fusion_core::plan::SimplePlanSpec;
use fusion_core::{sja_optimal, CostModel, NetworkCostModel};
use fusion_exec::{run, RunOptions, Schedule, Target};
use fusion_source::{InMemoryWrapper, SourceEngine, Wrapper};
use fusion_stats::{estimate_selectivity, TableStats};
use fusion_types::{
    CmpOp, Condition, Cost, ItemSet, Predicate, Relation, Schema, SourceId, Tuple, Value,
};
use fusion_workload::synth::{
    condition_with_selectivity, synth_relations, synth_scenario, synth_schema, SynthSpec,
};
use std::hint::black_box;
use std::sync::Arc;

fn items(n: usize, offset: i64) -> ItemSet {
    (0..n as i64).map(|i| i * 2 + offset).collect()
}

/// Item-set algebra at mediator-realistic sizes.
fn bench_itemset_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("itemset");
    group.sample_size(30);
    for size in [1_000usize, 100_000] {
        let a = items(size, 0);
        let b = items(size, 1); // interleaved, ~zero overlap
        let c2 = items(size, 0); // identical
        group.bench_with_input(BenchmarkId::new("union_disjoint", size), &size, |bch, _| {
            bch.iter(|| black_box(a.union(&b)));
        });
        group.bench_with_input(
            BenchmarkId::new("intersect_identical", size),
            &size,
            |bch, _| {
                bch.iter(|| black_box(a.intersect(&c2)));
            },
        );
        group.bench_with_input(BenchmarkId::new("difference", size), &size, |bch, _| {
            bch.iter(|| black_box(a.difference(&b)));
        });
        let probe = items(64, 0);
        group.bench_with_input(
            BenchmarkId::new("intersect_skewed", size),
            &size,
            |bch, _| {
                bch.iter(|| black_box(a.intersect(&probe)));
            },
        );
    }
    group.finish();
}

/// The data plane of one bulk query round: `sq` at each of 8 sources, the
/// 8-way union of the answers, and `sjq` of that union back at a source
/// (4 000-row sources over a 20 000-item universe, string merge keys).
fn bench_data_plane(c: &mut Criterion) {
    let spec = SynthSpec {
        domain_size: 20_000,
        rows_per_source: 4_000,
        ..SynthSpec::default_with(8, 41)
    };
    let engines: Vec<SourceEngine> = synth_relations(&spec)
        .into_iter()
        .map(SourceEngine::new)
        .collect();
    let mut group = c.benchmark_group("data_plane");
    group.sample_size(30);
    for sel in [0.05, 0.25, 0.45] {
        let cond = condition_with_selectivity(1, sel);
        let other = condition_with_selectivity(2, sel);
        group.bench_with_input(BenchmarkId::new("select_items_x8", sel), &sel, |b, _| {
            b.iter(|| {
                for e in &engines {
                    black_box(e.select(&cond).expect("well-typed condition"));
                }
            });
        });
        let answers: Vec<ItemSet> = engines
            .iter()
            .map(|e| e.select(&cond).expect("well-typed condition").items)
            .collect();
        group.bench_with_input(BenchmarkId::new("clone_items_x8", sel), &sel, |b, _| {
            b.iter(|| {
                for a in &answers {
                    black_box(a.clone());
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("union_all_8way", sel), &sel, |b, _| {
            b.iter(|| black_box(ItemSet::union_all(&answers)));
        });
        // The same sets under 20-byte keys: past `Text::INLINE_CAP`.
        let long: Vec<ItemSet> = answers
            .iter()
            .map(|a| a.iter().map(|it| format!("{it}-0123456789a")).collect())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("union_all_8way_long", sel),
            &sel,
            |b, _| {
                b.iter(|| black_box(ItemSet::union_all(&long)));
            },
        );
        group.bench_with_input(BenchmarkId::new("intersect_2way", sel), &sel, |b, _| {
            b.iter(|| black_box(answers[0].intersect(&answers[1])));
        });
        group.bench_with_input(BenchmarkId::new("difference_2way", sel), &sel, |b, _| {
            b.iter(|| black_box(answers[0].difference(&answers[1])));
        });
        let bindings = ItemSet::union_all(&answers);
        group.bench_with_input(BenchmarkId::new("semijoin_items", sel), &sel, |b, _| {
            b.iter(|| black_box(engines[0].semijoin(&other, &bindings)));
        });
    }
    bench_record_path(&mut group);
    group.finish();
}

/// The record path of a cached-mode miss, on sources of `serve-churn`'s
/// size (400 rows): the record selection at each of 8 sources; the whole
/// miss at each (selection, harvest, first projection, drop), with the
/// records owned — what a wrapper without `select_shared` of its own
/// hands over — or by reference; the first projection of one ≈ 100-row
/// answer, handed over shuffled or already in merge order (a fresh
/// harvest each time, so the rows' copy is in the row); a residual filter
/// over a built order; admission into the cache.
fn bench_record_path(group: &mut BenchmarkGroup<'_>) {
    let spec = SynthSpec {
        domain_size: 4_000,
        rows_per_source: 400,
        ..SynthSpec::default_with(8, 41)
    };
    let relations = synth_relations(&spec);
    let wrappers: Vec<InMemoryWrapper> = relations
        .iter()
        .map(|r| InMemoryWrapper::fully_capable("S", r.clone()))
        .collect();
    let engines: Vec<SourceEngine> = relations.into_iter().map(SourceEngine::new).collect();
    let schema = synth_schema();
    let cond = condition_with_selectivity(1, 0.25);
    let miss = |harvest: Harvest| {
        let items = harvest.project(SourceId(0), &cond, &schema, false);
        black_box(items.expect("well-formed rows"));
    };
    group.bench_with_input(
        BenchmarkId::new("records_miss_x8", "owned"),
        &0.25,
        |b, _| {
            b.iter(|| {
                for w in &wrappers {
                    miss(Harvest::new(
                        w.select_records(&cond).expect("well-typed").payload,
                    ));
                }
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("records_miss_x8", "shared"),
        &0.25,
        |b, _| {
            b.iter(|| {
                for w in &wrappers {
                    miss(Harvest::from(
                        w.select_shared(&cond).expect("well-typed").payload,
                    ));
                }
            });
        },
    );
    for sel in [0.05, 0.25, 0.45] {
        let cond = condition_with_selectivity(1, sel);
        group.bench_with_input(BenchmarkId::new("select_records_x8", sel), &sel, |b, _| {
            b.iter(|| {
                for e in &engines {
                    black_box(e.select_records(&cond).expect("well-typed condition"));
                }
            });
        });
    }
    let cached = cond.clone();
    let (mut merged, _) = engines[0]
        .select_records(&cached)
        .expect("well-typed condition");
    merged.sort_by(|a, b| a.get(0).cmp(b.get(0)));
    let n = merged.len();
    let shuffled: Vec<Tuple> = (0..n).map(|i| merged[i * 7_919 % n].clone()).collect();
    for (name, rows) in [("shuffled", &shuffled), ("merged", &merged)] {
        group.bench_with_input(
            BenchmarkId::new("harvest_first_projection", name),
            &n,
            |b, _| {
                b.iter(|| {
                    Harvest::new(rows.clone())
                        .project(SourceId(0), &cached, &schema, false)
                        .expect("well-formed rows")
                });
            },
        );
    }
    // Residual sets a harvest remembers weigh at most its row count: fill
    // that with empty answers first, so the timed condition is filtered
    // on every call instead of remembered.
    let harvest = Harvest::new(shuffled);
    for k in 0..=n as i64 {
        let empty: Condition = Predicate::cmp("A2", CmpOp::Lt, -1 - k).into();
        harvest
            .project(SourceId(0), &empty, &schema, true)
            .expect("well-formed rows");
    }
    let residual = condition_with_selectivity(2, 0.5);
    group.bench_with_input(BenchmarkId::new("residual_filter", n), &n, |b, _| {
        b.iter(|| {
            harvest
                .project(SourceId(0), &residual, &schema, true)
                .expect("well-formed rows")
        });
    });
    let mut cache = AnswerCache::new(usize::MAX);
    let shared = Arc::new(Harvest::new(merged));
    group.bench_with_input(BenchmarkId::new("insert_harvest", n), &n, |b, _| {
        b.iter(|| {
            let key = cached.clone();
            cache.insert_harvest(SourceId(0), key, Arc::clone(&shared), true, Cost::new(1.0));
        });
    });
}

/// Plan construction + validation at large n.
fn bench_plan_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_build");
    for n in [10usize, 100, 1_000] {
        let spec = SimplePlanSpec::filter(4, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let plan = spec.build(n).expect("valid spec");
                plan.validate().expect("valid plan");
                black_box(plan.steps.len())
            });
        });
    }
    group.finish();
}

/// The two proof memos, each asked something new every time (cold: the
/// prover runs and the verdict is stored) and the same thing every time
/// (warm: a lookup).
fn bench_proof_memos(c: &mut Criterion) {
    const SELS: [f64; 6] = [0.05, 0.4, 0.6, 0.1, 0.25, 0.5];
    let mut group = c.benchmark_group("proof_memo");
    group.sample_size(30);
    for m in [4usize, 5, 6] {
        let scenario = synth_scenario(&SynthSpec::default_with(8, 41), &SELS[..m]);
        let plan = sja_optimal(&scenario.cost_model()).plan;
        // One more trailing variable per call: a shape never seen before.
        let mut fresh = plan.clone();
        group.bench_with_input(BenchmarkId::new("ensure_sound_cold", m), &m, |b, _| {
            b.iter(|| {
                fresh.fresh_var(String::new());
                ensure_sound(black_box(&fresh)).expect("SJA plans are sound");
            });
        });
        group.bench_with_input(BenchmarkId::new("ensure_sound_warm", m), &m, |b, _| {
            b.iter(|| ensure_sound(black_box(&plan)).expect("SJA plans are sound"));
        });
    }
    let lt = |v: i64| Predicate::cmp("A1", CmpOp::Lt, v);
    let mut next = 0i64;
    group.bench_function("subsumes_cold", |b| {
        b.iter(|| {
            next += 2;
            black_box(subsumes(&lt(next + 1), &lt(next)))
        });
    });
    let (broad, narrow) = (lt(-1), lt(-2));
    group.bench_function("subsumes_warm", |b| {
        b.iter(|| black_box(subsumes(black_box(&broad), black_box(&narrow))));
    });
    group.finish();
}

/// `(M: Str, A: Int)`, merged on `M`.
fn merge_and_int_schema() -> Schema {
    Schema::new(
        vec![
            fusion_types::Attribute::new("M", fusion_types::ValueType::Str),
            fusion_types::Attribute::new("A", fusion_types::ValueType::Int),
        ],
        "M",
    )
    .expect("valid schema")
}

/// Selectivity estimation over table statistics.
fn bench_selectivity(c: &mut Criterion) {
    let schema = merge_and_int_schema();
    let rows: Vec<Tuple> = (0..10_000)
        .map(|i| Tuple::new(vec![Value::str(format!("M{i:05}")), Value::Int(i % 1_000)]))
        .collect();
    let rel = Relation::from_rows(schema, rows);
    let stats = TableStats::build(&rel, 1);
    let preds = [
        Predicate::cmp("A", CmpOp::Lt, 100i64),
        Predicate::eq("A", 7i64),
        Predicate::And(vec![
            Predicate::cmp("A", CmpOp::Ge, 100i64),
            Predicate::cmp("A", CmpOp::Lt, 300i64),
        ]),
    ];
    c.bench_function("selectivity_estimation", |b| {
        b.iter(|| {
            for p in &preds {
                black_box(estimate_selectivity(p, &stats));
            }
        });
    });
}

/// Serving a cache hit: exact (the remembered set) and residual (a
/// filter pass in merge order, half the rows qualifying), on the first
/// projection of a harvest — which builds its merge order — and on
/// every later one. Two rows per item, in shuffled order. A `*_first`
/// row starts from a fresh harvest each time and so includes the
/// `rows_clone` of its size, reported beside it.
fn bench_cache_hit(c: &mut Criterion) {
    let schema = merge_and_int_schema();
    let cached: Condition = Predicate::cmp("A", CmpOp::Lt, 1_000i64).into();
    let narrow: Condition = Predicate::cmp("A", CmpOp::Lt, 500i64).into();
    let mut group = c.benchmark_group("cache_hit");
    for n in [100usize, 1_000, 10_000] {
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                let item = i * 7_919 % n.div_ceil(2);
                Tuple::new(vec![
                    Value::str(format!("M{item:05}")),
                    Value::Int((i % 1_000) as i64),
                ])
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("rows_clone", n), &n, |b, _| {
            b.iter(|| black_box(rows.clone()));
        });
        for (name, cond, kind) in [
            ("exact", &cached, HitKind::Exact),
            ("residual", &narrow, HitKind::Subsumed),
        ] {
            let hit = |rows: Vec<Tuple>| {
                ResolvedHit::from_harvest(Arc::new(Harvest::new(rows)), SourceId(0), kind)
            };
            let first = format!("{name}_first");
            group.bench_with_input(BenchmarkId::new(&first, n), &n, |b, _| {
                b.iter(|| {
                    hit(rows.clone())
                        .serve(cond, &schema)
                        .expect("well-formed rows")
                });
            });
            let warm = hit(rows.clone());
            warm.serve(cond, &schema).expect("well-formed rows");
            let repeat = format!("{name}_repeat");
            group.bench_with_input(BenchmarkId::new(&repeat, n), &n, |b, _| {
                b.iter(|| warm.serve(cond, &schema).expect("well-formed rows"));
            });
        }
    }
    group.finish();
}

/// What a plan's stage schedule costs where it is built, and what the
/// analysis that must not build one costs: `analyze_dataflow`, the
/// certified constructor on its own, and one unpaced single-thread
/// parallel run end to end (small relations, so the certificate shows
/// beside the data plane).
fn bench_stage_schedule(c: &mut Criterion) {
    const SELS: [f64; 6] = [0.05, 0.4, 0.6, 0.1, 0.25, 0.5];
    let mut group = c.benchmark_group("stage_schedule");
    group.sample_size(30);
    for (m, n) in [(3usize, 5usize), (5, 8), (6, 8)] {
        let spec = SynthSpec {
            domain_size: 1_000,
            rows_per_source: 200,
            ..SynthSpec::default_with(n, 41)
        };
        let scenario = synth_scenario(&spec, &SELS[..m]);
        let model = scenario.cost_model();
        let plan = sja_optimal(&model).plan;
        let bounds = SourceBounds::from_model(&model);
        let id = format!("m{m}_n{n}");
        group.bench_with_input(BenchmarkId::new("analyze_dataflow", &id), &m, |b, _| {
            b.iter(|| analyze_dataflow(black_box(&plan), &model, &bounds).expect("valid plan"));
        });
        group.bench_with_input(BenchmarkId::new("stage_decomposition", &id), &m, |b, _| {
            b.iter(|| stage_decomposition(black_box(&plan)).expect("certified"));
        });
        let (q, sources) = (&scenario.query, &scenario.sources);
        group.bench_with_input(BenchmarkId::new("execute_parallel_1t", &id), &m, |b, _| {
            b.iter(|| {
                let mut net = scenario.network();
                let options = RunOptions {
                    schedule: Schedule::Stages {
                        threads: 1,
                        pace: None,
                    },
                    ..RunOptions::default()
                };
                run(Target::Plan(&plan), q, sources, &mut net, options)
                    .expect("certified plan executes")
            });
        });
    }
    group.finish();
}

/// The plan memo behind `sja_optimal`, on `NetworkCostModel`s of the
/// scoreboard's `single-wide` sizes: stating the key, a hit (key, lookup,
/// clone of the stored plan), a miss (key, search, insert) and the
/// search alone, which is `ordering_search` — never memoised, and since
/// the dense per-search table the number to hold against the parent's.
fn bench_plan_memo(c: &mut Criterion) {
    const SELS: [f64; 6] = [0.05, 0.4, 0.6, 0.1, 0.25, 0.5];
    let mut group = c.benchmark_group("plan_memo");
    group.sample_size(30);
    for (m, n) in [(4usize, 8usize), (5, 8), (6, 8)] {
        let spec = SynthSpec {
            domain_size: 1_000,
            rows_per_source: 200,
            ..SynthSpec::default_with(n, 41)
        };
        let scenario = synth_scenario(&spec, &SELS[..m]);
        let network = scenario.network();
        let model_with_domain = |domain: f64| {
            NetworkCostModel::new(&scenario.sources, &network, &scenario.query, Some(domain))
        };
        let model = model_with_domain(scenario.domain_size);
        let id = format!("m{m}_n{n}");
        group.bench_with_input(BenchmarkId::new("key_build", &id), &m, |b, _| {
            b.iter(|| {
                let mut words = Vec::new();
                black_box(&model).plan_key(&mut words);
                words
            });
        });
        sja_optimal(&model);
        group.bench_with_input(BenchmarkId::new("hit", &id), &m, |b, _| {
            b.iter(|| sja_optimal(black_box(&model)));
        });
        // One model more than the memo holds, asked round-robin: by the
        // time a key comes round again the memo has been cleared, so
        // every call misses.
        let pool: Vec<NetworkCostModel> = (0..=PLAN_MEMO_CAPACITY)
            .map(|k| model_with_domain(scenario.domain_size + 1.0 + k as f64))
            .collect();
        let mut next = 0;
        group.bench_with_input(BenchmarkId::new("miss_insert", &id), &m, |b, _| {
            b.iter(|| {
                next = (next + 1) % pool.len();
                sja_optimal(&pool[next])
            });
        });
        group.bench_with_input(BenchmarkId::new("search", &id), &m, |b, _| {
            b.iter(|| ordering_search(black_box(&model), RoundRule::PerSource));
        });
        let (_, stats) = ordering_search(&model, RoundRule::PerSource);
        println!(
            "  search/{id} priced {} prefixes, cut {}",
            stats.prefixes_explored, stats.prunes
        );
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_itemset_ops(&mut c);
    bench_data_plane(&mut c);
    bench_plan_build(&mut c);
    bench_proof_memos(&mut c);
    bench_selectivity(&mut c);
    let path = write_artifact("BENCH_b3_plan_ops.json", &c.to_json("b3-plan-ops"))
        .expect("write BENCH_b3_plan_ops.json");
    println!("wrote {}", path.display());
    let mut c = Criterion::new();
    bench_cache_hit(&mut c);
    let path = write_artifact("BENCH_b4_cache_hit.json", &c.to_json("b4-cache-hit"))
        .expect("write BENCH_b4_cache_hit.json");
    println!("wrote {}", path.display());
    let mut c = Criterion::new();
    bench_stage_schedule(&mut c);
    let path = write_artifact(
        "BENCH_b5_stage_schedule.json",
        &c.to_json("b5-stage-schedule"),
    )
    .expect("write BENCH_b5_stage_schedule.json");
    println!("wrote {}", path.display());
    let mut c = Criterion::new();
    bench_plan_memo(&mut c);
    let path = write_artifact("BENCH_b6_plan_memo.json", &c.to_json("b6-plan-memo"))
        .expect("write BENCH_b6_plan_memo.json");
    println!("wrote {}", path.display());
}
