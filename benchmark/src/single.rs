//! The `single-*` workloads: one client, closed loop, SQL text to answer
//! through `parse_fusion_query` → `NetworkCostModel::new` → `sja_optimal`
//! → `execute_plan`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use fusion::core::cost::NetworkCostModel;
use fusion::core::sja_optimal;
use fusion::exec::{execute_plan, execute_plan_unchecked, ExecutionOutcome};
use fusion::parse_fusion_query;
use fusion::types::error::Result;
use fusion::types::Schema;
use fusion::workload::synth::synth_schema;

use crate::json::Json;
use crate::report::{fold_answer, peak_rss_mb, plan_shape, prove_sound, Outcome, FNV_SEED};
use crate::stats::{self, Batch};
use crate::trace::{best_totals, source_self_ns, totals_by_name, Traced, NONE, TRACED_REPEATS};
use crate::workload::{wrappers, Event, Inputs};

/// Passes timed at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The end-to-end path: everything between a SQL text and its answer.
fn answer_sql(inputs: &Inputs, schema: &Schema, sql: &str) -> Result<ExecutionOutcome> {
    let query = parse_fusion_query(sql, schema)?;
    let scenario = &inputs.scenario;
    let mut network = scenario.network();
    let model = NetworkCostModel::new(
        &scenario.sources,
        &network,
        &query,
        Some(scenario.domain_size),
    );
    let best = sja_optimal(&model);
    execute_plan(&best.plan, &query, &scenario.sources, &mut network)
}

/// What one pass over the stream measured.
struct Pass {
    /// Per-query wall time in µs, in stream order.
    lat_us: Vec<f64>,
    /// Simulated cost summed over the pass (bit-exact across passes).
    cost: f64,
    failed: u64,
    /// Fingerprint of all answers in stream order.
    answers: u64,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.lat_us.iter().sum::<f64>() / 1e6
    }

    fn quantile_us(&self, q: f64) -> f64 {
        let mut lat = self.lat_us.clone();
        stats::sort(&mut lat);
        stats::quantile(&lat, q)
    }

    fn same_work_as(&self, other: &Pass) -> bool {
        self.cost.to_bits() == other.cost.to_bits() && self.answers == other.answers
    }
}

/// One pass: each query (stream position, SQL text) timed on its own, its
/// answer held against ground truth outside the timed interval.
fn pass(inputs: &Inputs, mut run: impl FnMut(u32, &str) -> Result<ExecutionOutcome>) -> Pass {
    let stream = &inputs.streams[0];
    let mut p = Pass {
        lat_us: Vec::with_capacity(stream.len()),
        cost: 0.0,
        failed: 0,
        answers: FNV_SEED,
    };
    for (pos, event) in stream.iter().enumerate() {
        let Event::Query(k) = *event else {
            unreachable!("single streams carry no updates");
        };
        let sql = std::hint::black_box(inputs.pool[k].sql.as_str());
        let t0 = Instant::now();
        let out = std::hint::black_box(run(pos as u32, sql));
        p.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match out {
            Ok(out) if out.answer == inputs.truth[k] => {
                p.cost += out.total_cost().value();
                p.answers = fold_answer(p.answers, &out.answer);
            }
            Ok(_) => p.failed += 1,
            Err(e) => {
                eprintln!("query {pos} failed: {e}");
                p.failed += 1;
            }
        }
    }
    p
}

/// What the traced pass counted beside its spans.
#[derive(Default)]
struct PlanCounts {
    steps: usize,
    round_trips: usize,
    shapes: BTreeSet<u64>,
}

/// The traced pipeline: the same calls, one span each, with
/// `execute_plan` split into its two public halves.
fn answer_sql_traced(
    inputs: &Inputs,
    schema: &Schema,
    traced: &Traced,
    counts: &mut PlanCounts,
    qid: u32,
    sql: &str,
) -> Result<ExecutionOutcome> {
    let (rec, sources) = (&traced.rec, &traced.sources);
    let root = rec.enter("query", qid);
    let result = (|| {
        let query = rec.span("sql.parse", NONE, || parse_fusion_query(sql, schema))?;
        let mut network = rec.span("net.fresh", NONE, || inputs.scenario.network());
        let model = rec.span("core.cost.model", NONE, || {
            NetworkCostModel::new(sources, &network, &query, Some(inputs.scenario.domain_size))
        });
        let best = rec.span("core.optimizer.sja", NONE, || sja_optimal(&model));
        rec.span("core.analyze.proof", NONE, || prove_sound(&best.plan))?;
        let out = rec.span("exec.run", NONE, || {
            execute_plan_unchecked(&best.plan, &query, sources, &mut network)
        })?;
        Ok((out, best.plan))
    })();
    rec.exit(root);
    let (out, plan) = result?;
    counts.steps += plan.steps.len();
    counts.round_trips += out.ledger.round_trips();
    counts.shapes.insert(plan_shape(&plan));
    Ok(out)
}

/// Runs a `single-*` workload: an untimed warm-up pass, timed passes for
/// `seconds` (at least [`MIN_PASSES`]), then — when `traced` —
/// [`TRACED_REPEATS`] traced passes.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool, out: &mut Outcome) {
    let schema = synth_schema();
    let n = inputs.streams[0].len();
    let nq = n as f64;
    let untraced = || pass(inputs, |_, sql| answer_sql(inputs, &schema, sql));

    // Warm-up: page in the sources, grow the allocator's arenas.
    out.count(n as u64, untraced().failed);

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        let p = untraced();
        out.count(n as u64, p.failed);
        passes.push(p);
    }

    // Best of passes, position by position (see `stats`): the stream is
    // the same every pass, so a position's fastest run is that query's
    // service time with the box's noise taken out.
    let mut floor = floor_us(&passes);
    let qps = nq / floor.iter().sum::<f64>() * 1e6;
    stats::sort(&mut floor);
    let sim_cost = passes[0].cost / nq;
    out.end_to_end("qps", qps);
    // One client: the throughput of one worker is the throughput.
    out.end_to_end("qps_w1", qps);
    out.end_to_end("lat_p50_us", stats::quantile(&floor, 0.5));
    out.end_to_end("lat_p90_us", stats::quantile(&floor, 0.9));
    out.end_to_end("sim_cost_per_query", sim_cost);
    out.end_to_end("peak_rss_mb", peak_rss_mb());
    let batches: Vec<Batch> = passes
        .iter()
        .map(|p| Batch {
            queries: n,
            wall_s: p.wall_s(),
        })
        .collect();
    let per_pass = |q: f64| -> Vec<f64> { passes.iter().map(|p| p.quantile_us(q)).collect() };
    out.distribution("qps", batches.iter().map(Batch::qps));
    out.distribution("lat_p50_us", per_pass(0.5));
    out.distribution("lat_p90_us", per_pass(0.9));
    out.deterministic("queries_per_pass", Json::Int(n as i64));
    out.deterministic("sim_cost_per_query", Json::Num(sim_cost));
    out.deterministic(
        "answers_fnv",
        Json::str(format!("{:016x}", passes[0].answers)),
    );
    // Same inputs, same code: every pass must price and answer alike.
    out.require(
        "passes_repeat_exactly",
        passes.iter().all(|p| p.same_work_as(&passes[0])),
    );
    let mut all_lat: Vec<f64> = passes.iter().flat_map(|p| &p.lat_us).copied().collect();
    stats::sort(&mut all_lat);
    out.per_layer("exec.lat_p99_us", stats::quantile(&all_lat, 0.99));
    out.per_layer("run.latency_samples", all_lat.len() as f64);
    out.per_layer("run.batches_w1", passes.len() as f64);
    out.per_layer(
        "run.noise_frac",
        1.0 - stats::batch_median_qps(&batches) / stats::batch_best_qps(&batches),
    );
    if !traced {
        return;
    }

    // A few traced passes, each layer at its fastest, for the reason the
    // timed metrics are best-of (see `stats`). An untraced pass runs beside
    // each, so that tracing overhead compares like with like.
    let plain = wrappers(&inputs.scenario.relations, inputs.seed);
    let mut beside: Vec<Pass> = Vec::new();
    let mut runs: Vec<(Pass, Traced, PlanCounts)> = Vec::new();
    for _ in 0..TRACED_REPEATS {
        beside.push(untraced());
        let traced = Traced::over(plain.clone());
        let mut counts = PlanCounts::default();
        let pass = pass(inputs, |qid, sql| {
            answer_sql_traced(inputs, &schema, &traced, &mut counts, qid, sql)
        });
        runs.push((pass, traced, counts));
    }
    let traced_passes: Vec<&Pass> = runs.iter().map(|(pass, ..)| pass).collect();
    for p in beside.iter().chain(traced_passes.iter().copied()) {
        out.count(n as u64, p.failed);
    }
    // The timed wrappers are copies of the plain ones: a traced pass that
    // prices differently describes some other execution.
    out.require(
        "traced_pass_matches_untraced",
        traced_passes.iter().all(|p| p.same_work_as(&passes[0])),
    );
    let overhead =
        floor_us(traced_passes).iter().sum::<f64>() / floor_us(&beside).iter().sum::<f64>() - 1.0;
    let totals = best_totals(
        &runs
            .iter()
            .map(|(_, traced, _)| totals_by_name(&traced.rec.spans()))
            .collect::<Vec<_>>(),
    );
    // Counts are the same in every repeat; the spans kept are the fastest's.
    runs.sort_by(|a, b| a.0.wall_s().total_cmp(&b.0.wall_s()));
    let (_, Traced { rec, counters, .. }, counts) = runs.swap_remove(0);

    let self_of = |name: &str| totals.get(name).map_or(0, |t| t.self_ns);
    let source_ns = source_self_ns(&totals);
    let query_ns = totals.get("query").map_or(0, |t| t.total_ns);
    let per_query_us = |ns: u64| ns as f64 / 1e3 / nq;
    let share = |ns: u64| ns as f64 / query_ns.max(1) as f64;

    let mut attributed = source_ns + self_of("exec.run");
    out.layer_time("source.busy", per_query_us(source_ns), share(source_ns));
    out.layer_time(
        "exec.self",
        per_query_us(self_of("exec.run")),
        share(self_of("exec.run")),
    );
    for layer in [
        "sql.parse",
        "net.fresh",
        "core.cost.model",
        "core.optimizer.sja",
        "core.analyze.proof",
    ] {
        attributed += self_of(layer);
        out.layer_time(layer, per_query_us(self_of(layer)), share(self_of(layer)));
    }
    out.per_layer(
        "exec.run_us",
        per_query_us(totals.get("exec.run").map_or(0, |t| t.total_ns)),
    );
    out.per_layer("trace.attributed_frac", share(attributed));
    out.per_layer("trace.overhead_frac", overhead);
    out.per_layer("trace.spans", rec.spans().len() as f64);

    let plan_steps = counts.steps as f64 / nq;
    let repeat_ratio = nq / counts.shapes.len().max(1) as f64;
    let round_trips = counts.round_trips as f64 / nq;
    out.per_layer("core.optimizer.plan_steps", plan_steps);
    out.per_layer("core.analyze.repeat_ratio", repeat_ratio);
    out.per_layer("exec.round_trips", round_trips);
    out.deterministic("core.optimizer.plan_steps", Json::Num(plan_steps));
    out.deterministic("core.analyze.repeat_ratio", Json::Num(repeat_ratio));
    out.deterministic("exec.round_trips", Json::Num(round_trips));
    out.source_counts(&counters, nq);
    out.premise(
        inputs.spec.premise,
        share(self_of("core.optimizer.sja") + self_of("core.analyze.proof")),
    );
    out.recorder = Some(rec);
}

/// Position by position, the fastest time (µs) any of `passes` measured.
fn floor_us<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Vec<f64> {
    let repeats: Vec<&[f64]> = passes.into_iter().map(|p| p.lat_us.as_slice()).collect();
    stats::floor_per_position(&repeats)
}
