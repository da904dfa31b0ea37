//! The `serve-*` workloads: the multi-tenant server over a shared answer
//! cache, entered through `serve` with
//! `ServerConfig { cache_budget, offered, ..ServerConfig::with_workers(w) }`.
//!
//! One *batch* is one `serve` call over the workload's fixed tenant
//! streams (a fresh cache every call, so every batch does the same work).
//! Three loops are timed, interleaved round by round: closed loop at 1
//! worker, closed loop at 2 workers, open loop at 2 workers and a fixed
//! offered rate. Throughput comes from the closed loops, latency from the
//! open loop only: in closed-loop mode the server measures
//! `QueryResult::latency` from server start (README, Findings).

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use fusion::cache::{CacheStats, CachedCostModel, SharedAnswerCache};
use fusion::core::cost::NetworkCostModel;
use fusion::core::plan::Step;
use fusion::core::sja_optimal;
use fusion::exec::{
    replay_serial, serve, verify_replay_parity, OpKind, ServerConfig, ServerReport, StepKind,
    TenantEvent,
};
use fusion::net::Network;
use fusion::source::{InMemoryWrapper, SourceSet};
use fusion::types::error::{FusionError, Result};
use fusion::types::{Condition, Cost, SourceId, Tuple};

use crate::json::Json;
use crate::report::{fold_answer, peak_rss_mb, plan_shape, prove_sound, Outcome, FNV_SEED};
use crate::stats::{self, Batch};
use crate::trace::{
    best_totals, source_self_ns, totals_by_name, Recorder, Traced, NONE, TRACED_REPEATS,
};
use crate::workload::{wrappers, Event, Inputs, Kind};

/// Rounds timed at the least, however short `--seconds` is: 10 batches
/// per closed loop and 5 of the open loop.
const MIN_ROUNDS: usize = 5;
/// One round: this many closed-loop batches at 1 worker, as many at 2
/// workers, then one open-loop batch. The three loops are interleaved, not
/// run one after the other, so that each sees the whole run: a neighbour
/// that slows the box for ten seconds cannot take out a whole loop.
const CLOSED_PER_ROUND: usize = 2;

/// The fixed load of one workload, in the server's vocabulary.
struct Load<'a> {
    inputs: &'a Inputs,
    tenants: Vec<Vec<TenantEvent>>,
    cache_budget: usize,
    /// Query events per batch.
    queries: usize,
}

impl Load<'_> {
    fn config(&self, workers: usize, offered: Option<f64>) -> ServerConfig {
        ServerConfig {
            cache_budget: self.cache_budget,
            offered,
            ..ServerConfig::with_workers(workers)
        }
    }

    fn network(&self) -> Network {
        self.inputs.scenario.network()
    }
}

/// What one `serve` call measured. The report itself is dropped once these
/// are taken, so that peak memory is the server's, not the harness's.
struct Served {
    /// Wall clock of the whole `serve()` call, post-run certificates
    /// included (not `report.wall`).
    wall_s: f64,
    /// `report.wall`: the run without what `serve` does after it.
    report_wall_s: f64,
    /// Queries that were shed, went missing or answered wrong.
    failed: u64,
    /// Fingerprint of all answers in `(tenant, index)` order.
    answers: u64,
    /// Total simulated cost (bit-exact at one worker).
    cost: f64,
    cache: CacheStats,
    log_ops: usize,
    /// `QueryResult::latency` in µs, in `(tenant, index)` order.
    latency_us: Vec<f64>,
    /// `latency_quantile(0.5)` over `report.wall`.
    p50_over_wall: f64,
    /// Selections served from another in-flight query's fetch / all
    /// selections.
    shared: usize,
    selections: usize,
    round_trips: usize,
}

impl Served {
    fn same_work_as(&self, other: &Served) -> bool {
        self.cost.to_bits() == other.cost.to_bits()
            && self.answers == other.answers
            && self.cache == other.cache
    }
}

fn serve_batch(
    load: &Load,
    sources: &SourceSet,
    config: &ServerConfig,
) -> Result<(Served, ServerReport)> {
    let net = || load.network();
    let t0 = Instant::now();
    let report = std::hint::black_box(serve(
        sources,
        &net,
        Some(load.inputs.scenario.domain_size),
        &load.tenants,
        config,
    ))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut answers = FNV_SEED;
    let mut right = 0u64;
    let (mut shared, mut selections, mut round_trips) = (0, 0, 0);
    for r in &report.results {
        let Event::Query(k) = load.inputs.streams[r.tenant][r.index] else {
            continue;
        };
        if r.outcome.answer == load.inputs.truth[k] {
            right += 1;
        }
        answers = fold_answer(answers, &r.outcome.answer);
        let ledger = &r.outcome.ledger;
        let by_share =
            ledger.count_kind(StepKind::ShareHit) + ledger.count_kind(StepKind::ShareResidual);
        shared += by_share;
        selections += by_share
            + ledger.count_kind(StepKind::Selection)
            + ledger.count_kind(StepKind::CacheHit)
            + ledger.count_kind(StepKind::CacheResidual);
        round_trips += ledger.round_trips();
    }
    let report_wall_s = report.wall.as_secs_f64();
    let served = Served {
        wall_s,
        report_wall_s,
        failed: load.queries as u64 - right,
        answers,
        cost: report.total_cost().value(),
        cache: report.cache,
        log_ops: report.log.len(),
        latency_us: report
            .results
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e6)
            .collect(),
        p50_over_wall: report.latency_quantile(0.5).as_secs_f64() / report_wall_s.max(1e-12),
        shared,
        selections,
        round_trips,
    };
    Ok((served, report))
}

/// One more batch onto `batches`. A failed `serve` call fails every query
/// of its batch.
fn batch_into(batches: &mut Vec<Served>, load: &Load, config: &ServerConfig, out: &mut Outcome) {
    match serve_batch(load, &load.inputs.scenario.sources, config) {
        Ok((b, _report)) => {
            out.count(load.queries as u64, b.failed);
            batches.push(b);
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            out.count(load.queries as u64, load.queries as u64);
        }
    }
}

fn as_batches(served: &[Served], queries: usize) -> Vec<Batch> {
    served
        .iter()
        .map(|b| Batch {
            queries,
            wall_s: b.wall_s,
        })
        .collect()
}

fn hit_rate(c: &CacheStats) -> f64 {
    (c.hits + c.residual_hits) as f64 / (c.hits + c.residual_hits + c.misses).max(1) as f64
}

/// Runs a `serve-*` workload.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool, out: &mut Outcome) {
    let Kind::Serve {
        per_tenant,
        cache_budget,
        offered,
        tenants: n_tenants,
        ..
    } = inputs.spec.kind
    else {
        unreachable!("serve::run on a single workload");
    };
    let load = Load {
        inputs,
        tenants: inputs
            .streams
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .map(|e| match *e {
                        Event::Query(k) => TenantEvent::Query(inputs.pool[k].query.clone()),
                        Event::Update(source) => TenantEvent::Update(source),
                    })
                    .collect()
            })
            .collect(),
        cache_budget,
        queries: per_tenant * n_tenants,
    };
    let nq = load.queries as f64;

    let closed_1 = load.config(1, None);
    let closed_2 = load.config(2, None);
    let open_2 = load.config(2, Some(offered));
    let (mut w1, mut w2, mut open) = (Vec::new(), Vec::new(), Vec::new());

    // Warm-up: the first batch of a process runs 15–30 % slow.
    batch_into(&mut Vec::new(), &load, &closed_1, &mut Outcome::default());

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed() < budget {
        rounds += 1;
        for _ in 0..CLOSED_PER_ROUND {
            batch_into(&mut w1, &load, &closed_1, out);
        }
        for _ in 0..CLOSED_PER_ROUND {
            batch_into(&mut w2, &load, &closed_2, out);
        }
        batch_into(&mut open, &load, &open_2, out);
    }
    let (Some(first), false, false) = (w1.first(), w2.is_empty(), open.is_empty()) else {
        // Every call of a phase failed; the failures are counted.
        return;
    };

    // Best of batches (see `stats`): every batch is the same work over a
    // fresh cache. Closed loops give throughput; latency comes from the
    // open loop only, position by position over its batches.
    let (b1, b2) = (as_batches(&w1, load.queries), as_batches(&w2, load.queries));
    let (qps_w1, qps_w2) = (stats::batch_best_qps(&b1), stats::batch_best_qps(&b2));
    let repeats: Vec<&[f64]> = open.iter().map(|b| b.latency_us.as_slice()).collect();
    let mut floor = stats::floor_per_position(&repeats);
    stats::sort(&mut floor);
    let sim_cost = first.cost / nq;
    out.end_to_end("qps", qps_w2);
    out.end_to_end("qps_w1", qps_w1);
    out.end_to_end("lat_p50_us", stats::quantile(&floor, 0.5));
    out.end_to_end("lat_p90_us", stats::quantile(&floor, 0.9));
    out.end_to_end("sim_cost_per_query", sim_cost);
    out.end_to_end("peak_rss_mb", peak_rss_mb());
    let per_batch = |q: f64| -> Vec<f64> {
        repeats
            .iter()
            .map(|lat| {
                let mut lat = lat.to_vec();
                stats::sort(&mut lat);
                stats::quantile(&lat, q)
            })
            .collect()
    };
    out.distribution("qps", b2.iter().map(Batch::qps));
    out.distribution("qps_w1", b1.iter().map(Batch::qps));
    out.distribution("lat_p50_us", per_batch(0.5));
    out.distribution("lat_p90_us", per_batch(0.9));

    // One worker picks events in a fixed order: every batch must cost,
    // answer and leave the cache exactly like the first.
    out.require(
        "w1_batches_repeat_exactly",
        w1.iter().all(|b| b.same_work_as(first)),
    );
    let events: usize = load.tenants.iter().map(Vec::len).sum();
    let c = first.cache;
    out.deterministic("queries_per_batch", Json::Int(load.queries as i64));
    out.deterministic("events_per_batch", Json::Int(events as i64));
    out.deterministic("sim_cost_per_query", Json::Num(sim_cost));
    out.deterministic("answers_fnv", Json::str(format!("{:016x}", first.answers)));
    out.deterministic("log_ops", Json::Int(first.log_ops as i64));
    for (name, count) in [
        ("cache.hits", c.hits),
        ("cache.residual_hits", c.residual_hits),
        ("cache.misses", c.misses),
        ("cache.insertions", c.insertions),
        ("cache.evictions", c.evictions),
        ("cache.rejections", c.rejections),
        ("cache.invalidations", c.invalidations),
    ] {
        out.deterministic(name, Json::Int(count as i64));
    }
    out.premise(inputs.spec.premise, hit_rate(&c));

    // Recorded, never asserted: does closed-loop "latency" track the run's
    // wall clock instead of a service time?
    out.finding(
        "closed_loop_latency_from_start",
        Json::Bool((0.3..=0.7).contains(&first.p50_over_wall)),
    );
    out.finding("closed_loop_p50_over_wall", Json::Num(first.p50_over_wall));

    // Layer numbers the untraced phases already hold.
    let mut open_lat: Vec<f64> = repeats.iter().flat_map(|lat| lat.iter()).copied().collect();
    stats::sort(&mut open_lat);
    let tail_s: Vec<f64> = w1.iter().map(|b| b.wall_s - b.report_wall_s).collect();
    let tail_frac: Vec<f64> = w1
        .iter()
        .map(|b| (b.wall_s - b.report_wall_s) / b.wall_s)
        .collect();
    let open_rates: Vec<f64> = open.iter().map(|b| nq / b.wall_s).collect();
    let w2_costs: Vec<f64> = w2.iter().map(|b| b.cost).collect();
    let shared: usize = w2.iter().map(|b| b.shared).sum();
    let selections: usize = w2.iter().map(|b| b.selections).sum();
    let median_w1 = stats::batch_median_qps(&b1);
    out.per_layer("exec.server.service_us", 1e6 / qps_w1);
    out.per_layer("exec.server.tail_us", stats::median(&tail_s) * 1e6 / nq);
    out.per_layer("exec.server.tail_frac", stats::median(&tail_frac));
    out.per_layer("exec.server.scale_w2", qps_w2 / qps_w1);
    out.per_layer(
        "exec.server.cost_ratio_w2",
        stats::median(&w2_costs) / first.cost,
    );
    out.per_layer(
        "exec.server.shared_frac",
        shared as f64 / selections.max(1) as f64,
    );
    out.per_layer("exec.server.log_ops_per_query", first.log_ops as f64 / nq);
    out.per_layer("exec.server.lat_p99_us", stats::quantile(&open_lat, 0.99));
    out.per_layer("exec.server.open_qps", stats::median(&open_rates));
    out.per_layer("exec.round_trips", first.round_trips as f64 / nq);
    out.per_layer("cache.hit_rate", hit_rate(&c));
    out.per_layer(
        "cache.residual_frac",
        c.residual_hits as f64 / (c.hits + c.residual_hits).max(1) as f64,
    );
    out.per_layer("cache.insertions", c.insertions as f64);
    out.per_layer("cache.evictions", c.evictions as f64);
    out.per_layer("cache.rejections", c.rejections as f64);
    out.per_layer("cache.invalidations", c.invalidations as f64);
    out.per_layer("run.latency_samples", open_lat.len() as f64);
    out.per_layer("run.batches_w1", w1.len() as f64);
    out.per_layer("run.batches_w2", w2.len() as f64);
    out.per_layer("run.batches_open", open.len() as f64);
    out.per_layer("run.noise_frac", 1.0 - median_w1 / qps_w1);
    out.deterministic("exec.round_trips", Json::Num(first.round_trips as f64 / nq));
    if !traced {
        return;
    }
    traced_phase(&load, first, out);
}

/// One traced batch with everything it recorded.
struct TracedBatch {
    live: Served,
    traced: Traced,
    parity: bool,
    /// `None` when the probe itself failed.
    probe: Option<Probe>,
    probe_matches_server: bool,
}

/// One traced batch: `serve` at one worker over timed wrappers, its serial
/// replay and parity check, then the admission probe.
fn traced_batch(load: &Load, plain: Vec<InMemoryWrapper>) -> Result<TracedBatch> {
    let inputs = load.inputs;
    let traced = Traced::over(plain);
    let rec = &traced.rec;
    let config = load.config(1, None);
    let net = || load.network();

    let (live, report) = rec.span_ambient("exec.server.serve", || {
        serve_batch(load, &traced.sources, &config)
    })?;
    let parity = rec
        .span("exec.replay.replay", NONE, || {
            replay_serial(
                &inputs.scenario.sources,
                &net,
                Some(inputs.scenario.domain_size),
                &load.tenants,
                &config,
                &report.log,
            )
        })
        .and_then(|(queries, fingerprint)| {
            rec.span("exec.replay.parity", NONE, || {
                verify_replay_parity(&report, &queries, &fingerprint)
            })
        });
    if let Err(e) = &parity {
        eprintln!("replay parity failed: {e}");
    }
    let probe = admission_probe(load, &report, rec);
    if let Err(e) = &probe {
        eprintln!("admission probe failed: {e}");
    }
    let probe = probe.ok();
    Ok(TracedBatch {
        live,
        parity: parity.is_ok(),
        probe_matches_server: probe.as_ref().is_some_and(|p| p.cache == report.cache),
        probe,
        traced,
    })
}

/// The traced phase: a few traced batches, each layer at its fastest, for
/// the reason the timed metrics are best-of (see `stats`).
fn traced_phase(load: &Load, untraced: &Served, out: &mut Outcome) {
    let nq = load.queries as f64;
    // An untraced batch runs beside each traced one, so that tracing
    // overhead compares like with like.
    let plain = wrappers(&load.inputs.scenario.relations, load.inputs.seed);
    let mut beside = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..TRACED_REPEATS {
        batch_into(&mut beside, load, &load.config(1, None), out);
        match traced_batch(load, plain.clone()) {
            Ok(t) => {
                out.count(load.queries as u64, t.live.failed);
                runs.push(t);
            }
            Err(e) => {
                eprintln!("traced serve failed: {e}");
                out.count(load.queries as u64, load.queries as u64);
            }
        }
    }
    if runs.is_empty() {
        return;
    }
    // The timed wrappers are copies of the plain ones: a traced batch that
    // prices differently describes some other execution.
    out.require(
        "traced_batch_matches_untraced",
        runs.iter().all(|t| t.live.same_work_as(untraced)),
    );
    out.require("replay_parity", runs.iter().all(|t| t.parity));
    // Recorded, never asserted: the probe walked the server's own cache
    // history if it ends with the server's own counters.
    out.finding(
        "probe_matches_server",
        Json::Bool(runs.iter().all(|t| t.probe_matches_server)),
    );

    let totals = best_totals(
        &runs
            .iter()
            .map(|t| totals_by_name(&t.traced.rec.spans()))
            .collect::<Vec<_>>(),
    );
    // Counts are the same in every repeat; the spans kept are the fastest's.
    runs.sort_by(|a, b| a.live.wall_s.total_cmp(&b.live.wall_s));
    let TracedBatch {
        live,
        traced: Traced { rec, counters, .. },
        probe,
        ..
    } = runs.swap_remove(0);
    let probe = probe.unwrap_or_default();

    let self_of = |name: &str| totals.get(name).map_or(0, |t| t.self_ns);
    let per_query_us = |ns: u64| ns as f64 / 1e3 / nq;
    let source_ns = source_self_ns(&totals);
    let traced_us = live.wall_s * 1e6 / nq;
    let share = |us: f64| us / traced_us;

    let mut attributed_us = per_query_us(source_ns);
    out.layer_time("source.busy", attributed_us, share(attributed_us));
    for layer in [
        "net.fresh",
        "core.cost.model",
        "core.optimizer.sja",
        "core.analyze.proof",
        "cache.lock",
        "cache.snapshot",
        "cache.resolve",
        "cache.project",
        "cache.insert",
        "cache.bump",
    ] {
        let us = per_query_us(self_of(layer));
        attributed_us += us;
        out.layer_time(layer, us, share(us));
    }
    let unattributed_us = traced_us - attributed_us;
    out.layer_time(
        "exec.server.unattributed",
        unattributed_us,
        share(unattributed_us),
    );
    out.per_layer("trace.attributed_frac", share(attributed_us));
    let beside_s = beside
        .iter()
        .map(|b| b.wall_s)
        .fold(f64::INFINITY, f64::min);
    out.per_layer("trace.overhead_frac", live.wall_s / beside_s - 1.0);
    out.per_layer("trace.spans", rec.spans().len() as f64);
    out.per_layer(
        "exec.replay.replay_us",
        per_query_us(self_of("exec.replay.replay")),
    );
    out.per_layer(
        "exec.replay.parity_us",
        per_query_us(self_of("exec.replay.parity")),
    );
    out.source_counts(&counters, nq);
    let plan_steps = probe.plan_steps as f64 / nq;
    let repeat_ratio = nq / probe.shapes.len().max(1) as f64;
    out.per_layer("core.optimizer.plan_steps", plan_steps);
    out.per_layer("core.analyze.repeat_ratio", repeat_ratio);
    out.deterministic("core.optimizer.plan_steps", Json::Num(plan_steps));
    out.deterministic("core.analyze.repeat_ratio", Json::Num(repeat_ratio));
    out.recorder = Some(rec);
}

/// What the admission probe counted.
#[derive(Default)]
struct Probe {
    cache: CacheStats,
    plan_steps: usize,
    shapes: BTreeSet<u64>,
}

/// A fetch the probe owes the cache at its query's commit.
struct Owed {
    source: SourceId,
    cond: Condition,
    rows: Vec<Tuple>,
    refetch: Cost,
}

/// Walks the batch's log in ticket order over a fresh cache, making the
/// server's admission-side calls through the public API only — one span
/// per call — and no plan execution: misses are fetched straight from the
/// (plain) source and owed to the cache until the query's commit, at the
/// price the live run's ledger paid. It prices each admission-side layer
/// on exactly the inputs the server saw.
fn admission_probe(load: &Load, live: &ServerReport, rec: &Recorder) -> Result<Probe> {
    let inputs = load.inputs;
    let sources = &inputs.scenario.sources;
    let n = sources.len();
    let config = load.config(1, None);
    let cache = SharedAnswerCache::new(config.cache_budget, config.n_shards);
    let results: HashMap<(usize, usize), &fusion::exec::QueryResult> = live
        .results
        .iter()
        .map(|r| ((r.tenant, r.index), r))
        .collect();
    let mut owed: HashMap<u64, (Vec<u64>, Vec<Owed>)> = HashMap::new();
    let mut probe = Probe::default();
    for op in &live.log {
        match &op.kind {
            OpKind::Admit { tenant, index, .. } => {
                let TenantEvent::Query(query) = &load.tenants[*tenant][*index] else {
                    return Err(FusionError::execution("log admits a non-query event"));
                };
                let conditions = query.conditions();
                let root = rec.enter("admit", op.ticket as u32);
                let model_net = rec.span("net.fresh", NONE, || load.network());
                // The server builds a second network for the execution.
                std::hint::black_box(rec.span("net.fresh", NONE, || load.network()));
                let model = rec.span("core.cost.model", NONE, || {
                    NetworkCostModel::new(
                        sources,
                        &model_net,
                        query,
                        Some(inputs.scenario.domain_size),
                    )
                });
                let mut guard = rec.span("cache.lock", NONE, || cache.lock_all());
                let snapshot = rec.span("cache.snapshot", NONE, || guard.snapshot(conditions, n));
                let plan = rec.span("core.optimizer.sja", NONE, || {
                    sja_optimal(&CachedCostModel::new(&model, &snapshot)).plan
                });
                let hits = rec.span("cache.resolve", NONE, || {
                    plan.steps
                        .iter()
                        .map(|step| match step {
                            Step::Sq { cond, source, .. } => {
                                guard.resolve(*source, &conditions[cond.0])
                            }
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                });
                let epochs: Vec<u64> = (0..n).map(|j| guard.epoch(SourceId(j))).collect();
                guard.take_ticket();
                rec.span("cache.lock", NONE, || drop(guard));
                rec.span("cache.project", NONE, || -> Result<()> {
                    for (step, hit) in plan.steps.iter().zip(&hits) {
                        if let (Step::Sq { cond, .. }, Some(hit)) = (step, hit) {
                            std::hint::black_box(hit.serve(&conditions[cond.0], query.schema())?);
                        }
                    }
                    Ok(())
                })?;
                rec.span("core.analyze.proof", NONE, || prove_sound(&plan))?;
                rec.exit(root);

                let ledger = results
                    .get(&(*tenant, *index))
                    .map(|r| r.outcome.ledger.entries());
                let mut fetches = Vec::new();
                for (idx, (step, hit)) in plan.steps.iter().zip(&hits).enumerate() {
                    let (Step::Sq { cond, source, .. }, None) = (step, hit) else {
                        continue;
                    };
                    let paid = ledger
                        .and_then(|entries| entries.iter().find(|e| e.step == idx))
                        .map_or(Cost::ZERO, |e| e.comm + e.proc);
                    fetches.push(Owed {
                        source: *source,
                        cond: conditions[cond.0].clone(),
                        rows: sources
                            .get(*source)
                            .select_records(&conditions[cond.0])?
                            .payload,
                        refetch: paid,
                    });
                }
                probe.plan_steps += plan.steps.len();
                probe.shapes.insert(plan_shape(&plan));
                owed.insert(op.ticket, (epochs, fetches));
            }
            OpKind::Commit { admit_ticket, .. } => {
                // In step order, as the server commits them.
                let (epochs, fetches) = owed.remove(admit_ticket).unwrap_or_default();
                rec.span("cache.insert", op.ticket as u32, || {
                    let touched: Vec<SourceId> = fetches.iter().map(|f| f.source).collect();
                    let mut guard = cache.lock_sources(&touched);
                    for f in fetches {
                        if guard.epoch(f.source) == epochs[f.source.0] {
                            guard.insert(f.source, f.cond, f.rows, true, f.refetch);
                        }
                    }
                    guard.take_ticket();
                });
            }
            OpKind::Bump { source, .. } => rec.span("cache.bump", op.ticket as u32, || {
                let mut guard = cache.lock_sources(&[*source]);
                guard.bump_epoch(*source);
                guard.take_ticket();
            }),
        }
    }
    probe.cache = cache.stats();
    Ok(probe)
}
