//! E20: the semantic answer cache on Zipf session workloads.
//!
//! A session replays a pool of fusion queries with Zipf-skewed reuse
//! (see `fusion_workload::session`), occasionally bumping a source's
//! epoch to simulate an update. Every query is optimized twice — cold
//! (plain cost model) and warm (the same model decorated by the cache
//! snapshot, so covered selections price at their local cost) — and the
//! warm plan executes through the cache-serving executor. The
//! experiment reports, per sweep point:
//!
//! * the **cold** and **warm** total executed costs and the saving
//!   factor between them,
//! * the **hit rate** (exact + residual hits over all lookups),
//! * how many queries the cache-aware optimizer **re-planned** (warm
//!   plan different from the cold plan for the same query).
//!
//! Answers are asserted byte-identical between the cold and warm runs
//! on every query, so the table doubles as a parity check at session
//! scale.
//!
//! Besides the printed table, the run emits `BENCH_e20.json` (to
//! `$BENCH_DIR`, default `.`) so the perf trajectory can be diffed
//! across commits.

use crate::json::{write_artifact, Json};
use crate::table::{fmt3, fmtx, Table};
use fusion_cache::{AnswerCache, CachedCostModel};
use fusion_core::cost::NetworkCostModel;
use fusion_core::sja_optimal;
use fusion_exec::{execute_plan, run, RunOptions, Target};
use fusion_workload::session::{generate_session, SessionEvent, SessionSpec};
use fusion_workload::synth::{synth_scenario, SynthSpec};
use fusion_workload::Scenario;

/// Cache byte budget: large enough that eviction does not interfere
/// with the reuse measurement (E20 measures reuse, not pressure).
const BUDGET: usize = 1 << 22;

/// One measured sweep point.
pub struct SessionRow {
    /// Zipf exponent of the query pool.
    pub skew: f64,
    /// Per-step probability of a source update.
    pub update_rate: f64,
    /// Query events replayed.
    pub queries: usize,
    /// Total executed cost without a cache.
    pub cold: f64,
    /// Total executed cost with the cache.
    pub warm: f64,
    /// Served lookups over all lookups.
    pub hit_rate: f64,
    /// Queries whose warm plan differed from their cold plan.
    pub replanned: usize,
}

impl SessionRow {
    /// Cold-to-warm total cost reduction factor.
    pub fn saving(&self) -> f64 {
        self.cold / self.warm.max(f64::MIN_POSITIVE)
    }
}

fn session_scenario(seed: u64) -> Scenario {
    let spec = SynthSpec {
        n_sources: 5,
        domain_size: 1_000,
        rows_per_source: 400,
        seed,
        ..SynthSpec::default_with(5, seed)
    };
    // The scenario's own query is unused; sessions bring their own.
    synth_scenario(&spec, &[0.2, 0.2])
}

/// Replays one session cold and warm and measures the sweep point.
pub fn run_session(skew: f64, update_rate: f64, seed: u64) -> SessionRow {
    let scenario = session_scenario(seed);
    let n = scenario.n();
    let session = generate_session(&SessionSpec {
        m: 2,
        n_sources: n,
        pool: 6,
        n_queries: 30,
        skew,
        update_rate,
        // Wide enough that some pool queries land in the regime where
        // cold SJA mixes semijoins into the plan — a covered selection
        // pricing at zero can then flip those back to (free) sq steps.
        sel_range: (0.02, 0.45),
        seed: seed ^ 0x5E55,
    });

    let mut cache = AnswerCache::new(BUDGET);
    let mut cold = 0.0;
    let mut warm = 0.0;
    let mut queries = 0;
    let mut replanned = 0;
    for event in &session.events {
        match event {
            SessionEvent::Update { source } => cache.bump_epoch(*source),
            SessionEvent::Query { query, .. } => {
                queries += 1;
                let model = NetworkCostModel::new(
                    &scenario.sources,
                    &scenario.network(),
                    query,
                    Some(scenario.domain_size),
                );
                let cold_plan = sja_optimal(&model).plan;
                let mut network = scenario.network();
                let cold_out = execute_plan(&cold_plan, query, &scenario.sources, &mut network)
                    .expect("session queries execute");
                cold += cold_out.total_cost().value();

                let snap = cache.snapshot(query.conditions(), n);
                let warm_plan = sja_optimal(&CachedCostModel::new(&model, &snap)).plan;
                if warm_plan != cold_plan {
                    replanned += 1;
                }
                let mut network = scenario.network();
                let options = RunOptions {
                    cache: Some(&mut cache),
                    ..RunOptions::default()
                };
                let target = Target::Plan(&warm_plan);
                let warm_out = run(target, query, &scenario.sources, &mut network, options)
                    .expect("session queries execute")
                    .outcome;
                warm += warm_out.total_cost().value();
                assert_eq!(
                    warm_out.answer, cold_out.answer,
                    "warm answer diverged at skew {skew}"
                );
            }
        }
    }
    let s = cache.stats();
    let lookups = s.hits + s.residual_hits + s.misses;
    SessionRow {
        skew,
        update_rate,
        queries,
        cold,
        warm,
        hit_rate: (s.hits + s.residual_hits) as f64 / lookups.max(1) as f64,
        replanned,
    }
}

/// The sweep E20 replays: skew × update-rate grid.
pub fn sweep() -> Vec<SessionRow> {
    let mut rows = Vec::new();
    for skew in [0.0, 0.8, 1.5] {
        for update_rate in [0.0, 0.15] {
            rows.push(run_session(skew, update_rate, 41));
        }
    }
    rows
}

fn artifact(rows: &[SessionRow]) -> Json {
    Json::obj([
        ("experiment", Json::Str("e20-cache".into())),
        ("cache_budget_bytes", Json::Int(BUDGET as i64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("skew", Json::Num(r.skew)),
                            ("update_rate", Json::Num(r.update_rate)),
                            ("queries", Json::Int(r.queries as i64)),
                            ("cold_cost", Json::Num(r.cold)),
                            ("warm_cost", Json::Num(r.warm)),
                            ("saving", Json::Num(r.saving())),
                            ("hit_rate", Json::Num(r.hit_rate)),
                            ("replanned", Json::Int(r.replanned as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// E20: session replay with the semantic answer cache. Also emits
/// `BENCH_e20.json`.
pub fn e20_cache() {
    let rows = sweep();
    let mut t = Table::new(
        "E20: semantic cache on Zipf sessions — cold vs warm total cost".to_string(),
        &[
            "skew",
            "upd rate",
            "queries",
            "cold cost",
            "warm cost",
            "saving",
            "hit rate",
            "replanned",
        ],
    );
    for r in &rows {
        t.row(vec![
            fmt3(r.skew),
            fmt3(r.update_rate),
            r.queries.to_string(),
            fmt3(r.cold),
            fmt3(r.warm),
            fmtx(r.saving()),
            format!("{:.0}%", r.hit_rate * 100.0),
            format!("{}/{}", r.replanned, r.queries),
        ]);
    }
    t.print();
    let path = write_artifact("BENCH_e20.json", &artifact(&rows)).expect("write BENCH_e20.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: at least one sweep point shows a ≥2x
    /// total-cost reduction AND a warm plan that differs from the cold
    /// plan; update-heavy points still save nothing incorrectly (warm
    /// answers were asserted equal inside `run_session`).
    #[test]
    fn zipf_sessions_halve_total_cost_and_replan() {
        let rows = sweep();
        assert!(
            rows.iter().any(|r| r.saving() >= 2.0 && r.replanned > 0),
            "no sweep point reached 2x saving with a re-planned query: {:?}",
            rows.iter()
                .map(|r| (r.skew, r.update_rate, r.saving(), r.replanned))
                .collect::<Vec<_>>()
        );
        // Reuse is real: the no-update points serve most lookups.
        assert!(rows
            .iter()
            .filter(|r| r.update_rate == 0.0)
            .all(|r| r.hit_rate > 0.5));
        // Updates reduce reuse, never break it.
        for r in &rows {
            assert!(r.warm <= r.cold * 1.001, "warm exceeded cold at {}", r.skew);
        }
    }

    /// Determinism: same sweep, same numbers.
    #[test]
    fn sweep_is_deterministic() {
        let a = run_session(1.5, 0.15, 41);
        let b = run_session(1.5, 0.15, 41);
        assert_eq!(a.cold, b.cold);
        assert_eq!(a.warm, b.warm);
        assert_eq!(a.hit_rate, b.hit_rate);
        assert_eq!(a.replanned, b.replanned);
    }
}
