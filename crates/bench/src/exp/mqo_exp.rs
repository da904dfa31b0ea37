//! E22: multi-query optimization — cross-query fetch sharing in the
//! mediator server.
//!
//! Tenants replay Zipf sessions drawn from a deliberately small shared
//! query pool, so co-admitted duplicates (and properly contained
//! selections) are the common case, not the exception. Three worlds
//! are measured at each worker count:
//!
//! * **isolated-cold** — every tenant alone, one worker, zero cache:
//!   the world without any cross-query machinery (reused from E21);
//! * **first-fetches/rest-hit** (`share=off`) — the PR-7 behavior:
//!   co-admitted duplicates each pay for their own fetch, later
//!   admissions are served from the committed cache;
//! * **merged** (`share=on`) — the share rule
//!   (`fusion_core::dataflow::share_schedule`) lets each admission's
//!   uncached selections ride an earlier in-flight fetch that provably
//!   equals (fan-out) or contains (residual filter) them, inside the
//!   admission critical section; every attach is re-proved there.
//!
//! Correctness is asserted, not assumed, at every measured point: the
//! run replays bit-for-bit from its admission log
//! ([`fusion_exec::verify_replay_parity`]), and every answer and
//! completeness tag is byte-compared against an isolated cold
//! execution of the same query — sharing changes costs, never answers.
//!
//! The emitted `BENCH_e22.json` separates **deterministic** fields
//! (single-worker runs admit one query at a time, so sharing cannot
//! engage and the merged and baseline costs must be *equal*) from the
//! thread-timing dependent multi-worker rows, where which queries
//! co-admit — and therefore how much is shared — depends on the
//! interleaving. Every row is still parity-checked against its own
//! log.

use crate::exp::server_exp::{run_isolated_cold, to_tenant_events, ServerRow};
use crate::json::{write_artifact, Json};
use crate::table::{fmt3, fmtx, Table};
use fusion_core::{sja_optimal, NetworkCostModel};
use fusion_exec::{
    execute_plan, replay_serial, serve, verify_replay_parity, OpKind, ServerConfig, TenantEvent,
};
use fusion_workload::session::{generate_session_for_tenant, SessionSpec};
use fusion_workload::synth::{synth_scenario, SynthSpec};
use fusion_workload::Scenario;

/// Cache byte budget of the concurrent runs.
const BUDGET: usize = 1 << 22;

/// Seconds of wall clock per simulated cost unit — larger than E21's
/// pace so co-admissions overlap robustly and sharing has windows to
/// engage in.
const PACE: f64 = 5e-5;

/// One measured server configuration.
#[derive(Debug, Clone, Copy)]
pub struct MqoRow {
    /// Worker threads.
    pub workers: usize,
    /// Cross-query sharing on?
    pub share: bool,
    /// Completed queries.
    pub completed: usize,
    /// Total executed cost over completed queries.
    pub cost: f64,
    /// Selections that rode another in-flight query's merged fetch.
    pub shared: usize,
    /// Of `shared`, served through a residual filter.
    pub shared_residual: usize,
    /// Selections served warm from the committed cache.
    pub served: usize,
    /// Replay parity and isolated-answer parity both verified (always
    /// true when the row exists; the run panics otherwise).
    pub parity: bool,
}

/// The scenario E22 serves: five synthetic sources, mid-sized.
fn mqo_scenario(seed: u64) -> Scenario {
    let spec = SynthSpec {
        n_sources: 5,
        domain_size: 1_000,
        rows_per_source: 400,
        seed,
        ..SynthSpec::default_with(5, seed)
    };
    synth_scenario(&spec, &[0.2, 0.2])
}

/// Tenant streams drawn from a *small* shared pool (heavy duplication
/// across tenants — the workload multi-query sharing exists for).
pub fn duplicate_streams(n_tenants: usize, n_queries: usize, seed: u64) -> Vec<Vec<TenantEvent>> {
    let spec = SessionSpec {
        m: 2,
        n_sources: 5,
        pool: 3,
        n_queries,
        skew: 1.3,
        update_rate: 0.05,
        sel_range: (0.05, 0.4),
        seed: seed ^ 0x30_5EED,
    };
    (0..n_tenants)
        .map(|t| to_tenant_events(&generate_session_for_tenant(&spec, t as u64).events))
        .collect()
}

/// Runs one configuration, proves replay parity, and byte-compares
/// every answer and completeness tag against an isolated cold run of
/// the same query — the dynamic half of the merge certificate.
pub fn run_mqo(
    scenario: &Scenario,
    tenants: &[Vec<TenantEvent>],
    workers: usize,
    share: bool,
    pace: f64,
) -> MqoRow {
    let config = ServerConfig {
        cache_budget: BUDGET,
        pace: Some(pace),
        per_source_limit: 2,
        share,
        ..ServerConfig::with_workers(workers)
    };
    let netf = || scenario.network();
    let report = serve(
        &scenario.sources,
        &netf,
        Some(scenario.domain_size),
        tenants,
        &config,
    )
    .expect("server run");
    let (replayed, fp) = replay_serial(
        &scenario.sources,
        &netf,
        Some(scenario.domain_size),
        tenants,
        &config,
        &report.log,
    )
    .expect("serial replay");
    verify_replay_parity(&report, &replayed, &fp).expect("replay parity");
    for r in &report.results {
        let TenantEvent::Query(q) = &tenants[r.tenant][r.index] else {
            panic!("result for a non-query event");
        };
        let model = NetworkCostModel::new(
            &scenario.sources,
            &scenario.network(),
            q,
            Some(scenario.domain_size),
        );
        let mut net = scenario.network();
        let iso = execute_plan(&sja_optimal(&model).plan, q, &scenario.sources, &mut net)
            .expect("isolated run");
        assert_eq!(
            r.outcome.answer, iso.answer,
            "merged answer diverged from isolated for tenant {} event {}",
            r.tenant, r.index
        );
        assert_eq!(
            r.outcome.completeness, iso.completeness,
            "completeness diverged for tenant {} event {}",
            r.tenant, r.index
        );
        let shares = report
            .log
            .iter()
            .find_map(|op| match &op.kind {
                OpKind::Admit { shares, .. } if op.ticket == r.ticket => Some(shares),
                _ => None,
            })
            .expect("every result has a logged admission");
        assert_eq!(
            shares.len(),
            r.shared,
            "shares logged for ticket {}",
            r.ticket
        );
        let residual = shares.iter().filter(|s| s.residual).count();
        assert_eq!(residual, r.shared_residual, "residual shares logged");
    }
    MqoRow {
        workers,
        share,
        completed: report.results.len(),
        cost: report.total_cost().value(),
        shared: report.results.iter().map(|r| r.shared).sum(),
        shared_residual: report.results.iter().map(|r| r.shared_residual).sum(),
        served: report.results.iter().map(|r| r.served).sum(),
        parity: true,
    }
}

fn row_json(r: &MqoRow) -> Json {
    Json::obj([
        (
            "config",
            Json::Str(if r.share { "merged" } else { "first-fetches" }.into()),
        ),
        ("workers", Json::Int(r.workers as i64)),
        ("completed", Json::Int(r.completed as i64)),
        ("total_cost", Json::Num(r.cost)),
        ("shared", Json::Int(r.shared as i64)),
        ("shared_residual", Json::Int(r.shared_residual as i64)),
        ("served_warm", Json::Int(r.served as i64)),
        ("parity", Json::Bool(r.parity)),
    ])
}

fn artifact(cold: &ServerRow, rows: &[MqoRow]) -> Json {
    let one_worker: Vec<Json> = rows
        .iter()
        .filter(|r| r.workers == 1)
        .map(row_json)
        .collect();
    Json::obj([
        ("experiment", Json::Str("e22-mqo".into())),
        ("cache_budget_bytes", Json::Int(BUDGET as i64)),
        ("pace_s_per_cost", Json::Num(PACE)),
        (
            "deterministic",
            Json::obj([
                ("isolated_cold_cost", Json::Num(cold.cost)),
                ("isolated_cold_completed", Json::Int(cold.completed as i64)),
                ("one_worker_rows", Json::Arr(one_worker)),
            ]),
        ),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
    ])
}

/// The E22 sweep: the isolated-cold baseline, then the
/// first-fetches/rest-hit baseline against the merged execution at
/// every worker count.
pub fn sweep(
    n_tenants: usize,
    n_queries: usize,
    worker_counts: &[usize],
    pace: f64,
) -> (ServerRow, Vec<MqoRow>) {
    let scenario = mqo_scenario(43);
    let tenants = duplicate_streams(n_tenants, n_queries, 43);
    let cold = run_isolated_cold(&scenario, &tenants);
    let mut rows = Vec::new();
    for &w in worker_counts {
        rows.push(run_mqo(&scenario, &tenants, w, false, pace));
        rows.push(run_mqo(&scenario, &tenants, w, true, pace));
    }
    (cold, rows)
}

/// E22: multi-query sharing — merged fetches vs first-fetches/rest-hit
/// vs isolated cold. Also emits `BENCH_e22.json`.
pub fn e22_mqo() {
    let (cold, rows) = sweep(4, 10, &[1, 2, 4, 8], PACE);
    let mut t = Table::new(
        "E22: multi-query sharing — merged fetches vs first-fetches/rest-hit".to_string(),
        &[
            "config", "workers", "done", "cost", "shared", "residual", "warm", "vs cold",
        ],
    );
    t.row(vec![
        "isolated-cold".to_string(),
        "1×N".to_string(),
        cold.completed.to_string(),
        fmt3(cold.cost),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        fmtx(1.0),
    ]);
    for r in &rows {
        t.row(vec![
            if r.share { "merged" } else { "first-fetches" }.to_string(),
            r.workers.to_string(),
            r.completed.to_string(),
            fmt3(r.cost),
            r.shared.to_string(),
            r.shared_residual.to_string(),
            r.served.to_string(),
            fmtx(cold.cost / r.cost.max(f64::MIN_POSITIVE)),
        ]);
    }
    t.print();
    println!(
        "every row replayed bit-for-bit from its admission log and byte-compared \
         against isolated cold runs of each query"
    );
    let path = write_artifact("BENCH_e22.json", &artifact(&cold, &rows)).expect("write BENCH_e22");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: with co-admitted duplicates in
    /// flight, merged execution finishes at strictly lower total
    /// simulated cost than the first-fetches/rest-hit baseline at
    /// every multi-worker count — and the savings come from proved
    /// sharing, not from answering differently (every row in `run_mqo`
    /// is parity-checked against its replay and against isolated cold
    /// runs before it is returned).
    #[test]
    fn merged_beats_first_fetches_rest_hit() {
        let scenario = mqo_scenario(43);
        let tenants = duplicate_streams(3, 6, 43);
        // A long pace so co-admission windows dwarf admission jitter:
        // duplicates reliably overlap at >= 2 workers.
        let pace = 1e-3;
        for workers in [2, 4] {
            let baseline = run_mqo(&scenario, &tenants, workers, false, pace);
            let merged = run_mqo(&scenario, &tenants, workers, true, pace);
            assert_eq!(baseline.completed, merged.completed);
            assert_eq!(baseline.shared, 0, "sharing engaged while disabled");
            assert!(
                merged.shared > 0,
                "{workers} workers: no co-admitted selection ever attached"
            );
            assert!(
                merged.cost < baseline.cost,
                "{workers} workers: merged {} did not beat first-fetches {}",
                merged.cost,
                baseline.cost
            );
        }
    }

    /// With one worker there is never a co-admission, so sharing
    /// cannot engage and the merged run must cost *exactly* what the
    /// baseline costs — the deterministic anchor of `BENCH_e22.json`.
    #[test]
    fn single_worker_merged_equals_baseline() {
        let scenario = mqo_scenario(43);
        let tenants = duplicate_streams(2, 4, 43);
        let baseline = run_mqo(&scenario, &tenants, 1, false, 1e-5);
        let merged = run_mqo(&scenario, &tenants, 1, true, 1e-5);
        assert_eq!(merged.shared, 0);
        assert_eq!(merged.completed, baseline.completed);
        assert!((merged.cost - baseline.cost).abs() < 1e-9);
    }
}
