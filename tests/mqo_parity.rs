//! Merged-vs-isolated parity battery for cross-query fetch sharing.
//!
//! The sharing analyzer merges provably equivalent (and contained)
//! selections of co-admitted queries into one fetch with fan-out. The
//! claim its certificate makes is *byte-invisibility*: sharing changes
//! costs, never answers. This battery discharges the claim dynamically
//! over seeded Zipf workloads: every merged server run must replay
//! bit-for-bit from its admission log, and every query must answer and
//! complete exactly like an isolated cold run of the same query —
//! fresh network, no cache, no co-tenants — at several worker counts.
//! The server cells are the lattice's (`common::lattice`); the width is
//! `width("mqo")`.

mod common;

use common::lattice::{serve_cells, streams, world, World};
use common::width;
use fusion::exec::{ServerConfig, TenantEvent};
use fusion::workload::SessionSpec;

/// Three tenants drawing from one small shared pool: heavy overlap, so
/// co-admissions routinely carry equivalent and contained selections.
fn tenant_streams(seed: u64) -> Vec<Vec<TenantEvent>> {
    let spec = SessionSpec {
        m: 2,
        n_sources: 4,
        pool: 3,
        n_queries: 4,
        skew: 1.2,
        update_rate: 0.1,
        sel_range: (0.05, 0.4),
        seed: 0,
    };
    let seed = seed ^ 0x3A7E;
    streams(&spec, &[(seed, 0), (seed, 1), (seed, 2)])
}

fn paced(pace: f64) -> ServerConfig {
    ServerConfig {
        pace: Some(pace),
        cache_budget: 1 << 22,
        ..ServerConfig::default()
    }
}

/// The battery: at every worker count, a share-on paced server run
/// replays bit-for-bit and answers byte-identically to isolated cold
/// runs of each query.
#[test]
fn merged_runs_match_isolated_runs_at_every_worker_count() {
    for seed in 0..width("mqo") {
        let scenario = world(World::Served(4, 200), 2200 + seed);
        let tenants = tenant_streams(seed);
        serve_cells(&scenario, &tenants, &paced(0.002), &[1, 2, 4]);
    }
}

/// Sharing actually engages on overlapping streams — the battery above
/// is not vacuously checking runs in which nothing was ever merged —
/// and the attaches stay byte-invisible and log-reproducible.
#[test]
fn sharing_engages_on_duplicate_streams_and_replays() {
    let scenario = world(World::Served(4, 200), 7_777);
    let first = tenant_streams(0)[0][0].clone();
    let tenants = vec![vec![first]; 3];
    let report = serve_cells(&scenario, &tenants, &paced(0.01), &[3]).remove(0);
    let shared: usize = report.results.iter().map(|r| r.shared).sum();
    assert!(shared > 0, "no co-admitted duplicate attached");
}

/// With sharing off, the same duplicate streams fall back to
/// first-fetches/rest-hit: nothing ever attaches, and the run still
/// replays and matches isolation — the baseline the E22 experiment
/// compares against is itself sound.
#[test]
fn share_off_baseline_never_attaches_and_stays_correct() {
    let scenario = world(World::Served(4, 200), 7_777);
    let config = ServerConfig {
        share: false,
        ..paced(0.002)
    };
    serve_cells(&scenario, &tenant_streams(5), &config, &[3]);
}
