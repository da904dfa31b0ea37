//! Cross-tenant isolation battery for the multi-tenant mediator server.
//!
//! Many tenants run concurrent Zipf sessions — with interleaved source
//! updates — over one shared answer cache. The shared cache is allowed
//! to *serve* another tenant's fetches (that is the point), but it must
//! never change what a tenant's query *answers*: every answer is
//! byte-compared against an isolated cold run of the same query, and
//! every concurrent run is byte-compared against the serial replay of
//! its own admission log at several worker counts. The server cells are
//! the lattice's (`common::lattice`); the width is `width("isolation")`.

mod common;

use common::lattice::{serve_cells, streams, world, World};
use common::width;
use fusion::exec::{ServerConfig, TenantEvent};
use fusion::workload::SessionSpec;

/// Tenant streams for one battery seed: two tenants share a query pool
/// (cross-tenant cache serving must happen and must stay correct) and a
/// third draws from a fully disjoint pool (no overlap to hide behind).
/// All three interleave update events.
fn tenant_streams(seed: u64) -> Vec<Vec<TenantEvent>> {
    let spec = SessionSpec {
        m: 2,
        n_sources: 5,
        pool: 5,
        n_queries: 6,
        skew: 1.1,
        update_rate: 0.2,
        sel_range: (0.02, 0.45),
        seed: 0,
    };
    let (shared, disjoint) = (seed ^ 0x5E55, seed ^ 0xD15_301A7);
    streams(&spec, &[(shared, 0), (shared, 1), (disjoint, 0)])
}

fn config() -> ServerConfig {
    ServerConfig {
        cache_budget: 1 << 22,
        ..ServerConfig::default()
    }
}

/// The battery: concurrent shared-cache sessions with interleaved
/// updates answer **byte-identically** to isolated runs — cross-tenant
/// cache serving never leaks a stale entry or another tenant's subset —
/// and every run replays bit-for-bit from its admission log at every
/// worker count.
#[test]
fn concurrent_tenants_answer_exactly_like_isolated_sequential_runs() {
    for seed in 0..width("isolation") {
        let scenario = world(World::Served(5, 300), 900 + seed);
        let config = ServerConfig {
            per_source_limit: 2,
            ..config()
        };
        serve_cells(&scenario, &tenant_streams(seed), &config, &[1, 4]);
    }
}

/// Update accounting: every update event bumps its source exactly once
/// (updates are never shed and never lost under concurrency), so the log
/// carries one bump per update event.
#[test]
fn interleaved_updates_are_never_lost() {
    for seed in 0..width("isolation") {
        let scenario = world(World::Served(5, 300), 1700 + seed);
        let tenants = tenant_streams(seed ^ 0xBEEF);
        serve_cells(&scenario, &tenants, &config(), &[4]);
    }
}

/// Tenants with fully disjoint query pools get zero benefit from each
/// other but must also suffer zero interference: the disjoint tenant's
/// answers match isolation even while the two pool-sharing tenants
/// hammer the same cache shards.
#[test]
fn disjoint_pool_tenant_is_unaffected_by_neighbors() {
    let scenario = world(World::Served(5, 300), 4242);
    serve_cells(&scenario, &tenant_streams(4242), &config(), &[4]);
}
