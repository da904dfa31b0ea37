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

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use common::lattice::{serve_cells, streams, world, World};
use common::{width, Hooked};
use fusion::core::query::FusionQuery;
use fusion::exec::{serve, ServerConfig, TenantEvent};
use fusion::net::{LinkProfile, Network};
use fusion::parse_fusion_query;
use fusion::source::{InMemoryWrapper, SourceSet, Wrapper};
use fusion::stats::SplitMix64;
use fusion::types::schema::dmv_schema;
use fusion::types::{Condition, Predicate, Schema, SourceId};
use fusion::workload::{dmv, SessionSpec};

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

/// Seeded tenant streams of SQL text over the synthetic schema: three
/// tenants draw two-condition queries from one small pool, so a run asks
/// exact repeats (some spelled with other whitespace) and near
/// duplicates — one condition changed, or the two swapped — under
/// interleaved updates.
fn sql_streams(seed: u64, schema: &Schema) -> Vec<Vec<TenantEvent>> {
    const CONDS: [&str; 4] = ["A1 < 2000", "A1 < 2500", "A2 < 2000", "A3 < 3000"];
    let mut rng = SplitMix64::new(seed ^ 0x51_4C);
    let mut event = || {
        if rng.next_below(5) == 0 {
            return TenantEvent::Update(SourceId(rng.next_below(5)));
        }
        let first = rng.next_below(CONDS.len());
        let second = (first + rng.next_range(1, CONDS.len())) % CONDS.len();
        let gap = if rng.next_below(2) == 0 { " " } else { "  " };
        let sql = format!(
            "SELECT u1.M FROM U u1, U u2 WHERE u1.M = u2.M AND{gap}u1.{} AND u2.{}",
            CONDS[first], CONDS[second]
        );
        TenantEvent::Query(parse_fusion_query(&sql, schema).expect("pool SQL parses"))
    };
    (0..3).map(|_| (0..8).map(|_| event()).collect()).collect()
}

/// Repeated and near-duplicate queries plan from the server's admission
/// memo: with sharing and between-query re-optimization each on and off,
/// at 1, 2 and 4 workers, every run replays bit for bit from its log
/// (whose certificates `serve` checks), answers like isolated cold runs,
/// and answers the naive evaluation over the raw relations.
#[test]
fn repeated_and_near_duplicate_queries_answer_like_the_naive_evaluation() {
    for seed in 0..width("isolation") {
        let scenario = world(World::Served(5, 300), 2600 + seed);
        let tenants = sql_streams(seed, scenario.query.schema());
        for (share, reopt) in [(true, false), (false, false), (true, true), (false, true)] {
            let config = ServerConfig {
                share,
                reopt,
                ..config()
            };
            for report in serve_cells(&scenario, &tenants, &config, &[1, 2, 4]) {
                for r in &report.results {
                    let TenantEvent::Query(q) = &tenants[r.tenant][r.index] else {
                        panic!("result ({}, {}) names an update", r.tenant, r.index);
                    };
                    let naive = q.naive_answer(&scenario.relations).unwrap();
                    assert_eq!(
                        r.outcome.answer, naive,
                        "seed {seed} share {share} reopt {reopt}"
                    );
                }
            }
        }
    }
}

/// A query that panics inside a worker comes out of `serve` as that
/// panic, at every worker count: the worker fails the scheduler and its
/// fetch slots on the way out, and a source permit held across the
/// panicking fetch is given back — no other worker waits forever on the
/// dead query's tenant, its leader slots or its permit.
#[test]
fn a_panicking_query_propagates_instead_of_hanging() {
    for workers in [1, 2, 4] {
        let (done, watchdog) = channel::<()>();
        let server = std::thread::spawn(move || {
            let cond = |v: &str| Condition::from(Predicate::eq("V", v));
            let boom = cond("boom");
            // Every source panics on every request for `boom`: a wrapper
            // bug the server must surface, not swallow.
            let wrap = |(j, r)| {
                let inner = InMemoryWrapper::fully_capable(format!("R{}", j + 1), r);
                let boom = boom.clone();
                let on_cond = Box::new(move |c: &Condition| assert!(*c != boom, "wrapper bug"));
                Box::new(Hooked {
                    inner,
                    on_cond,
                    rows: |r| r,
                }) as Box<dyn Wrapper>
            };
            let rels = dmv::figure1_relations().into_iter().enumerate();
            let sources = SourceSet::new(rels.map(wrap).collect());
            let query = |v: &str| {
                let q = FusionQuery::new(dmv_schema(), vec![cond("dui"), cond(v)]);
                TenantEvent::Query(q.expect("a valid query"))
            };
            let fine = || vec![query("sp"), query("sp"), query("sp")];
            let tenants = vec![fine(), vec![query("boom")], fine(), fine()];
            let config = ServerConfig {
                per_source_limit: 1,
                ..ServerConfig::with_workers(workers)
            };
            let net = || Network::uniform(3, LinkProfile::Wan.link());
            let _ = serve(&sources, &net, Some(1000.0), &tenants, &config);
            drop(done);
        });
        // Nothing is sent: the sender drops when `serve` returns or unwinds.
        let waited = watchdog.recv_timeout(Duration::from_secs(30));
        assert_eq!(
            waited,
            Err(RecvTimeoutError::Disconnected),
            "workers {workers}: hung"
        );
        assert!(
            server.join().is_err(),
            "workers {workers}: the panic was swallowed"
        );
    }
}
