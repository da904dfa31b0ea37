//! Multi-query session workloads with skewed condition reuse.
//!
//! An answer cache only pays off when queries *repeat* conditions, so the
//! cache experiments need a workload model of a client session: a stream
//! of fusion queries drawn from a fixed pool with Zipf-skewed popularity
//! (a few favorite queries asked over and over, a long tail asked
//! rarely), interleaved with occasional source updates that invalidate
//! cached answers. Like [`crate::synth`], everything is a pure function
//! of the spec — same spec, same session, bit for bit.

use fusion_core::query::FusionQuery;
use fusion_stats::SplitMix64;
use fusion_types::SourceId;

use crate::synth::{synth_query, NUM_ATTRS};

/// Parameters of a session workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Conditions per query (1..=8, one per synthetic attribute).
    pub m: usize,
    /// Sources the scenario has (update events pick among these).
    pub n_sources: usize,
    /// Distinct queries in the pool.
    pub pool: usize,
    /// Query events in the session.
    pub n_queries: usize,
    /// Zipf exponent of the pool's popularity distribution: `0.0` is
    /// uniform, larger is more skewed toward the pool's first queries.
    pub skew: f64,
    /// Probability that a source update precedes a query event.
    pub update_rate: f64,
    /// Selectivity range the pool's conditions are drawn from.
    pub sel_range: (f64, f64),
    /// Master seed.
    pub seed: u64,
}

/// One step of a session.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// The client asks a query from the pool.
    Query {
        /// Index into [`Session::pool`] (for reuse bookkeeping).
        index: usize,
        /// The query itself.
        query: FusionQuery,
    },
    /// A source's data changes: caches must invalidate its entries.
    Update {
        /// The updated source.
        source: SourceId,
    },
}

/// A generated session: the query pool and the event stream.
#[derive(Debug, Clone)]
pub struct Session {
    /// The distinct queries events draw from, in popularity order
    /// (index 0 is the most popular under the Zipf draw).
    pub pool: Vec<FusionQuery>,
    /// The per-query selectivity vectors behind [`Session::pool`]
    /// (`sels[k][i]` is pool query `k`'s condition-`i` selectivity).
    pub sels: Vec<Vec<f64>>,
    /// The event stream, in order.
    pub events: Vec<SessionEvent>,
}

/// Generates the session a spec describes. Deterministic: the stream is
/// a pure function of the spec.
///
/// # Panics
/// Panics if `m` is outside `1..=8`, the pool is empty,
/// `n_sources` is zero with a positive update rate, or the selectivity
/// range is inverted.
pub fn generate_session(spec: &SessionSpec) -> Session {
    generate_session_for_tenant(spec, 0)
}

/// The per-tenant variant of [`generate_session`]: every tenant of a
/// spec shares the **same query pool** (drawn from `spec.seed` alone, so
/// cross-tenant cache sharing is possible), but draws its **own event
/// stream** from a tenant-salted stream — tenant 0 is exactly
/// [`generate_session`]. Tenants that must not overlap at all (isolation
/// tests) should vary `spec.seed` instead.
///
/// # Panics
/// As [`generate_session`].
pub fn generate_session_for_tenant(spec: &SessionSpec, tenant: u64) -> Session {
    assert!(
        (1..=NUM_ATTRS).contains(&spec.m),
        "m must be in 1..={NUM_ATTRS}"
    );
    assert!(spec.pool >= 1, "pool must be non-empty");
    assert!(
        spec.update_rate == 0.0 || spec.n_sources >= 1,
        "updates need at least one source"
    );
    let (lo, hi) = spec.sel_range;
    assert!(lo <= hi, "selectivity range is inverted");
    let mut rng = SplitMix64::new(spec.seed);

    // The pool: `pool` independent selectivity vectors.
    let sels: Vec<Vec<f64>> = (0..spec.pool)
        .map(|_| (0..spec.m).map(|_| rng.next_f64_range(lo, hi)).collect())
        .collect();
    let pool: Vec<FusionQuery> = sels.iter().map(|s| synth_query(s)).collect();

    // Tenant 0 continues the pool's stream (bit-compatible with the
    // original single-tenant generator); other tenants re-seed with a
    // tenant-salted key so their streams are independent draws over the
    // same pool.
    if tenant != 0 {
        rng = SplitMix64::new(spec.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant));
    }

    // Zipf CDF over pool ranks: weight(k) ∝ 1 / (k+1)^skew.
    let weights: Vec<f64> = (0..spec.pool)
        .map(|k| 1.0 / ((k + 1) as f64).powf(spec.skew))
        .collect();
    let total: f64 = weights.iter().sum();

    let mut events = Vec::with_capacity(spec.n_queries);
    for _ in 0..spec.n_queries {
        if spec.update_rate > 0.0 && rng.next_f64() < spec.update_rate {
            let source = SourceId(rng.next_below(spec.n_sources));
            events.push(SessionEvent::Update { source });
        }
        let mut u = rng.next_f64() * total;
        let mut index = spec.pool - 1;
        for (k, w) in weights.iter().enumerate() {
            if u < *w {
                index = k;
                break;
            }
            u -= w;
        }
        events.push(SessionEvent::Query {
            index,
            query: pool[index].clone(),
        });
    }
    Session { pool, sels, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session over `n_sources` sources: 2-condition queries, a pool of
    /// 8, 40 query events, skew 1.2, no updates.
    fn default_with(n_sources: usize, seed: u64) -> SessionSpec {
        SessionSpec {
            m: 2,
            n_sources,
            pool: 8,
            n_queries: 40,
            skew: 1.2,
            update_rate: 0.0,
            sel_range: (0.05, 0.4),
            seed,
        }
    }

    /// The event stream, compactly: pool index for a query event,
    /// `-(source + 1)` for an update event.
    fn fingerprint(session: &Session) -> Vec<i64> {
        session
            .events
            .iter()
            .map(|e| match e {
                SessionEvent::Query { index, .. } => *index as i64,
                SessionEvent::Update { source } => -((source.0 as i64) + 1),
            })
            .collect()
    }

    fn n_updates(session: &Session) -> usize {
        let is_update = |e: &&SessionEvent| matches!(e, SessionEvent::Update { .. });
        session.events.iter().filter(is_update).count()
    }

    fn counts(session: &Session, pool: usize) -> Vec<usize> {
        let mut c = vec![0usize; pool];
        for e in &session.events {
            if let SessionEvent::Query { index, .. } = e {
                c[*index] += 1;
            }
        }
        c
    }

    #[test]
    fn same_seed_same_session() {
        let spec = SessionSpec {
            update_rate: 0.2,
            ..default_with(4, 7)
        };
        let a = generate_session(&spec);
        let b = generate_session(&spec);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.sels, b.sels);
        let other = SessionSpec { seed: 8, ..spec };
        assert_ne!(fingerprint(&generate_session(&other)), fingerprint(&a));
    }

    #[test]
    fn zipf_skew_prefers_low_ranks() {
        let spec = SessionSpec {
            n_queries: 400,
            skew: 1.5,
            ..default_with(4, 3)
        };
        let s = generate_session(&spec);
        let c = counts(&s, spec.pool);
        // Rank 0 dominates the tail decisively at skew 1.5.
        assert!(c[0] > c[spec.pool - 1] * 2, "{c:?}");
        assert_eq!(c.iter().sum::<usize>(), 400);
        assert_eq!(n_updates(&s), 0);
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let spec = SessionSpec {
            n_queries: 800,
            skew: 0.0,
            pool: 4,
            ..default_with(4, 11)
        };
        let c = counts(&generate_session(&spec), 4);
        for &n in &c {
            assert!((120..=280).contains(&n), "{c:?}");
        }
    }

    #[test]
    fn update_rate_injects_updates_in_range() {
        let spec = SessionSpec {
            n_queries: 300,
            update_rate: 0.3,
            ..default_with(5, 13)
        };
        let s = generate_session(&spec);
        let updates = n_updates(&s);
        assert!((40..=150).contains(&updates), "{updates}");
        for e in &s.events {
            if let SessionEvent::Update { source } = e {
                assert!(source.0 < 5);
            }
        }
    }

    #[test]
    fn tenant_zero_matches_single_tenant_generator() {
        let spec = SessionSpec {
            update_rate: 0.2,
            ..default_with(4, 99)
        };
        let single = generate_session(&spec);
        let t0 = generate_session_for_tenant(&spec, 0);
        assert_eq!(fingerprint(&single), fingerprint(&t0));
        assert_eq!(single.sels, t0.sels);
    }

    #[test]
    fn tenants_share_the_pool_but_not_the_stream() {
        let spec = SessionSpec {
            n_queries: 60,
            update_rate: 0.1,
            ..default_with(4, 17)
        };
        let a = generate_session_for_tenant(&spec, 1);
        let b = generate_session_for_tenant(&spec, 2);
        // Same pool, bit for bit: cross-tenant reuse is possible.
        assert_eq!(a.sels, b.sels);
        // Independent event streams.
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // And each tenant is itself deterministic.
        let a2 = generate_session_for_tenant(&spec, 1);
        assert_eq!(fingerprint(&a), fingerprint(&a2));
    }

    #[test]
    fn pool_queries_are_well_formed() {
        let spec = default_with(3, 21);
        let s = generate_session(&spec);
        assert_eq!(s.pool.len(), spec.pool);
        assert_eq!(s.sels.len(), spec.pool);
        for (q, sels) in s.pool.iter().zip(&s.sels) {
            assert_eq!(q.m(), spec.m);
            assert_eq!(sels.len(), spec.m);
            for &sel in sels {
                assert!((0.05..=0.4).contains(&sel));
            }
        }
    }
}
