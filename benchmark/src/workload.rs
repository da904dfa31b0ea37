//! The four workloads and how their inputs are made from a seed.
//!
//! The seed chooses the data and every condition threshold (so every SQL
//! text and every answer). It does *not* choose the workload's profile:
//! how many conditions the query at each popularity rank has, roughly how
//! selective each is, how often and in which order the ranks are asked,
//! and when which source is updated. The driver compares runs on
//! different seeds, so two seeds must ask for the same amount of each kind
//! of work; with a free profile they did not (README, "What the seed
//! chooses").

use fusion::core::FusionQuery;
use fusion::net::{LinkProfile, Network};
use fusion::parse_fusion_query;
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
use fusion::stats::SplitMix64;
use fusion::types::{ItemSet, Relation, SourceId};
use fusion::workload::synth::{
    synth_relations, synth_schema, CapabilityMix, SynthSpec, ATTR_RANGE,
};
use fusion::workload::Scenario;

use crate::sqlgen::{self, Cond};

/// Which front door a workload enters through, and the load it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One client, closed loop, SQL text to answer.
    Single {
        /// Queries in the fixed stream one pass replays.
        stream_len: usize,
    },
    /// `serve` over per-tenant event streams.
    Serve {
        tenants: usize,
        /// Query events per tenant and batch (updates come on top).
        per_tenant: usize,
        /// Update events per query event.
        update_rate: f64,
        cache_budget: usize,
        /// Offered load of the open-loop phase, queries per second.
        offered: f64,
    },
}

/// What a workload was chosen for, as a threshold on something the run
/// observes. Printed as a `premise_ok` flag and enforced by `agree` only:
/// a later optimisation that legitimately shrinks a layer's share must
/// not be failed by a harness it may not edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Premise {
    /// Proof plus optimizer search take at least this share of a query.
    ControlShareAtLeast(f64),
    /// ... at most this share.
    ControlShareAtMost(f64),
    /// The 1-worker batch's cache hit rate is at least this.
    HitRateAtLeast(f64),
    /// ... at most this.
    HitRateAtMost(f64),
}

impl Premise {
    pub fn what(self) -> &'static str {
        match self {
            Premise::ControlShareAtLeast(_) => "proof_plus_search_share_at_least",
            Premise::ControlShareAtMost(_) => "proof_plus_search_share_at_most",
            Premise::HitRateAtLeast(_) => "cache_hit_rate_at_least",
            Premise::HitRateAtMost(_) => "cache_hit_rate_at_most",
        }
    }

    pub fn holds(self, observed: f64) -> bool {
        match self {
            Premise::ControlShareAtLeast(x) | Premise::HitRateAtLeast(x) => observed >= x,
            Premise::ControlShareAtMost(x) | Premise::HitRateAtMost(x) => observed <= x,
        }
    }
}

/// One workload's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub n_sources: usize,
    pub rows_per_source: usize,
    pub domain_size: usize,
    /// Sources cycle through all four link profiles; otherwise all WAN
    /// (E21's scenario).
    pub mixed_links: bool,
    /// Distinct queries.
    pub pool: usize,
    /// Conditions of the query at popularity rank `k`: `m_cycle[k % len]`.
    pub m_cycle: &'static [usize],
    pub sel_range: (f64, f64),
    /// Zipf exponent of the popularity distribution over ranks.
    pub zipf: f64,
    pub kind: Kind,
    pub premise: Premise,
}

/// The scoreboard's workloads. Names are final.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "single-wide",
        why:
            "Many conditions over small sources: optimizer search and the soundness proof do \
              most of the work, the data plane little; plans repeat, so a plan or proof memo shows.",
        n_sources: 8,
        rows_per_source: 400,
        domain_size: 2_000,
        mixed_links: true,
        pool: 48,
        // 2:2:1 over the pool. By stream share m=4 is ~35 %, m=5 ~49 %,
        // m=6 ~17 %, so p50 lies inside the m=5 class and p90 inside m=6.
        m_cycle: &[5, 4, 6, 5, 4],
        sel_range: (0.02, 0.45),
        zipf: 1.0,
        kind: Kind::Single { stream_len: 200 },
        premise: Premise::ControlShareAtLeast(0.6),
    },
    Spec {
        name: "single-bulk",
        why: "Few conditions over large sources: wrapper scans and ItemSet/Relation algebra do \
              nearly all the work, proof and search almost none; bypasses every control-plane \
              optimisation.",
        n_sources: 8,
        rows_per_source: 4_000,
        domain_size: 20_000,
        mixed_links: true,
        pool: 24,
        m_cycle: &[2, 3],
        sel_range: (0.02, 0.45),
        zipf: 1.0,
        kind: Kind::Single { stream_len: 100 },
        premise: Premise::ControlShareAtMost(0.05),
    },
    Spec {
        name: "serve-warm",
        why: "Server over a shared cache that holds the working set (4 MiB budget): over 90 % \
              hits, so admission, scheduler and log certificates do the work, sources almost \
              none.",
        n_sources: 5,
        rows_per_source: 400,
        domain_size: 1_000,
        mixed_links: false,
        pool: 8,
        m_cycle: &[2],
        sel_range: (0.02, 0.45),
        zipf: 1.2,
        kind: Kind::Serve {
            tenants: 4,
            per_tenant: 50,
            update_rate: 0.02,
            cache_budget: 4 << 20,
            offered: 400.0,
        },
        premise: Premise::HitRateAtLeast(0.9),
    },
    Spec {
        name: "serve-churn",
        why: "Same server, working set far above a 64 KiB cache and frequent updates: misses, \
              commits, evictions, epoch bumps and share attaches do the work; a gain for hits \
              that taxes inserts shows here.",
        n_sources: 5,
        rows_per_source: 400,
        domain_size: 1_000,
        mixed_links: false,
        pool: 64,
        m_cycle: &[2],
        sel_range: (0.02, 0.45),
        zipf: 0.6,
        kind: Kind::Serve {
            tenants: 4,
            per_tenant: 50,
            update_rate: 0.3,
            cache_budget: 64 << 10,
            offered: 300.0,
        },
        premise: Premise::HitRateAtMost(0.5),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One distinct query of a workload's pool.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub conds: Vec<Cond>,
    pub sql: String,
    /// `sql` parsed: what `serve` is handed, and what ground truth is
    /// computed from.
    pub query: FusionQuery,
}

/// One event of a stream: a pool index, or a source to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    Query(usize),
    Update(SourceId),
}

/// Everything one process measures over.
pub struct Inputs {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Relations, plain wrappers and links; its own query is unused.
    pub scenario: Scenario,
    pub pool: Vec<PoolQuery>,
    /// Ground truth per pool query (`FusionQuery::naive_answer`).
    pub truth: Vec<ItemSet>,
    /// `Single`: one stream. `Serve`: one per tenant (one batch).
    pub streams: Vec<Vec<Event>>,
}

// Distinct generator streams per purpose, so that changing one workload
// parameter does not reshuffle everything else drawn from the seed.
const SALT_POOL: u64 = 0x706f_6f6c;
const SALT_STREAM: u64 = 0x7374_7265_616d;
const SALT_JITTER: u64 = 0x6a69_7474_6572;

fn rng(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seed of the pool's selectivity profile: a property of the workload,
/// like the number of conditions per rank, not of a run.
const PROFILE_SEED: u64 = 41;
/// How far (in selectivity) a run's seed moves a threshold off the profile:
/// enough that no two seeds share a SQL text, too little to change which
/// plan the optimizer picks for most queries.
const THRESHOLD_JITTER: f64 = 0.002;

/// The pool: rank `k` has `m_cycle[k % len]` conditions, condition `i` on
/// attribute `A{i+1}` (mutually independent, as in `synth_query`). Its
/// selectivity comes from the workload's fixed profile — drawn once from
/// the workload's range — moved by a seeded jitter. No two queries are
/// equal.
pub fn build_pool(spec: &Spec, seed: u64) -> Vec<PoolQuery> {
    let schema = synth_schema();
    let mut profile = rng(PROFILE_SEED, SALT_POOL);
    let mut jitter = rng(seed, SALT_JITTER);
    let (lo, hi) = spec.sel_range;
    let mut pool: Vec<PoolQuery> = Vec::with_capacity(spec.pool);
    while pool.len() < spec.pool {
        let m = spec.m_cycle[pool.len() % spec.m_cycle.len()];
        let conds: Vec<Cond> = (0..m)
            .map(|i| {
                let sel = profile.next_f64_range(lo, hi)
                    + jitter.next_f64_range(-THRESHOLD_JITTER, THRESHOLD_JITTER);
                Cond {
                    attr_no: i + 1,
                    threshold: (sel * ATTR_RANGE as f64).round() as i64,
                }
            })
            .collect();
        if pool.iter().any(|q| q.conds == conds) {
            continue;
        }
        let sql = sqlgen::render(&conds);
        let query = parse_fusion_query(&sql, &schema).expect("generated SQL is fusion-shaped");
        pool.push(PoolQuery { conds, sql, query });
    }
    pool
}

/// How often each rank is asked in a stream of `total` queries: Zipf
/// weights `1/(k+1)^s` rounded by largest remainder, so the counts are
/// the same for every seed and every rank appears when `total` allows.
pub fn zipf_counts(pool: usize, skew: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..pool)
        .map(|k| 1.0 / ((k + 1) as f64).powf(skew))
        .collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .partial_cmp(&(exact[a] - exact[a].floor()))
            .expect("remainders are finite")
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// The ranks expanded to their counts, in seeded random order.
fn shuffled_queries(counts: &[usize], rng: &mut SplitMix64) -> Vec<Event> {
    let mut events: Vec<Event> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(Event::Query(k), c))
        .collect();
    for i in (1..events.len()).rev() {
        events.swap(i, rng.next_below(i + 1));
    }
    events
}

/// The streams: which rank is asked when, and which source is updated
/// when. Part of the workload's profile, like the pool's selectivities: on
/// `serve-*` the simulated cost and the hit rate depend on where the few
/// updates fall among the queries, which moved them by 14 % between seeds.
fn build_streams(spec: &Spec) -> Vec<Vec<Event>> {
    let mut rng = rng(PROFILE_SEED, SALT_STREAM);
    match spec.kind {
        Kind::Single { stream_len } => {
            let counts = zipf_counts(spec.pool, spec.zipf, stream_len);
            vec![shuffled_queries(&counts, &mut rng)]
        }
        Kind::Serve {
            tenants,
            per_tenant,
            update_rate,
            ..
        } => {
            // The counts are the batch's: dealt out to the tenants, so a
            // pool larger than one tenant's stream is still asked in full.
            let counts = zipf_counts(spec.pool, spec.zipf, tenants * per_tenant);
            let batch = shuffled_queries(&counts, &mut rng);
            let updates = (update_rate * per_tenant as f64).round() as usize;
            batch
                .chunks(per_tenant)
                .map(|queries| {
                    let mut events = queries.to_vec();
                    for _ in 0..updates {
                        let at = rng.next_below(events.len() + 1);
                        let source = SourceId(rng.next_below(spec.n_sources));
                        events.insert(at, Event::Update(source));
                    }
                    events
                })
                .collect()
        }
    }
}

/// Generates a workload's inputs. Everything the timed phases touch is
/// built here and counted as set-up time.
pub fn build(spec: &'static Spec, seed: u64) -> Inputs {
    let synth = SynthSpec {
        n_sources: spec.n_sources,
        domain_size: spec.domain_size,
        rows_per_source: spec.rows_per_source,
        seed,
        capability_mix: CapabilityMix::AllFull,
        link: None,
        processing: ProcessingProfile::indexed_db(),
    };
    let relations = synth_relations(&synth);
    let profiles = LinkProfile::all();
    let links = (0..spec.n_sources)
        .map(|j| {
            if spec.mixed_links {
                profiles[j % profiles.len()].link()
            } else {
                LinkProfile::Wan.link()
            }
        })
        .collect();
    let pool = build_pool(spec, seed);
    let truth = pool
        .iter()
        .map(|q| {
            q.query
                .naive_answer(&relations)
                .expect("synthetic conditions evaluate")
        })
        .collect();
    let sources = SourceSet::new(
        wrappers(&relations, seed)
            .into_iter()
            .map(|w| Box::new(w) as Box<dyn Wrapper>)
            .collect(),
    );
    let scenario = Scenario::new(
        format!("{}-seed{seed}", spec.name),
        pool[0].query.clone(),
        relations,
        sources,
        Network::new(links),
    );
    Inputs {
        spec,
        seed,
        scenario,
        pool,
        truth,
        streams: build_streams(spec),
    }
}

/// The plain wrappers over `relations`: fully capable, indexed, statistics
/// seeded as `synth_scenario` seeds them. The timed and the traced
/// `SourceSet` are both made from these, so they cannot differ.
pub fn wrappers(relations: &[Relation], seed: u64) -> Vec<InMemoryWrapper> {
    relations
        .iter()
        .enumerate()
        .map(|(j, r)| {
            InMemoryWrapper::new(
                format!("S{}", j + 1),
                r.clone(),
                Capabilities::full(),
                ProcessingProfile::indexed_db(),
                seed.wrapping_add(j as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_and_do_not_depend_on_a_seed() {
        for spec in &WORKLOADS {
            let total = match spec.kind {
                Kind::Single { stream_len } => stream_len,
                Kind::Serve {
                    tenants,
                    per_tenant,
                    ..
                } => tenants * per_tenant,
            };
            let counts = zipf_counts(spec.pool, spec.zipf, total);
            assert_eq!(counts.iter().sum::<usize>(), total);
            assert!(counts.iter().all(|&c| c >= 1), "{}: {counts:?}", spec.name);
            assert!(counts.windows(2).all(|w| w[0] + 1 >= w[1]));
        }
        assert_eq!(zipf_counts(3, 0.0, 10), vec![4, 3, 3]);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = find("serve-churn").unwrap();
        let texts =
            |seed| -> Vec<String> { build_pool(spec, seed).into_iter().map(|q| q.sql).collect() };
        assert_eq!(texts(41), texts(41));
        assert_ne!(texts(41), texts(97));
        assert_eq!(build_streams(spec), build_streams(spec));
    }

    #[test]
    fn streams_have_the_fixed_shape() {
        for spec in &WORKLOADS {
            let streams = build_streams(spec);
            match spec.kind {
                Kind::Single { stream_len } => {
                    assert_eq!(streams.len(), 1);
                    assert_eq!(streams[0].len(), stream_len);
                }
                Kind::Serve {
                    tenants,
                    per_tenant,
                    update_rate,
                    ..
                } => {
                    assert_eq!(streams.len(), tenants);
                    let updates = (update_rate * per_tenant as f64).round() as usize;
                    for s in &streams {
                        assert_eq!(s.len(), per_tenant + updates);
                        let n_updates = s.iter().filter(|e| matches!(e, Event::Update(_))).count();
                        assert_eq!(n_updates, updates);
                    }
                    // Tenants share the pool, not the order.
                    assert_ne!(streams[0], streams[1]);
                }
            }
        }
    }

    #[test]
    fn pool_follows_the_m_cycle_and_is_distinct() {
        let spec = find("single-wide").unwrap();
        let pool = build_pool(spec, 41);
        assert_eq!(pool.len(), 48);
        for (k, q) in pool.iter().enumerate() {
            assert_eq!(q.conds.len(), spec.m_cycle[k % 5]);
            assert_eq!(q.query.m(), q.conds.len());
            let (lo, hi) = spec.sel_range;
            for c in &q.conds {
                let sel = c.threshold as f64 / ATTR_RANGE as f64;
                assert!(sel >= lo - 0.0021 && sel <= hi + 0.0021);
            }
        }
        let mut texts: Vec<&str> = pool.iter().map(|q| q.sql.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 48);
    }
}
