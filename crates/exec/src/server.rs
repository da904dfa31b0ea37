//! The multi-tenant mediator server: a worker-pool scheduler
//! interleaving many in-flight fusion queries over one shared answer
//! cache.
//!
//! Everything below `fusion-exec` so far runs one query at a time with
//! an exclusively owned [`AnswerCache`](fusion_cache::AnswerCache).
//! This module is the long-lived counterpart: per-tenant event streams
//! (queries and source updates, typically generated by
//! `fusion-workload::session`) are served by a pool of worker threads
//! against a [`SharedAnswerCache`], with three invariants:
//!
//! 1. **Per-tenant session order.** A tenant's events execute one at a
//!    time, in stream order — a session is an interactive client that
//!    issues its next request when the previous one returns. Different
//!    tenants interleave freely.
//! 2. **Replayable admission order.** Every cache critical section —
//!    admission (snapshot + cache-aware planning + lookup resolution),
//!    commit (deferred insert of fetched answers), and update bump —
//!    draws a global *ticket* while holding its shard locks and logs
//!    the per-shard operation counts it observed. The ticket-sorted log
//!    is certified linearizable as written (`verify_server_log`,
//!    always on, release mode included). Both drivers take one
//!    `ServerCore`'s transitions — `bump`, `admit`, `run`, `commit` —
//!    [`serve`] from worker threads and [`replay_serial`] from the log,
//!    one ticket at a time against a fresh shared cache, re-deciding
//!    every admission's shares and rejecting a log that disagrees:
//!    [`verify_replay_parity`] checks every answer and ledger is
//!    **byte-identical** at any worker count.
//! 3. **Snapshot execution.** A query's cache interaction is resolved
//!    entirely at admission: which plan runs, which selections are
//!    served warm, and which epochs the run saw. Fetches land in the
//!    cache only at commit, and only for sources whose epoch has not
//!    advanced since admission — an update that raced the run withholds
//!    the stale fetch, so no tenant can ever be served data from before
//!    another tenant's update (the cross-tenant isolation battery
//!    asserts this byte-for-byte).
//!
//! A warm plan's set algebra is served by reference: a `Union`,
//! `Intersect` or `Diff` whose inputs are the very cached sets seen
//! before is recalled from the core's memo of derived sets instead of
//! recomputed (DESIGN §13), which no answer or ledger can tell. So is
//! its planning: a run builds one cost model per distinct query and
//! searches, and proves, one plan per (query, cache coverage).
//!
//! Per-source concurrency limits generalize the PR-4 serial queues
//! across queries: at most `per_source_limit` in-flight exchanges per
//! source, so an autonomous source still answers a bounded number of
//! mediator requests at a time. Under paced open-loop overload
//! ([`ServerConfig::offered`]) the scheduler sheds each tenant's own
//! backlog past [`ServerConfig::shed_after`] — a hot tenant loses its
//! overflow without starving the others.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::cached::PendingInsert;
use crate::interp::{check_pace, drive};
use crate::log::{
    server_commuting_pairs, verify_server_log, verify_share_windows, LoggedOp, OpKind,
};
use crate::reopt::harvest_observations;
pub use crate::share::ShareRef;
use crate::share::{ShareCtx, ShareTable};
use crate::step::{DerivedSets, SourceLimits, Supply};
use crate::{ExecutionOutcome, RunOptions, Target};
use fusion_cache::{CacheStats, CachedCostModel, HitKind, Served, SharedAnswerCache};
use fusion_core::cost::{FeedbackCostModel, NetworkCostModel};
use fusion_core::plan::{Plan, Step};
use fusion_core::query::FusionQuery;
use fusion_core::sja_optimal;
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_stats::{CardObservation, ConditionFeedback};
use fusion_types::error::{FusionError, Result};
use fusion_types::{Condition, Cost, ItemSet, SourceId, Tuple};

/// One event of a tenant's session stream, in the server's own
/// vocabulary (converted from `fusion_workload::session::SessionEvent`
/// by callers — `fusion-exec` does not depend on the workload crate).
#[derive(Debug, Clone)]
pub enum TenantEvent {
    /// The tenant asks a fusion query.
    Query(FusionQuery),
    /// The tenant's upstream data changes at `source`: every cached
    /// entry of that source must be invalidated before later queries.
    Update(SourceId),
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Byte budget of the shared cache (split evenly across shards).
    pub cache_budget: usize,
    /// Shards of the shared cache (sources map to `source % n_shards`).
    pub n_shards: usize,
    /// Per-source concurrency limit: maximum in-flight exchanges per
    /// source across all queries (1 = the PR-4 serial queue,
    /// generalized across queries).
    pub per_source_limit: usize,
    /// Wall-clock seconds per simulated cost unit. `Some` makes the
    /// simulated economics physically real (remote steps sleep for
    /// their cost), so measured throughput and latency mean something.
    pub pace: Option<f64>,
    /// Open-loop offered load in queries/second: each tenant's events
    /// arrive on a fixed schedule instead of as fast as workers free
    /// up, and a query's latency counts from its due instant. An event
    /// starts at its due instant when a worker is free: a worker parks
    /// until shortly before it, then yields to the instant, so each
    /// arrival may cost up to 150 µs of one CPU's yielding.
    pub offered: Option<f64>,
    /// Under open-loop overload, a query whose backlog delay exceeds
    /// this is shed instead of run. `None` never sheds.
    pub shed_after: Option<Duration>,
    /// Cross-query fetch sharing: admissions attach cache-miss
    /// selections to provably equivalent (or containing) fetches other
    /// in-flight queries are performing, each attach re-proved inside
    /// its admission. Off, every co-admitted duplicate
    /// fetches for itself (the first-fetches/rest-hit behavior).
    pub share: bool,
    /// Between-query adaptive re-optimization: every committed query's
    /// observed per-exchange cardinalities land in a shared
    /// [`ConditionFeedback`] store (keyed by semantic condition, not
    /// query position), and every later admission plans under the
    /// calibrated estimates. Reads and writes are serialized with the
    /// global ticket order, so [`replay_serial`] reproduces the
    /// feedback-driven plans bit for bit.
    pub reopt: bool,
    /// Phase-two record retrieval: after each committed query, the
    /// cost-based covering planner ([`fusion_core::phase2`]) fetches
    /// the full records of the answer items over the fetch-capable
    /// sources, sequentially and deterministically, so
    /// [`replay_serial`] reproduces the record sets byte for byte.
    pub phase2: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            cache_budget: 1 << 22,
            n_shards: 4,
            per_source_limit: 1,
            pace: None,
            offered: None,
            shed_after: None,
            share: true,
            reopt: false,
            phase2: false,
        }
    }
}

impl ServerConfig {
    /// A default config with `workers` worker threads.
    pub fn with_workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }
}

/// One completed (non-shed) query.
#[derive(Debug)]
pub struct QueryResult {
    /// The tenant that asked it.
    pub tenant: usize,
    /// The event index within the tenant's stream.
    pub index: usize,
    /// The admission ticket (position in the replayable order).
    pub ticket: u64,
    /// Answer, ledger, and completeness — the replay-parity payload.
    pub outcome: ExecutionOutcome,
    /// Selections served from the shared cache (exact + residual).
    pub served: usize,
    /// Of [`QueryResult::served`], exact hits (no filter).
    pub served_exact: usize,
    /// Of [`QueryResult::served`], subsumption hits through a residual
    /// filter — reported separately so sharing and reuse numbers stay
    /// attributable instead of folded into one count.
    pub served_residual: usize,
    /// Selections served from another in-flight query's merged fetch
    /// (exact + residual).
    pub shared: usize,
    /// Of [`QueryResult::shared`], served through a residual filter.
    pub shared_residual: usize,
    /// Arrival-to-completion wall time (service time when closed-loop).
    pub latency: Duration,
    /// Phase-two records fetched for the answer items (`Some` when the
    /// server runs with [`ServerConfig::phase2`]).
    pub fetched: Option<Vec<Tuple>>,
}

/// A query dropped by the admission controller under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedQuery {
    /// The tenant whose query was shed.
    pub tenant: usize,
    /// The event index within the tenant's stream.
    pub index: usize,
}

/// The outcome of one [`serve`] run.
#[derive(Debug)]
pub struct ServerReport {
    /// Completed queries, sorted by `(tenant, index)`.
    pub results: Vec<QueryResult>,
    /// Queries shed under overload, sorted by `(tenant, index)`.
    pub shed: Vec<ShedQuery>,
    /// The replayable operation log, sorted by ticket.
    pub log: Vec<LoggedOp>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Aggregated shared-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Final shared-cache state fingerprint (shard stats + epochs).
    pub cache_fp: String,
    /// Pairs of logged critical sections with disjoint shard
    /// footprints — the concurrency the sharding bought.
    pub commuting_pairs: usize,
}

impl ServerReport {
    /// Total executed cost over all completed queries.
    pub fn total_cost(&self) -> Cost {
        self.results
            .iter()
            .fold(Cost::ZERO, |acc, r| acc + r.outcome.total_cost())
    }

    /// Latency at quantile `q` (0.0–1.0) over completed queries.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        let mut lat: Vec<Duration> = self.results.iter().map(|r| r.latency).collect();
        if lat.is_empty() {
            return Duration::ZERO;
        }
        lat.sort_unstable();
        let idx = ((lat.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        lat[idx]
    }
}

/// A query replayed serially from the admission log.
#[derive(Debug)]
pub struct ReplayedQuery {
    /// The tenant that asked it.
    pub tenant: usize,
    /// The event index within the tenant's stream.
    pub index: usize,
    /// The replayed outcome, to byte-compare against the live run.
    pub outcome: ExecutionOutcome,
    /// The replayed phase-two records (`Some` when the server ran with
    /// [`ServerConfig::phase2`]), to byte-compare against the live run.
    pub fetched: Option<Vec<Tuple>>,
}

// ---------------------------------------------------------------------
// The admission memo
// ---------------------------------------------------------------------

/// Plans the admission memo holds before it starts over. An entry holds
/// a whole plan for the run, so the bound is small: a warm working set
/// is a few dozen (query, coverage) pairs, and a cold one that overflows
/// it would rarely hit anyway.
const ADMISSION_PLANS: usize = 64;

/// A query id and the coverage bits of an admission's snapshot.
type AdmissionKey = (usize, Vec<u64>);

/// A searched plan and whether this run has proved it sound yet: shared
/// by every admission of its (query id, coverage), so the proof is taken
/// by the first run and carried by the rest.
struct Planned {
    plan: Plan,
    /// Stored `Release` once `ensure_sound` has passed, loaded `Acquire`
    /// before a run skips it; two racing first runs both prove.
    proved: AtomicBool,
}

impl Planned {
    fn new(plan: Plan) -> Arc<Planned> {
        Arc::new(Planned {
            plan,
            proved: AtomicBool::new(false),
        })
    }
}

impl Deref for Planned {
    type Target = Plan;

    fn deref(&self) -> &Plan {
        &self.plan
    }
}

/// What admission plans from, remembered for the run (DESIGN §13). A
/// cost model is a function of the query (given the run's sources,
/// `net()` and domain), and the cache-aware plan of the query and the
/// snapshot's coverage bits, so each is built once per distinct input.
struct AdmissionMemo {
    /// `ids[tenant][index]`: the query id of a query event, by query
    /// equality; `None` for an update.
    ids: Vec<Vec<Option<usize>>>,
    /// One cost model per query id, built by its first admission.
    models: Vec<OnceLock<NetworkCostModel>>,
    /// Plans by (query id, coverage bits), at most [`ADMISSION_PLANS`].
    /// Only admissions take the lock, inside `lock_all`, so it is never
    /// contended; poison recovery is sound: the map is only looked up,
    /// inserted into or cleared.
    plans: Mutex<HashMap<AdmissionKey, Arc<Planned>>>,
}

impl AdmissionMemo {
    /// Interns every query event of `tenants` to a dense id.
    fn new<'q>(tenants: &'q [Vec<TenantEvent>]) -> AdmissionMemo {
        let mut seen: HashMap<&'q FusionQuery, usize> = HashMap::new();
        let mut intern = |event: &'q TenantEvent| match event {
            TenantEvent::Query(query) => {
                let next = seen.len();
                Some(*seen.entry(query).or_insert(next))
            }
            TenantEvent::Update(_) => None,
        };
        let ids = tenants
            .iter()
            .map(|stream| stream.iter().map(&mut intern).collect())
            .collect();
        AdmissionMemo {
            ids,
            models: (0..seen.len()).map(|_| OnceLock::new()).collect(),
            plans: Mutex::default(),
        }
    }

    /// The plan kept for `key`, or `search`'s, kept for next time.
    fn plan(&self, key: AdmissionKey, search: impl FnOnce() -> Plan) -> Arc<Planned> {
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(kept) = plans.get(&key) {
            return Arc::clone(kept);
        }
        if plans.len() >= ADMISSION_PLANS {
            plans.clear();
        }
        let planned = Planned::new(search());
        plans.insert(key, Arc::clone(&planned));
        planned
    }
}

// ---------------------------------------------------------------------
// The server core: one run's state and its transitions
// ---------------------------------------------------------------------

/// One server run's state — the sources, the network factory, the
/// tenant streams, the shared cache and the optional feedback store —
/// and the transitions every event takes through it: [`ServerCore::bump`]
/// for an update, [`ServerCore::admit`] → [`ServerCore::run`] →
/// [`ServerCore::commit`] for a query. [`serve`] drives them from worker
/// threads, [`replay_serial`] from a log, so the two halves of the
/// replay-parity contract run the same code.
struct ServerCore<'a> {
    sources: &'a SourceSet,
    net: &'a (dyn Fn() -> Network + Sync),
    domain_size: Option<f64>,
    tenants: &'a [Vec<TenantEvent>],
    cache: SharedAnswerCache,
    /// The between-query feedback store (`reopt` mode). Poison recovery
    /// is sound: every write records one independent cell, so any prefix
    /// of a commit's records is a valid store.
    feedback: Option<Mutex<ConditionFeedback>>,
    /// The set algebra of warm plans, recalled by input identity.
    derived: DerivedSets,
    /// The cost models and plans of earlier admissions.
    memo: AdmissionMemo,
}

/// Everything a query's admission resolved: the plan the cache-aware
/// optimizer chose, the served lookups (projected outside the lock),
/// and the epochs the run saw (the commit-withholding baseline).
struct Admission<'a> {
    tenant: usize,
    index: usize,
    query: &'a FusionQuery,
    ticket: u64,
    plan: Arc<Planned>,
    /// `served[idx]` — step `idx` is a selection served from cache.
    served: Vec<Option<Served>>,
    /// Source epochs at admission, indexed by source.
    epochs: Vec<u64>,
    shard_seqs: Vec<(usize, u64)>,
    /// Share-table resolution: attachments to other queries' in-flight
    /// fetches and slots this query leads. `None` when sharing is off.
    share: Option<ShareCtx>,
}

impl Admission<'_> {
    /// The shares the rule decided — what the admission's log entry holds.
    fn shares(&self) -> &[ShareRef] {
        self.share.as_ref().map_or(&[], |s| &s.refs)
    }
}

/// An executed admission awaiting its commit: the fetches to insert and,
/// in `reopt` mode, the observations to fold into the feedback store.
struct Ran<'a> {
    admission: Admission<'a>,
    pending: Vec<PendingInsert>,
    observed: Vec<(Condition, SourceId, CardObservation)>,
}

impl<'a> ServerCore<'a> {
    /// Validates a run's inputs once for both drivers — the config's
    /// float fields and every update's source — and builds its fresh
    /// cache and feedback store.
    fn new(
        sources: &'a SourceSet,
        net: &'a (dyn Fn() -> Network + Sync),
        domain_size: Option<f64>,
        tenants: &'a [Vec<TenantEvent>],
        config: &ServerConfig,
    ) -> Result<ServerCore<'a>> {
        check_pace(config.pace)?;
        if let Some(rate) = config.offered.filter(|r| !(r.is_finite() && *r > 0.0)) {
            return Err(FusionError::execution(format!(
                "server config: offered must be finite and positive, got {rate}"
            )));
        }
        for (t, stream) in tenants.iter().enumerate() {
            for (i, ev) in stream.iter().enumerate() {
                if let TenantEvent::Update(s) = ev {
                    if s.0 >= sources.len() {
                        return Err(FusionError::execution(format!(
                            "tenant {t} event {i}: update names unknown source R{}",
                            s.0 + 1
                        )));
                    }
                }
            }
        }
        Ok(ServerCore {
            sources,
            net,
            domain_size,
            tenants,
            cache: SharedAnswerCache::new(config.cache_budget, config.n_shards),
            feedback: config.reopt.then(|| Mutex::new(ConditionFeedback::new())),
            derived: DerivedSets::default(),
            memo: AdmissionMemo::new(tenants),
        })
    }

    /// A fresh cost model of `query`: a pure function of the query, given
    /// the run's sources, `net()` and domain.
    fn model(&self, query: &FusionQuery) -> NetworkCostModel {
        NetworkCostModel::new(self.sources, &(self.net)(), query, self.domain_size)
    }

    /// The event `(tenant, index)` names.
    fn event(&self, tenant: usize, index: usize) -> Result<&'a TenantEvent> {
        self.tenants
            .get(tenant)
            .and_then(|s| s.get(index))
            .ok_or_else(|| {
                FusionError::execution(format!(
                    "replay log references unknown event ({tenant}, {index})"
                ))
            })
    }

    /// Applies an update event: bumps its source's epoch under the
    /// source's shard and draws the ticket.
    fn bump(&self, tenant: usize, index: usize) -> Result<LoggedOp> {
        let TenantEvent::Update(source) = self.event(tenant, index)? else {
            return Err(FusionError::execution(format!(
                "replay bump ({tenant}, {index}) is not an update event"
            )));
        };
        let mut guard = self.cache.lock_sources(&[*source]);
        guard.bump_epoch(*source);
        let shard_seqs = guard.shard_seqs();
        let ticket = guard.take_ticket();
        drop(guard);
        Ok(LoggedOp {
            ticket,
            kind: OpKind::Bump {
                tenant,
                index,
                source: *source,
            },
            shard_seqs,
        })
    }

    /// Admits one query: under a full-cache critical section, takes the
    /// coverage snapshot, picks the cache-aware SJA plan, resolves every
    /// selection lookup, draws the ticket, and — with sharing on —
    /// resolves remaining misses against the table of in-flight fetches
    /// through the share rule (every attach re-proved inside the same
    /// critical section). The per-tuple projection of resolved hits
    /// runs *after* the locks are released.
    ///
    /// The cost model is the query id's, built outside the lock by its
    /// first admission, and the plan is the one kept for the query id and
    /// the snapshot's coverage bits, searched only when none is (debug
    /// builds rebuild the model, search again and assert the plan equal).
    ///
    /// With a feedback store (`reopt` mode), planning runs under the
    /// feedback-calibrated model and searches every time: the store is an
    /// input. The read happens inside the full-cache critical section:
    /// admission holds every shard, and each commit's feedback write
    /// happens while holding its ticket draw, so the store a given
    /// admission ticket sees is exactly the harvests of all commits with
    /// smaller tickets — what the serial replay reproduces.
    fn admit(
        &self,
        tenant: usize,
        index: usize,
        shares: Option<&ShareTable>,
    ) -> Result<Admission<'a>> {
        let (TenantEvent::Query(query), Some(id)) =
            (self.event(tenant, index)?, self.memo.ids[tenant][index])
        else {
            return Err(FusionError::execution(format!(
                "replay admit ({tenant}, {index}) is not a query event"
            )));
        };
        let model = self.memo.models[id].get_or_init(|| self.model(query));
        let n = self.sources.len();
        let (ticket, plan, hits, epochs, shard_seqs, share) = {
            let mut guard = self.cache.lock_all();
            let snap = guard.snapshot(query.conditions(), n);
            let projected = self.feedback.as_ref().map(|fb| {
                fb.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .project(query.conditions(), n)
            });
            let search = |model: &NetworkCostModel| {
                let cached = CachedCostModel::new(model, &snap);
                match &projected {
                    Some(projected) => {
                        sja_optimal(&FeedbackCostModel::new(&cached, projected)).plan
                    }
                    None => sja_optimal(&cached).plan,
                }
            };
            let plan = match projected {
                Some(_) => Planned::new(search(model)),
                None => self.memo.plan((id, snap.coverage_bits()), || search(model)),
            };
            debug_assert!(
                plan.plan == search(&self.model(query)),
                "admission memo returned a plan the search does not find:\n{}",
                plan.listing()
            );
            // Each hit beside its step and condition, so projection
            // needs no second look at the plan.
            let mut hits = Vec::new();
            for (idx, step) in plan.steps.iter().enumerate() {
                if let Step::Sq { cond, source, .. } = step {
                    if let Some(hit) = guard.resolve(*source, &query.conditions()[cond.0]) {
                        hits.push((idx, *cond, hit));
                    }
                }
            }
            let epochs: Vec<u64> = (0..n).map(|j| guard.epoch(SourceId(j))).collect();
            let shard_seqs = guard.shard_seqs();
            let ticket = guard.take_ticket();
            let share = match shares {
                Some(table) => {
                    let mut cache_served = vec![false; plan.steps.len()];
                    for &(idx, ..) in &hits {
                        cache_served[idx] = true;
                    }
                    Some(table.admit(ticket, &plan, query.conditions(), &cache_served, &epochs)?)
                }
                None => None,
            };
            (ticket, plan, hits, epochs, shard_seqs, share)
        };
        // Projection and residual filtering happen outside the locks, so
        // concurrent warm hits do not serialize on the cache.
        let mut served = vec![None; plan.steps.len()];
        for (idx, cond, hit) in hits {
            served[idx] = Some(hit.serve(&query.conditions()[cond.0], query.schema())?);
        }
        Ok(Admission {
            tenant,
            index,
            query,
            ticket,
            plan,
            served,
            epochs,
            shard_seqs,
            share,
        })
    }

    /// Executes an admitted plan through [`drive`], in plan order on a
    /// fresh per-query network, with the admission's hits, attaches and
    /// leads, the per-source permits, the pace and the memo of derived sets
    /// supplied to its steps ([`Supply`]). The plan's proof is taken by its
    /// first run and carried by the rest ([`Planned::proved`]). The cache
    /// is not touched: the fetches wait in the returned [`Ran`] for the
    /// commit critical section.
    fn run(
        &self,
        mut admission: Admission<'a>,
        limits: Option<&SourceLimits>,
        pace: Option<f64>,
    ) -> Result<(Ran<'a>, ExecutionOutcome)> {
        let supply = Supply {
            hits: std::mem::take(&mut admission.served),
            share: admission.share.as_ref(),
            limits,
            pace,
            derived: &self.derived,
        };
        let (plan, query) = (&admission.plan, admission.query);
        let (target, net) = (Target::Plan(&plan.plan), &mut (self.net)());
        let (opts, proved, supply) = (RunOptions::default(), &plan.proved, Some(supply));
        let (ran, pending) = drive(target, query, self.sources, net, opts, proved, supply)?;
        let outcome = ran.outcome;
        let observed = match &self.feedback {
            Some(_) => harvest_observations(plan, query.conditions(), &outcome.ledger),
            None => Vec::new(),
        };
        let ran = Ran {
            admission,
            pending,
            observed,
        };
        Ok((ran, outcome))
    }

    /// Commits an executed query's fetches under the shards owning their
    /// sources. An insert is withheld when its source's epoch advanced
    /// since admission — the fetch predates a concurrent update and must
    /// not be served to anyone. The query's share-table entries are
    /// retired inside the same critical section, so every follower that
    /// attached provably holds an admission ticket smaller than this
    /// commit's ticket (the share-window certificate). Returns the log
    /// entry, or `None` when there was nothing to commit (pure-hit query:
    /// no critical section needed — a pure-hit run also fetched nothing,
    /// so it has no feedback to harvest).
    ///
    /// With a feedback store (`reopt` mode), the query's observations are
    /// folded in while the ticket is drawn — the feedback mutex is held
    /// across both the writes and the draw, so concurrent commits on
    /// disjoint shards still serialize their harvests consistently with
    /// the global ticket order.
    fn commit(&self, ran: Ran<'_>, shares: Option<&ShareTable>) -> Option<LoggedOp> {
        let Ran {
            admission,
            mut pending,
            observed,
        } = ran;
        if pending.is_empty() {
            // A query that led a fetch always has a pending insert for it,
            // so there is nothing to retire here — but stay safe against
            // that invariant drifting.
            if let Some(table) = shares {
                table.retire(admission.ticket);
            }
            return None;
        }
        let sources: Vec<SourceId> = pending.iter().map(|p| p.source).collect();
        pending.sort_by_key(|p| p.step);
        let mut guard = self.cache.lock_sources(&sources);
        for p in pending {
            if guard.epoch(p.source) != admission.epochs[p.source.0] {
                continue;
            }
            guard.insert_harvest(p.source, p.cond, p.rows, true, p.refetch);
        }
        if let Some(table) = shares {
            table.retire(admission.ticket);
        }
        let shard_seqs = guard.shard_seqs();
        let feedback = self.feedback.as_ref().map(|m| {
            let mut fb = m.lock().unwrap_or_else(PoisonError::into_inner);
            for (cond, source, o) in &observed {
                fb.record(cond, *source, *o);
            }
            fb
        });
        let ticket = guard.take_ticket();
        drop(feedback);
        Some(LoggedOp {
            ticket,
            kind: OpKind::Commit {
                tenant: admission.tenant,
                index: admission.index,
                admit_ticket: admission.ticket,
            },
            shard_seqs,
        })
    }

    /// Phase-two record retrieval for one committed query, the same for
    /// the live worker and the serial replay so the record sets
    /// byte-compare. The catalog assumes every fetch-capable source
    /// covers the whole answer (the server has no per-source extension
    /// census); runs sequentially on a fresh network so the fetch is a
    /// pure function of the answer.
    fn phase2(&self, query: &FusionQuery, answer: &ItemSet) -> Result<Vec<Tuple>> {
        if answer.is_empty() {
            return Ok(Vec::new());
        }
        let schema = query.schema();
        let fetchable: Vec<bool> = (0..self.sources.len())
            .map(|j| self.sources.get(SourceId(j)).capabilities().record_fetch)
            .collect();
        let catalog = fusion_core::phase2::CoverageCatalog::assume_full(schema, answer, &fetchable);
        let mut network = (self.net)();
        let model = NetworkCostModel::new(self.sources, &network, query, self.domain_size);
        let attrs = fusion_core::phase2::non_merge_attrs(schema);
        let (_, _, outcome) = crate::phase2::fetch_planned(
            answer,
            &attrs,
            &catalog,
            &model,
            schema,
            self.sources,
            &mut network,
            None,
            None,
        )?;
        Ok(outcome.records)
    }

    /// A deterministic fingerprint of the cache's state: per-shard
    /// residency, counters, and applied-op counts, plus every source
    /// epoch.
    fn fingerprint(&self) -> String {
        format!(
            "shards={:?} epochs={:?}",
            self.cache.shard_infos(),
            self.cache.epochs(self.sources.len())
        )
    }
}

// ---------------------------------------------------------------------
// The worker-pool scheduler
// ---------------------------------------------------------------------

struct TenantCursor {
    /// Next event index to run.
    next: usize,
    /// An event of this tenant is currently in flight.
    busy: bool,
}

struct SchedState {
    tenants: Vec<TenantCursor>,
    /// Round-robin start pointer for fair tenant scanning.
    rr: usize,
    shed: Vec<ShedQuery>,
    error: Option<FusionError>,
    /// A worker is yielding, lock dropped, toward an open-loop due
    /// instant ([`Wait::Yield`]); no second worker joins it.
    spinning: bool,
}

/// How long before an open-loop event's due instant a waiting worker
/// stops parking on the condvar and yields instead. On a 2-vCPU KVM
/// guest a timed wait wakes ≈ 85–90 µs late at p50 and ≈ 125–155 µs at
/// p99 (Linux's timer slack plus the guest's wake-up), so a park that
/// ends this early wakes before the instant, and one worker yields the
/// rest of the way.
const YIELD_WINDOW: Duration = Duration::from_micros(150);

/// The wait when nothing is runnable and no event is timed: a finish or
/// an exit wakes the worker first.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// What a worker with nothing runnable does before it rescans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Wait on the condvar, at most this long.
    Park(Duration),
    /// Drop the lock and yield until the scheduler's clock reads this
    /// offset.
    Yield(Duration),
    /// Rescan at once.
    Poll,
}

/// The wait of a worker with nothing runnable whose next event falls
/// due at offset `next_due` (`None`: nothing is timed, as in closed
/// loop) when the clock reads `now`, `someone_spins` telling whether
/// another worker already yields. Far from the instant it parks until
/// [`YIELD_WINDOW`] before it; within the window it yields to the
/// instant, unless another worker does, in which case it parks for the
/// gap.
fn dispatch_wait(now: Duration, next_due: Option<Duration>, someone_spins: bool) -> Wait {
    let Some(due) = next_due else {
        return Wait::Park(IDLE_WAIT);
    };
    match due.checked_sub(now).filter(|gap| !gap.is_zero()) {
        None => Wait::Poll,
        Some(gap) if gap > YIELD_WINDOW => Wait::Park(gap - YIELD_WINDOW),
        Some(gap) if someone_spins => Wait::Park(gap),
        Some(_) => Wait::Yield(due),
    }
}

struct Scheduler<'a> {
    /// Poison recovery is sound: `pick`, `finish` and `fail` write the
    /// state by field stores and pushes with no panicking call between
    /// two writes (the indices they use are checked in the same
    /// section), so a panic under the lock finds the state whole.
    state: Mutex<SchedState>,
    cv: Condvar,
    tenants: &'a [Vec<TenantEvent>],
    config: &'a ServerConfig,
    start: Instant,
}

/// What a worker picked up under the scheduler lock.
enum Picked {
    Query { tenant: usize, index: usize },
    Update { tenant: usize, index: usize },
    Exit,
}

impl<'a> Scheduler<'a> {
    /// A scheduler over `tenants` with nothing picked, its clock started.
    fn new(tenants: &'a [Vec<TenantEvent>], config: &'a ServerConfig) -> Scheduler<'a> {
        let cursor = |_| TenantCursor {
            next: 0,
            busy: false,
        };
        Scheduler {
            state: Mutex::new(SchedState {
                tenants: tenants.iter().map(cursor).collect(),
                rr: 0,
                shed: Vec::new(),
                error: None,
                spinning: false,
            }),
            cv: Condvar::new(),
            tenants,
            config,
            start: Instant::now(),
        }
    }

    /// Arrival offset of a tenant's event under the open-loop schedule
    /// (zero — "already arrived" — in closed-loop mode).
    ///
    /// # Errors
    /// Fails when `offered` puts the event beyond a representable offset.
    fn arrival(&self, tenant: usize, index: usize) -> Result<Duration> {
        let Some(rate) = self.config.offered else {
            return Ok(Duration::ZERO);
        };
        let secs = (index * self.tenants.len() + tenant) as f64 / rate;
        Duration::try_from_secs_f64(secs).map_err(|e| {
            FusionError::execution(format!(
                "server config: offered = {rate} puts tenant {tenant} event {index} at {secs} s: {e}"
            ))
        })
    }

    /// The instant a just-picked query's latency counts from: its due
    /// instant under the open-loop schedule, now in closed loop (where
    /// every event "arrived" at server start, so this is service time).
    fn latency_origin(&self, tenant: usize, index: usize) -> Result<Instant> {
        Ok(match self.config.offered {
            // A picked event's arrival is in the past: the sum is an instant.
            Some(_) => self.start + self.arrival(tenant, index)?,
            None => Instant::now(),
        })
    }

    /// Picks the next runnable event, waiting as [`dispatch_wait`] says
    /// while nothing is runnable: at most one worker at a time yields,
    /// with the lock dropped, toward an open-loop due instant. Shedding
    /// happens here: an overdue query (backlog beyond `shed_after`) is
    /// recorded and skipped.
    fn pick(&self) -> Picked {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.error.is_some() {
                return Picked::Exit;
            }
            let exhausted = state
                .tenants
                .iter()
                .enumerate()
                .all(|(t, c)| c.busy || c.next >= self.tenants[t].len());
            let all_done = state
                .tenants
                .iter()
                .enumerate()
                .all(|(t, c)| !c.busy && c.next >= self.tenants[t].len());
            if all_done {
                self.cv.notify_all();
                return Picked::Exit;
            }
            let now = self.start.elapsed();
            let mut next_arrival: Option<Duration> = None;
            let n = state.tenants.len();
            let rr = state.rr;
            for off in 0..n {
                let t = (rr + off) % n;
                let cur = &state.tenants[t];
                if cur.busy || cur.next >= self.tenants[t].len() {
                    continue;
                }
                let index = cur.next;
                let arr = match self.arrival(t, index) {
                    Ok(arr) => arr,
                    Err(e) => {
                        state.error = Some(e);
                        self.cv.notify_all();
                        return Picked::Exit;
                    }
                };
                if now < arr {
                    next_arrival = Some(next_arrival.map_or(arr, |a: Duration| a.min(arr)));
                    continue;
                }
                let query = matches!(self.tenants[t][index], TenantEvent::Query(_));
                let late = |limit| now.saturating_sub(arr) > limit;
                state.rr = (t + 1) % n;
                if query && self.config.shed_after.is_some_and(late) {
                    // Overloaded: this tenant's backlog is past the
                    // deadline — shed and rescan.
                    state.shed.push(ShedQuery { tenant: t, index });
                    state.tenants[t].next += 1;
                    break;
                }
                state.tenants[t].busy = true;
                return match query {
                    true => Picked::Query { tenant: t, index },
                    false => Picked::Update { tenant: t, index },
                };
            }
            if !exhausted && next_arrival.is_none() {
                // A shed consumed an event; rescan immediately.
                continue;
            }
            state = match dispatch_wait(now, next_arrival, state.spinning) {
                Wait::Poll => state,
                Wait::Park(timeout) => {
                    self.cv
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                Wait::Yield(due) => {
                    debug_assert!(!state.spinning, "a second worker yields");
                    state.spinning = true;
                    drop(state);
                    while self.start.elapsed() < due {
                        std::thread::yield_now();
                    }
                    let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                    state.spinning = false;
                    state
                }
            };
        }
    }

    /// Marks a tenant's in-flight event finished and wakes waiters.
    fn finish(&self, tenant: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.tenants[tenant].busy = false;
        state.tenants[tenant].next += 1;
        drop(state);
        self.cv.notify_all();
    }

    fn fail(&self, err: FusionError) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.error.is_none() {
            state.error = Some(err);
        }
        drop(state);
        self.cv.notify_all();
    }
}

/// A worker's hold on one picked query: [`QueryGuard::fail`] retires
/// the query's admitted ticket (its fetch slots fail, so followers
/// fall back) and fails the scheduler (every worker exits). Dropped
/// while the query unwinds, it fails them itself, so the panic reaches
/// `serve`'s join instead of leaving the tenant busy forever.
struct QueryGuard<'s> {
    sched: &'s Scheduler<'s>,
    table: Option<&'s ShareTable>,
    ticket: Option<u64>,
}

impl QueryGuard<'_> {
    fn fail(&self, err: FusionError) {
        if let (Some(table), Some(ticket)) = (self.table, self.ticket) {
            table.retire(ticket);
        }
        self.sched.fail(err);
    }
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.fail(FusionError::execution("serve: a query panicked"));
        }
    }
}

/// Runs the server over `tenants` (one event stream per tenant) and
/// returns the completed results, the shed set, and the certified
/// replayable operation log. See the module docs for the model.
///
/// `net` builds the per-query [`Network`] (every query runs over its
/// own deterministic network instance, so concurrency never perturbs
/// simulated costs); `domain_size` feeds the optimizer's cost model.
/// `net` must return equal networks on every call: a run builds each
/// distinct query's cost model once, from one call, and every admission
/// of that query plans with it — as [`replay_serial`], on networks of its
/// own, already assumes.
///
/// # Errors
/// Fails on a `config` whose `pace` is not finite and non-negative or
/// whose `offered` is not finite and positive, or under which a step's
/// sleep or an event's arrival offset is not a representable duration;
/// on invalid plans or events (an update naming an unknown source), on
/// execution errors, and when the always-on log certificate rejects the
/// run.
pub fn serve(
    sources: &SourceSet,
    net: &(dyn Fn() -> Network + Sync),
    domain_size: Option<f64>,
    tenants: &[Vec<TenantEvent>],
    config: &ServerConfig,
) -> Result<ServerReport> {
    let core = ServerCore::new(sources, net, domain_size, tenants, config)?;
    serve_core(&core, config)
}

/// [`serve`]'s threaded driver over a built core.
fn serve_core(core: &ServerCore<'_>, config: &ServerConfig) -> Result<ServerReport> {
    let tenants = core.tenants;
    let share_table = config.share.then(ShareTable::new);
    let limits = SourceLimits::new(core.sources.len(), config.per_source_limit);
    let sched = Scheduler::new(tenants, config);
    // One worker loop; each worker collects its own results and log
    // entries, merged and sorted once after the scope.
    let worker = || {
        let mut results: Vec<QueryResult> = Vec::new();
        let mut log: Vec<LoggedOp> = Vec::new();
        loop {
            match sched.pick() {
                Picked::Exit => return (results, log),
                Picked::Update { tenant, index } => match core.bump(tenant, index) {
                    Ok(op) => {
                        log.push(op);
                        sched.finish(tenant);
                    }
                    Err(e) => {
                        sched.fail(e);
                        return (results, log);
                    }
                },
                Picked::Query { tenant, index } => {
                    // Fails this query's fetch slots and the scheduler
                    // if the query errs or panics: no follower may wait
                    // forever on a leader that died, and no worker on a
                    // tenant that stays busy.
                    let mut guard = QueryGuard {
                        sched: &sched,
                        table: share_table.as_ref(),
                        ticket: None,
                    };
                    let run = (|| -> Result<()> {
                        let arrived = sched.latency_origin(tenant, index)?;
                        let admission = core.admit(tenant, index, share_table.as_ref())?;
                        let (ticket, query) = (admission.ticket, admission.query);
                        guard.ticket = Some(ticket);
                        let shares = admission.shares();
                        log.push(LoggedOp {
                            ticket,
                            kind: OpKind::Admit {
                                tenant,
                                index,
                                shares: shares.to_vec(),
                            },
                            shard_seqs: admission.shard_seqs.clone(),
                        });
                        let shared = shares.len();
                        let shared_residual = shares.iter().filter(|r| r.residual).count();
                        let served = admission.served.iter().flatten().count();
                        let served_exact = admission
                            .served
                            .iter()
                            .flatten()
                            .filter(|s| s.kind == HitKind::Exact)
                            .count();
                        let (ran, outcome) = core.run(admission, Some(&limits), config.pace)?;
                        log.extend(core.commit(ran, share_table.as_ref()));
                        let fetched = config.phase2.then(|| core.phase2(query, &outcome.answer));
                        results.push(QueryResult {
                            tenant,
                            index,
                            ticket,
                            outcome,
                            served,
                            served_exact,
                            served_residual: served - served_exact,
                            shared,
                            shared_residual,
                            latency: Instant::now().saturating_duration_since(arrived),
                            fetched: fetched.transpose()?,
                        });
                        Ok(())
                    })();
                    match run {
                        Ok(()) => sched.finish(tenant),
                        Err(e) => {
                            guard.fail(e);
                            return (results, log);
                        }
                    }
                }
            }
        }
    };
    // The last worker runs on the calling thread: a 1-worker server
    // spawns nothing.
    let (mut results, mut log) = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..config.workers.max(1))
            .map(|_| scope.spawn(worker))
            .collect();
        let (mut results, mut log) = worker();
        for handle in spawned {
            match handle.join() {
                Ok((r, l)) => {
                    results.extend(r);
                    log.extend(l);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        (results, log)
    });

    let state = sched
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(err) = state.error {
        return Err(err);
    }
    results.sort_by_key(|r| (r.tenant, r.index));
    let mut shed = state.shed;
    shed.sort_by_key(|s| (s.tenant, s.index));
    log.sort_by_key(|op| op.ticket);
    // The always-on certificates: ticket order must agree with every
    // shard's applied order, or the replay-parity contract is void; and
    // every logged share attaches a follower to a leader admitted
    // strictly before it and still uncommitted at the follower's
    // admission.
    verify_server_log(&log, core.cache.n_shards())?;
    verify_share_windows(&log)?;
    Ok(ServerReport {
        wall: sched.start.elapsed(),
        cache: core.cache.stats(),
        cache_fp: core.fingerprint(),
        commuting_pairs: server_commuting_pairs(&log),
        results,
        shed,
        log,
    })
}

/// Serially replays a [`serve`] run's operation log in ticket order
/// through the same transitions against a fresh shared cache: bumps
/// re-bump, admissions re-admit and re-execute, commits re-commit.
/// Shares are re-decided, not read from the log: each admission goes
/// through the replay's own share table exactly as the live one did (a
/// follower's wait returns at once, its leader having run at its own
/// admission), and a log whose shares differ from the rule's is
/// rejected. Returns the replayed per-query outcomes (sorted by
/// `(tenant, index)`) and the final cache fingerprint — both must match
/// the live run bit for bit ([`verify_replay_parity`]). `net` must return
/// networks equal to the live run's, on every call (see [`serve`]).
///
/// # Errors
/// Fails on inputs [`serve`] rejects, when the log references events
/// that don't exist, commits an admission it has not admitted (or twice),
/// or logs shares the rule does not decide, or when replay execution
/// fails.
pub fn replay_serial(
    sources: &SourceSet,
    net: &(dyn Fn() -> Network + Sync),
    domain_size: Option<f64>,
    tenants: &[Vec<TenantEvent>],
    config: &ServerConfig,
    log: &[LoggedOp],
) -> Result<(Vec<ReplayedQuery>, String)> {
    let core = ServerCore::new(sources, net, domain_size, tenants, config)?;
    replay_core(&core, config, log)
}

/// [`replay_serial`]'s log driver over a built core.
fn replay_core(
    core: &ServerCore<'_>,
    config: &ServerConfig,
    log: &[LoggedOp],
) -> Result<(Vec<ReplayedQuery>, String)> {
    let share_table = config.share.then(ShareTable::new);
    let mut ordered: Vec<&LoggedOp> = log.iter().collect();
    ordered.sort_by_key(|op| op.ticket);
    // Executed admissions awaiting their logged commit, by admission ticket.
    let mut uncommitted: HashMap<u64, Ran<'_>> = HashMap::new();
    let mut out = Vec::new();
    for op in ordered {
        match &op.kind {
            OpKind::Bump { tenant, index, .. } => {
                core.bump(*tenant, *index)?;
            }
            OpKind::Admit {
                tenant,
                index,
                shares,
            } => {
                let admission = core.admit(*tenant, *index, share_table.as_ref())?;
                if admission.shares() != shares.as_slice() {
                    return Err(FusionError::execution(format!(
                        "replay admit ({tenant}, {index}) shares diverged from the log"
                    )));
                }
                let query = admission.query;
                let (ran, outcome) = core.run(admission, None, None)?;
                let fetched = config.phase2.then(|| core.phase2(query, &outcome.answer));
                out.push(ReplayedQuery {
                    tenant: *tenant,
                    index: *index,
                    outcome,
                    fetched: fetched.transpose()?,
                });
                uncommitted.insert(op.ticket, ran);
            }
            OpKind::Commit {
                tenant,
                index,
                admit_ticket,
            } => {
                let ran = uncommitted.remove(admit_ticket).ok_or_else(|| {
                    FusionError::execution(format!(
                        "replay commit ({tenant}, {index}) precedes its admission"
                    ))
                })?;
                core.commit(ran, share_table.as_ref());
            }
        }
    }
    out.sort_by_key(|r| (r.tenant, r.index));
    Ok((out, core.fingerprint()))
}

/// Byte-compares a live [`serve`] run against its serial replay: every
/// completed query's answer, ledger, and completeness must be
/// identical, and so must the final cache fingerprints. Returns the
/// number of queries compared.
///
/// # Errors
/// Fails on the first divergence.
pub fn verify_replay_parity(
    report: &ServerReport,
    replayed: &[ReplayedQuery],
    replay_fp: &str,
) -> Result<usize> {
    if report.results.len() != replayed.len() {
        return Err(FusionError::execution(format!(
            "replay parity: live run completed {} queries, replay {}",
            report.results.len(),
            replayed.len()
        )));
    }
    for (live, rep) in report.results.iter().zip(replayed) {
        if (live.tenant, live.index) != (rep.tenant, rep.index) {
            return Err(FusionError::execution(format!(
                "replay parity: result order diverged at ({}, {})",
                live.tenant, live.index
            )));
        }
        if live.outcome.answer != rep.outcome.answer {
            return Err(FusionError::execution(format!(
                "replay parity: answer diverged for tenant {} event {}",
                live.tenant, live.index
            )));
        }
        if live.outcome.ledger != rep.outcome.ledger {
            return Err(FusionError::execution(format!(
                "replay parity: ledger diverged for tenant {} event {}",
                live.tenant, live.index
            )));
        }
        if live.outcome.completeness != rep.outcome.completeness {
            return Err(FusionError::execution(format!(
                "replay parity: completeness diverged for tenant {} event {}",
                live.tenant, live.index
            )));
        }
        if live.fetched != rep.fetched {
            return Err(FusionError::execution(format!(
                "replay parity: phase-two records diverged for tenant {} event {}",
                live.tenant, live.index
            )));
        }
    }
    if report.cache_fp != replay_fp {
        return Err(FusionError::execution(format!(
            "replay parity: final cache state diverged:\nlive:   {}\nreplay: {}",
            report.cache_fp, replay_fp
        )));
    }
    Ok(replayed.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{dmv_query, dmv_sources, net};
    use fusion_source::Capabilities;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{Attribute, Predicate, Schema, ValueType};
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;

    fn year_query(y: i64) -> FusionQuery {
        FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::cmp("D", fusion_types::CmpOp::Ge, y).into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap()
    }

    /// Each result's `shared` / `shared_residual` are exactly the
    /// `ShareRef`s (all / residual) its admission logged.
    fn assert_shares_logged(report: &ServerReport) {
        for r in &report.results {
            let shares = report
                .log
                .iter()
                .find_map(|op| match &op.kind {
                    OpKind::Admit { shares, .. } if op.ticket == r.ticket => Some(shares),
                    _ => None,
                })
                .expect("every result has a logged admission");
            assert_eq!(shares.len(), r.shared, "ticket {}", r.ticket);
            let residual = shares.iter().filter(|s| s.residual).count();
            assert_eq!(residual, r.shared_residual, "ticket {}", r.ticket);
        }
    }

    fn streams() -> Vec<Vec<TenantEvent>> {
        vec![
            vec![
                TenantEvent::Query(dmv_query()),
                TenantEvent::Query(year_query(1994)),
                TenantEvent::Query(dmv_query()),
            ],
            vec![
                TenantEvent::Query(year_query(1990)),
                TenantEvent::Update(SourceId(1)),
                TenantEvent::Query(dmv_query()),
                TenantEvent::Query(year_query(1994)),
            ],
            vec![
                TenantEvent::Query(dmv_query()),
                TenantEvent::Query(dmv_query()),
            ],
        ]
    }

    #[test]
    fn serve_matches_serial_replay_at_every_worker_count() {
        let sources = dmv_sources(Capabilities::full());
        let tenants = streams();
        for workers in [1, 2, 4, 8] {
            let config = ServerConfig::with_workers(workers);
            let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
            assert_eq!(report.results.len(), 8, "workers {workers}");
            assert!(report.shed.is_empty());
            let (replayed, fp) =
                replay_serial(&sources, &net, Some(1000.0), &tenants, &config, &report.log)
                    .unwrap();
            let n = verify_replay_parity(&report, &replayed, &fp).unwrap();
            assert_eq!(n, 8, "workers {workers}");
        }
    }

    #[test]
    fn a_warm_query_recalls_its_set_algebra_until_an_update() {
        let sources = dmv_sources(Capabilities::full());
        let q = || TenantEvent::Query(dmv_query());
        let tenants = vec![vec![
            q(),
            q(),
            q(),
            TenantEvent::Update(SourceId(1)),
            q(),
            q(),
        ]];
        let config = ServerConfig::with_workers(1);
        let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        let (replayed, fp) =
            replay_serial(&sources, &net, Some(1000.0), &tenants, &config, &report.log).unwrap();
        assert_eq!(verify_replay_parity(&report, &replayed, &fp).unwrap(), 5);
        // The same transitions one at a time, reading the memo between
        // queries: the addresses of the outputs it holds.
        let core = ServerCore::new(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        let memo = || core.derived.sets.lock().unwrap();
        let held = || {
            let mut outs: Vec<usize> = memo()
                .values()
                .map(|d| Arc::as_ptr(&d.out) as usize)
                .collect();
            outs.sort_unstable();
            outs
        };
        let ask = |index: usize| {
            let admission = core.admit(0, index, None).unwrap();
            let all_hit = admission
                .plan
                .steps
                .iter()
                .zip(&admission.served)
                .all(|(step, hit)| hit.is_some() || !matches!(step, Step::Sq { .. }));
            let (ran, outcome) = core.run(admission, None, None).unwrap();
            core.commit(ran, None);
            (all_hit, outcome)
        };
        // Cold: every input is fetched, so nothing is looked up or kept.
        let (all_hit, cold) = ask(0);
        assert!(!all_hit);
        assert_eq!(held(), Vec::<usize>::new());
        // The first all-hit run computes and keeps its set steps.
        let (all_hit, first) = ask(1);
        assert!(all_hit);
        let kept = held();
        assert!(kept.len() >= 2, "{kept:?}");
        // Swap each kept output for an equal set of a new identity: a
        // repeat that recalls binds the swapped sets, so the one step
        // whose inputs were swapped keys anew — on exactly those sets —
        // and every other step is recalled.
        let swapped: Vec<Arc<ItemSet>> = memo()
            .values_mut()
            .map(|d| {
                d.out = Arc::new((*d.out).clone());
                Arc::clone(&d.out)
            })
            .collect();
        let before = held();
        let (_, second) = ask(2);
        let after = held();
        assert_eq!(after.len(), before.len() + 1, "a warm repeat recomputed");
        let fresh = memo()
            .values()
            .find(|d| !before.contains(&(Arc::as_ptr(&d.out) as usize)))
            .map(|d| d._inputs.clone())
            .unwrap();
        assert!(fresh
            .iter()
            .all(|i| swapped.iter().any(|s| Arc::ptr_eq(i, s))));
        assert_eq!(
            (&first.answer, &first.ledger),
            (&second.answer, &second.ledger)
        );
        assert_eq!(cold.answer, second.answer);
        // R2 updates: its refetch is never looked up or kept, and its new
        // cache entry is a new identity, so the next warm run recomputes.
        core.bump(0, 3).unwrap();
        let (_, refetched) = ask(4);
        assert_eq!(held(), after);
        let (all_hit, rewarmed) = ask(5);
        assert!(all_hit);
        assert!(held().len() > after.len(), "a new harvest was recalled");
        assert_eq!(refetched.answer, cold.answer);
        assert_eq!(rewarmed.answer, cold.answer);
        let mine = [cold, first, second, refetched, rewarmed];
        for ((live, rep), mine) in report.results.iter().zip(&replayed).zip(&mine) {
            assert_eq!(live.outcome.answer, mine.answer);
            assert_eq!(live.outcome.ledger, mine.ledger);
            assert_eq!(rep.outcome.ledger, mine.ledger);
        }
    }

    /// Seeded streams over the Figure 1 sources: two-condition queries
    /// from a small pool — exact repeats, near duplicates with one
    /// condition changed or the two swapped — and updates.
    fn pooled_streams(seed: u64) -> Vec<Vec<TenantEvent>> {
        let pool: [Condition; 4] = [
            Predicate::eq("V", "dui").into(),
            Predicate::eq("V", "sp").into(),
            Predicate::eq("V", "park").into(),
            Predicate::cmp("D", fusion_types::CmpOp::Ge, 1994).into(),
        ];
        let mut rng = fusion_stats::SplitMix64::new(seed ^ 0xAD_317);
        let mut event = || {
            if rng.next_below(10) == 0 {
                return TenantEvent::Update(SourceId(rng.next_below(3)));
            }
            let first = rng.next_below(pool.len());
            let second = (first + rng.next_range(1, pool.len())) % pool.len();
            let conditions = vec![pool[first].clone(), pool[second].clone()];
            TenantEvent::Query(FusionQuery::new(dmv_schema(), conditions).unwrap())
        };
        (0..3).map(|_| (0..12).map(|_| event()).collect()).collect()
    }

    /// The (query id, coverage) key of every admission in `log`, with the
    /// plans admitted under it: `log` replayed through `core` one ticket
    /// at a time as [`replay_core`] does, each key read off a snapshot
    /// taken just before its admission.
    fn admitted_keys(
        core: &ServerCore<'_>,
        config: &ServerConfig,
        log: &[LoggedOp],
    ) -> HashMap<AdmissionKey, Vec<Arc<Planned>>> {
        let table = config.share.then(ShareTable::new);
        let mut keys: HashMap<_, Vec<Arc<Planned>>> = HashMap::new();
        let mut uncommitted = HashMap::new();
        for op in log {
            match op.kind {
                OpKind::Bump { tenant, index, .. } => {
                    core.bump(tenant, index).unwrap();
                }
                OpKind::Admit { tenant, index, .. } => {
                    let TenantEvent::Query(query) = core.event(tenant, index).unwrap() else {
                        panic!("({tenant}, {index}) is not a query");
                    };
                    let mut guard = core.cache.lock_all();
                    let coverage = guard
                        .snapshot(query.conditions(), core.sources.len())
                        .coverage_bits();
                    drop(guard);
                    let id = core.memo.ids[tenant][index].unwrap();
                    let admission = core.admit(tenant, index, table.as_ref()).unwrap();
                    let plans = keys.entry((id, coverage)).or_default();
                    plans.push(Arc::clone(&admission.plan));
                    let (ran, _) = core.run(admission, None, None).unwrap();
                    uncommitted.insert(op.ticket, ran);
                }
                OpKind::Commit { admit_ticket, .. } => {
                    let ran = uncommitted.remove(&admit_ticket).unwrap();
                    core.commit(ran, table.as_ref());
                }
            }
        }
        keys
    }

    #[test]
    fn equal_queries_share_an_id_and_near_duplicates_do_not() {
        let v = |x: &str| -> Condition { Predicate::eq("V", x).into() };
        let q = |schema: Schema, conditions: Vec<Condition>| {
            TenantEvent::Query(FusionQuery::new(schema, conditions).unwrap())
        };
        let wider = Schema::new(
            vec![
                Attribute::new("L", ValueType::Str),
                Attribute::new("V", ValueType::Str),
                Attribute::new("D", ValueType::Int),
                Attribute::new("E", ValueType::Int),
            ],
            "L",
        )
        .unwrap();
        let tenants = vec![
            vec![
                q(dmv_schema(), vec![v("dui"), v("sp")]),
                TenantEvent::Update(SourceId(1)),
                q(dmv_schema(), vec![v("sp"), v("dui")]),
            ],
            vec![
                TenantEvent::Query(dmv_query()),
                q(dmv_schema(), vec![v("dui"), v("park")]),
                q(wider, vec![v("dui"), v("sp")]),
                q(dmv_schema(), vec![v("dui"), v("sp")]),
            ],
        ];
        let memo = AdmissionMemo::new(&tenants);
        let ids = vec![
            vec![Some(0), None, Some(1)],
            vec![Some(0), Some(2), Some(3), Some(0)],
        ];
        assert_eq!(memo.ids, ids);
        assert_eq!(memo.models.len(), 4);
    }

    #[test]
    fn admission_searches_once_per_query_and_coverage() {
        let sources = dmv_sources(Capabilities::full());
        let relations = fusion_workload::dmv::figure1_relations();
        let sources = &sources;
        fn core<'a>(
            sources: &'a SourceSet,
            tenants: &'a [Vec<TenantEvent>],
            config: &ServerConfig,
        ) -> ServerCore<'a> {
            ServerCore::new(sources, &net, Some(1000.0), tenants, config).unwrap()
        }
        // Admissions and distinct keys over every cell: the streams must
        // repeat a query under an unchanged coverage, or nothing is hit.
        let (mut admitted, mut distinct) = (0, 0);
        for seed in 0..6 {
            let tenants = pooled_streams(seed);
            for (share, reopt) in [(true, false), (false, false), (true, true), (false, true)] {
                for workers in [1, 2, 4] {
                    let tag = format!("seed {seed} share {share} reopt {reopt} workers {workers}");
                    let config = ServerConfig {
                        share,
                        reopt,
                        ..ServerConfig::with_workers(workers)
                    };
                    let live = core(sources, &tenants, &config);
                    let report = serve_core(&live, &config).unwrap();
                    verify_server_log(&report.log, config.n_shards).unwrap();
                    verify_share_windows(&report.log).unwrap();
                    let replay = core(sources, &tenants, &config);
                    let (replayed, fp) = replay_core(&replay, &config, &report.log).unwrap();
                    verify_replay_parity(&report, &replayed, &fp).unwrap();
                    for r in &report.results {
                        let TenantEvent::Query(query) = &tenants[r.tenant][r.index] else {
                            panic!("{tag}: a result names an update");
                        };
                        let naive = query.naive_answer(&relations).unwrap();
                        assert_eq!(r.outcome.answer, naive, "{tag}");
                    }
                    let oracle = core(sources, &tenants, &config);
                    let keys = admitted_keys(&oracle, &config, &report.log);
                    admitted += keys.values().map(Vec::len).sum::<usize>();
                    distinct += keys.len();
                    let mut want: Vec<_> = keys.keys().collect();
                    want.sort();
                    let asked: HashSet<usize> = keys.keys().map(|k| k.0).collect();
                    for run in [&live, &replay, &oracle] {
                        // One model per query asked, one plan per key, each
                        // proved by the run.
                        let models = run.memo.models.iter().filter(|m| m.get().is_some());
                        assert_eq!(models.count(), asked.len(), "{tag}");
                        let plans = run.memo.plans.lock().unwrap();
                        let mut held: Vec<_> = plans.keys().collect();
                        held.sort();
                        if reopt {
                            assert!(held.is_empty(), "{tag}: reopt plans were kept");
                        } else {
                            assert_eq!(held, want, "{tag}");
                            assert!(plans.values().all(|p| p.proved.load(Ordering::Acquire)));
                        }
                    }
                    if !reopt {
                        // Every admission of a key got the one plan searched.
                        let plans = oracle.memo.plans.lock().unwrap();
                        for (key, got) in &keys {
                            assert!(got.iter().all(|p| Arc::ptr_eq(p, &plans[key])));
                        }
                    }
                }
            }
        }
        assert!(
            3 * admitted > 4 * distinct,
            "{admitted} admissions, {distinct} keys"
        );
    }

    #[test]
    fn a_full_admission_memo_starts_over() {
        let sources = dmv_sources(Capabilities::full());
        let tenants = vec![vec![TenantEvent::Query(dmv_query())]];
        let memo = AdmissionMemo::new(&tenants);
        let model = NetworkCostModel::new(&sources, &net(), &dmv_query(), Some(1000.0));
        let plan = sja_optimal(&model).plan;
        for k in 0..ADMISSION_PLANS as u64 {
            memo.plan((0, vec![k]), || plan.clone());
        }
        let first = memo.plan((0, vec![0]), || unreachable!("a kept plan is searched"));
        assert_eq!(memo.plans.lock().unwrap().len(), ADMISSION_PLANS);
        let newcomer = memo.plan((0, vec![u64::MAX]), || plan.clone());
        assert_eq!(memo.plans.lock().unwrap().len(), 1);
        assert!(!Arc::ptr_eq(&first, &newcomer));
        assert!(Arc::ptr_eq(
            &newcomer,
            &memo.plan((0, vec![u64::MAX]), || plan.clone())
        ));
    }

    #[test]
    fn out_of_range_configs_are_rejected_not_panicked() {
        let sources = dmv_sources(Capabilities::full());
        let tenants = streams();
        let config = |pace: f64, offered: Option<f64>| ServerConfig {
            pace: Some(pace),
            offered,
            ..ServerConfig::with_workers(2)
        };
        let served = |c: &ServerConfig| serve(&sources, &net, None, &tenants, c);
        let log = served(&ServerConfig::default()).unwrap().log;
        // Out of range: both entry points refuse before doing anything.
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let pace = [-1.0, nan, inf, -inf].map(|p| (config(p, None), "pace"));
        let offered = [0.0, -3.0, nan, inf].map(|r| (config(1e-6, Some(r)), "offered"));
        for (c, field) in pace.iter().chain(&offered) {
            let err = served(c).unwrap_err();
            assert!(err.to_string().contains(field), "{c:?}: {err}");
            let err = replay_serial(&sources, &net, None, &tenants, c, &log).unwrap_err();
            assert!(err.to_string().contains(field), "{c:?}: {err}");
        }
        // In range, but a step's sleep / an event's arrival offset is
        // not a duration: an error where it is computed.
        for (c, field) in [
            (config(1e300, None), "pace"),
            (config(0.0, Some(1e-300)), "offered"),
        ] {
            let err = served(&c).unwrap_err();
            assert!(err.to_string().contains(field), "{c:?}: {err}");
        }
        // The edge of the accepted range behaves as unpaced.
        let report = served(&config(0.0, Some(1e9))).unwrap();
        assert_eq!(report.results.len(), 8);
    }

    #[test]
    fn phase2_fetch_preserves_replay_parity_at_every_worker_count() {
        let sources = dmv_sources(Capabilities::full());
        let tenants = streams();
        for workers in [1, 2, 4] {
            let config = ServerConfig {
                phase2: true,
                ..ServerConfig::with_workers(workers)
            };
            let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
            assert_eq!(report.results.len(), 8, "workers {workers}");
            // Every completed query carries its phase-two records, and
            // non-empty answers produced non-empty record sets.
            for r in &report.results {
                let fetched = r.fetched.as_ref().expect("phase2 on");
                assert_eq!(fetched.is_empty(), r.outcome.answer.is_empty());
            }
            let (replayed, fp) =
                replay_serial(&sources, &net, Some(1000.0), &tenants, &config, &report.log)
                    .unwrap();
            let n = verify_replay_parity(&report, &replayed, &fp).unwrap();
            assert_eq!(n, 8, "workers {workers}");
        }
    }

    #[test]
    fn reopt_feedback_preserves_replay_parity_at_every_worker_count() {
        let sources = dmv_sources(Capabilities::full());
        let tenants = streams();
        for workers in [1, 2, 4] {
            let config = ServerConfig {
                reopt: true,
                ..ServerConfig::with_workers(workers)
            };
            let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
            assert_eq!(report.results.len(), 8, "workers {workers}");
            // The feedback-calibrated plans must replay bit for bit:
            // the serial replay rebuilds the feedback store in ticket
            // order and re-derives every admission's plan under it.
            let (replayed, fp) =
                replay_serial(&sources, &net, Some(1000.0), &tenants, &config, &report.log)
                    .unwrap();
            let n = verify_replay_parity(&report, &replayed, &fp).unwrap();
            assert_eq!(n, 8, "workers {workers}");
        }
    }

    #[test]
    fn reopt_feedback_calibrates_later_admissions() {
        // Single worker, sharing off, tiny cache budget so the second
        // identical query cannot be served from the cache — it must be
        // *planned* again, now under the harvested exact cardinalities.
        let sources = dmv_sources(Capabilities::full());
        let tenants = vec![vec![
            TenantEvent::Query(dmv_query()),
            TenantEvent::Update(SourceId(0)),
            TenantEvent::Update(SourceId(1)),
            TenantEvent::Update(SourceId(2)),
            TenantEvent::Query(dmv_query()),
        ]];
        let base = ServerConfig {
            workers: 1,
            share: false,
            ..ServerConfig::default()
        };
        let with = ServerConfig {
            reopt: true,
            ..base
        };
        // The updates bump every epoch between the two queries, so the
        // second run's cache snapshot is cold either way; any plan
        // difference comes from the feedback store alone. Both modes
        // must agree on answers (calibration never changes semantics).
        let off = serve(&sources, &net, Some(1000.0), &tenants, &base).unwrap();
        let on = serve(&sources, &net, Some(1000.0), &tenants, &with).unwrap();
        assert_eq!(off.results.len(), 2);
        assert_eq!(on.results.len(), 2);
        for (a, b) in off.results.iter().zip(&on.results) {
            assert_eq!(a.outcome.answer, b.outcome.answer);
        }
        // And the calibrated second run costs no more than the
        // uncalibrated one.
        let off2 = off.results[1].outcome.ledger.total();
        let on2 = on.results[1].outcome.ledger.total();
        assert!(on2 <= off2, "calibrated {on2} > uncalibrated {off2}");
    }

    #[test]
    fn shared_cache_serves_across_tenants() {
        let sources = dmv_sources(Capabilities::full());
        // Three tenants asking the same query: the second and third
        // admissions should be served from the first tenant's fetches.
        let tenants: Vec<Vec<TenantEvent>> = (0..3)
            .map(|_| vec![TenantEvent::Query(dmv_query())])
            .collect();
        let config = ServerConfig::with_workers(2);
        let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        assert_eq!(report.results.len(), 3);
        // Reuse may arrive as cache service (admitted after a commit)
        // or as an in-flight share (co-admitted) — either way the later
        // tenants never fetch for themselves, and the split stats stay
        // attributable.
        let served: usize = report.results.iter().map(|r| r.served).sum();
        let shared: usize = report.results.iter().map(|r| r.shared).sum();
        assert!(served + shared > 0, "no cross-tenant reuse");
        for r in &report.results {
            assert_eq!(r.served, r.served_exact + r.served_residual);
        }
        assert_shares_logged(&report);
        // All three answers identical.
        let first = &report.results[0].outcome.answer;
        for r in &report.results[1..] {
            assert_eq!(&r.outcome.answer, first);
        }
        // And cheaper in aggregate than three isolated cold runs.
        let cold = {
            let mut network = net();
            crate::execute_plan(
                &sja_optimal(&NetworkCostModel::new(
                    &sources,
                    &net(),
                    &dmv_query(),
                    Some(1000.0),
                ))
                .plan,
                &dmv_query(),
                &sources,
                &mut network,
            )
            .unwrap()
            .total_cost()
        };
        assert!(
            report.total_cost().value() < cold.value() * 3.0,
            "shared cache saved nothing: {} vs {}",
            report.total_cost().value(),
            cold.value() * 3.0
        );
    }

    #[test]
    fn closed_loop_latency_is_a_service_time() {
        let sources = dmv_sources(Capabilities::full());
        // No cache, so all six queries pay the same paced cost.
        let tenants: Vec<Vec<TenantEvent>> = (0..2)
            .map(|_| vec![TenantEvent::Query(dmv_query()); 3])
            .collect();
        let config = ServerConfig {
            cache_budget: 0,
            pace: Some(0.004),
            ..ServerConfig::with_workers(1)
        };
        let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        assert_eq!(report.results.len(), 6);
        for r in &report.results {
            assert!(
                r.latency < report.wall / 2,
                "tenant {} query {}: latency {:?} of a {:?} run counts from server start",
                r.tenant,
                r.index,
                r.latency,
                report.wall
            );
        }
    }

    #[test]
    fn co_admitted_duplicates_share_and_replay_bit_for_bit() {
        use crate::ledger::StepKind;
        let sources = dmv_sources(Capabilities::full());
        // Two tenants fire the same cold query concurrently; pacing
        // keeps the first in flight long past the second's admission,
        // so the second attaches to the first's merged fetches instead
        // of paying for its own.
        let tenants: Vec<Vec<TenantEvent>> = (0..2)
            .map(|_| vec![TenantEvent::Query(dmv_query())])
            .collect();
        let config = ServerConfig {
            pace: Some(0.01),
            ..ServerConfig::with_workers(2)
        };
        let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        assert_eq!(report.results.len(), 2);
        let shared: usize = report.results.iter().map(|r| r.shared).sum();
        assert!(shared > 0, "co-admitted duplicate did not attach");
        let sharer = report.results.iter().find(|r| r.shared > 0).unwrap();
        assert_shares_logged(&report);
        assert_eq!(sharer.shared_residual, 0, "duplicates must share exactly");
        assert!(sharer.outcome.ledger.count_kind(StepKind::ShareHit) > 0);
        for e in sharer.outcome.ledger.entries() {
            if e.kind == StepKind::ShareHit {
                assert_eq!(e.round_trips, 0, "a shared step touched the wire");
                assert_eq!(e.total(), Cost::ZERO);
            }
        }
        assert_eq!(
            report.results[0].outcome.answer,
            report.results[1].outcome.answer
        );
        // The logged shares replay to identical answers, ledgers, and
        // cache state — the merge is byte-invisible.
        let (replayed, fp) =
            replay_serial(&sources, &net, Some(1000.0), &tenants, &config, &report.log).unwrap();
        verify_replay_parity(&report, &replayed, &fp).unwrap();
    }

    #[test]
    fn residual_share_serves_narrower_in_flight_query() {
        use crate::ledger::StepKind;
        // Deterministic through the core's own transitions: a broad
        // selection admits first, a properly contained one second — the
        // narrower query attaches through a residual filter and never
        // contacts a source.
        let sources = dmv_sources(Capabilities::full());
        let year = |y: i64| {
            FusionQuery::new(
                dmv_schema(),
                vec![Predicate::cmp("D", fusion_types::CmpOp::Ge, y).into()],
            )
            .unwrap()
        };
        let narrow = year(1994);
        let tenants = vec![
            vec![TenantEvent::Query(year(1990))],
            vec![TenantEvent::Query(narrow.clone())],
        ];
        let config = ServerConfig {
            n_shards: 2,
            ..ServerConfig::default()
        };
        let core = ServerCore::new(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        let table = ShareTable::new();
        let lead = core.admit(0, 0, Some(&table)).unwrap();
        let follow = core.admit(1, 0, Some(&table)).unwrap();
        assert!(
            follow.shares().iter().any(|r| r.residual),
            "no residual attach"
        );
        assert!(follow.shares().iter().all(|r| r.leader == lead.ticket));
        // Leader executes and publishes its harvests; the follower serves
        // the shared steps locally through residuals.
        let (lead, _) = core.run(lead, None, None).unwrap();
        let (follow, out2) = core.run(follow, None, None).unwrap();
        assert!(out2.ledger.count_kind(StepKind::ShareResidual) > 0);
        for e in out2.ledger.entries() {
            if e.kind == StepKind::ShareResidual {
                assert_eq!(e.round_trips, 0);
                assert_eq!(e.total(), Cost::ZERO);
            }
        }
        // Byte-identical to an isolated cold run of the same query.
        let mut net3 = net();
        let iso = crate::execute_plan(
            &sja_optimal(&NetworkCostModel::new(
                &sources,
                &net(),
                &narrow,
                Some(1000.0),
            ))
            .plan,
            &narrow,
            &sources,
            &mut net3,
        )
        .unwrap();
        assert_eq!(out2.answer, iso.answer);
        // Both commits retire their share entries cleanly; the
        // follower shared every fetch, so it has nothing to commit.
        assert!(core.commit(lead, Some(&table)).is_some());
        assert!(
            follow.pending.is_empty(),
            "a shared step produced a pending insert"
        );
        assert!(core.commit(follow, Some(&table)).is_none());
    }

    #[test]
    fn update_between_admission_and_commit_withholds_stale_fetch() {
        // Build the race deterministically through the same transitions
        // the server takes: admit, run, bump the epoch, then commit.
        let sources = dmv_sources(Capabilities::full());
        let q = dmv_query();
        let tenants = vec![
            vec![TenantEvent::Query(q.clone())],
            vec![TenantEvent::Update(SourceId(1))],
        ];
        let config = ServerConfig {
            n_shards: 2,
            ..ServerConfig::default()
        };
        let core = ServerCore::new(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        let admission = core.admit(0, 0, None).unwrap();
        let (ran, _) = core.run(admission, None, None).unwrap();
        assert!(!ran.pending.is_empty());
        // R2 updates while the query is in flight.
        core.bump(1, 0).unwrap();
        core.commit(ran, None).unwrap();
        // R2's stale fetch was withheld; the fresh sources committed.
        let epochs = core.cache.epochs(3);
        assert_eq!(epochs, vec![0, 1, 0]);
        let mut g = core.cache.lock_all();
        for cond in q.conditions() {
            assert!(
                g.resolve(SourceId(1), cond).is_none(),
                "stale entry served for R2"
            );
            assert!(g.resolve(SourceId(0), cond).is_some());
            assert!(g.resolve(SourceId(2), cond).is_some());
        }
    }

    #[test]
    fn per_source_limits_and_pacing_do_not_change_results() {
        let sources = dmv_sources(Capabilities::full());
        let tenants = streams();
        let strict = ServerConfig {
            per_source_limit: 1,
            ..ServerConfig::with_workers(4)
        };
        let loose = ServerConfig {
            per_source_limit: 8,
            ..ServerConfig::with_workers(4)
        };
        let a = serve(&sources, &net, Some(1000.0), &tenants, &strict).unwrap();
        let b = serve(&sources, &net, Some(1000.0), &tenants, &loose).unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.outcome.answer, y.outcome.answer);
        }
        // Both runs replay-clean.
        for (cfg, rep) in [(&strict, &a), (&loose, &b)] {
            let (replayed, fp) =
                replay_serial(&sources, &net, Some(1000.0), &tenants, cfg, &rep.log).unwrap();
            verify_replay_parity(rep, &replayed, &fp).unwrap();
        }
    }

    #[test]
    fn open_loop_overload_sheds_fairly_and_stays_replayable() {
        let sources = dmv_sources(Capabilities::full());
        // Two hot tenants, high offered load, tiny shed deadline, one
        // worker: most queries must shed, updates never do.
        let tenants: Vec<Vec<TenantEvent>> = (0..2)
            .map(|_| {
                let mut v = Vec::new();
                for _ in 0..6 {
                    v.push(TenantEvent::Query(dmv_query()));
                }
                v.push(TenantEvent::Update(SourceId(0)));
                v
            })
            .collect();
        let config = ServerConfig {
            workers: 1,
            pace: Some(0.00002),
            offered: Some(10_000.0),
            shed_after: Some(Duration::from_micros(1)),
            ..ServerConfig::default()
        };
        let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        assert_eq!(report.results.len() + report.shed.len(), 12);
        // Updates always applied.
        assert_eq!(
            report
                .log
                .iter()
                .filter(|op| matches!(op.kind, OpKind::Bump { .. }))
                .count(),
            2
        );
        // Whatever completed replays bit for bit.
        let (replayed, fp) =
            replay_serial(&sources, &net, Some(1000.0), &tenants, &config, &report.log).unwrap();
        verify_replay_parity(&report, &replayed, &fp).unwrap();
        // Fair: under symmetric load, shedding hits both tenants.
        if report.shed.len() >= 4 {
            let t0 = report.shed.iter().filter(|s| s.tenant == 0).count();
            let t1 = report.shed.len() - t0;
            assert!(t0 > 0 && t1 > 0, "shedding starved one tenant: {t0}/{t1}");
        }
    }

    #[test]
    fn closed_loop_never_yields() {
        // Closed loop, every event has arrived at start, so the scan
        // never finds one still to come and the wait is the idle park.
        let tenants = pooled_streams(3);
        let config = ServerConfig::with_workers(2);
        let sched = Scheduler::new(&tenants, &config);
        for (t, events) in tenants.iter().enumerate() {
            for index in 0..events.len() {
                assert_eq!(sched.arrival(t, index).unwrap(), Duration::ZERO);
            }
        }
        for now in [0, 1, 149, 150, 151, 10_000].map(Duration::from_micros) {
            for spins in [false, true] {
                assert_eq!(dispatch_wait(now, None, spins), Wait::Park(IDLE_WAIT));
            }
        }
    }

    #[test]
    fn a_gap_above_the_window_parks_until_the_window() {
        let now = Duration::from_micros(2_500);
        let window = YIELD_WINDOW.as_micros() as u64;
        for gap in [window + 1, window + 50, 2_500, 1_000_000].map(Duration::from_micros) {
            for spins in [false, true] {
                let wait = dispatch_wait(now, Some(now + gap), spins);
                assert_eq!(wait, Wait::Park(gap - YIELD_WINDOW), "gap {gap:?}");
            }
        }
    }

    #[test]
    fn a_gap_within_the_window_yields_only_when_nobody_spins() {
        let now = Duration::from_millis(40);
        let window = YIELD_WINDOW.as_micros() as u64;
        for gap in [1, 5, 50, window - 1, window].map(Duration::from_micros) {
            let due = now + gap;
            assert_eq!(dispatch_wait(now, Some(due), false), Wait::Yield(due));
            assert_eq!(dispatch_wait(now, Some(due), true), Wait::Park(gap));
        }
        // A gap of one nanosecond still yields.
        let due = now + Duration::from_nanos(1);
        assert_eq!(dispatch_wait(now, Some(due), false), Wait::Yield(due));
    }

    #[test]
    fn an_overdue_event_waits_not_at_all() {
        let now = Duration::from_millis(7);
        for late in [0, 1, 150, 5_000].map(Duration::from_micros) {
            for spins in [false, true] {
                assert_eq!(dispatch_wait(now, Some(now - late), spins), Wait::Poll);
            }
        }
    }

    #[test]
    fn open_loop_dispatch_across_the_yield_window_answers_and_replays() {
        let sources = dmv_sources(Capabilities::full());
        let relations = fusion_workload::dmv::figure1_relations();
        let tenants = pooled_streams(11);
        let queries = tenants
            .iter()
            .flatten()
            .filter(|e| matches!(e, TenantEvent::Query(_)))
            .count();
        // Gaps of 500, 50 and 5 µs between arrivals: outside, inside and
        // far inside the yield window; up to eight workers, more than a
        // small machine has CPUs.
        for offered in [2_000.0, 20_000.0, 200_000.0] {
            for workers in [1, 2, 4, 8] {
                let tag = format!("offered {offered} workers {workers}");
                let config = ServerConfig {
                    offered: Some(offered),
                    shed_after: None,
                    ..ServerConfig::with_workers(workers)
                };
                let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
                assert!(report.shed.is_empty(), "{tag}: shed {:?}", report.shed);
                assert_eq!(report.results.len(), queries, "{tag}");
                verify_server_log(&report.log, config.n_shards).unwrap();
                verify_share_windows(&report.log).unwrap();
                let (replayed, fp) =
                    replay_serial(&sources, &net, Some(1000.0), &tenants, &config, &report.log)
                        .unwrap();
                let n = verify_replay_parity(&report, &replayed, &fp).unwrap();
                assert_eq!(n, queries, "{tag}");
                for r in &report.results {
                    let TenantEvent::Query(query) = &tenants[r.tenant][r.index] else {
                        panic!("{tag}: a result names an update");
                    };
                    let naive = query.naive_answer(&relations).unwrap();
                    assert_eq!(r.outcome.answer, naive, "{tag}");
                }
            }
        }
    }
}
