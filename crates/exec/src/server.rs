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
//!    is certified linearizable by
//!    [`fusion_core::dataflow::verify_server_log`]
//!    (always on, release mode included), and [`replay_serial`] re-runs
//!    it one ticket at a time against a fresh shared cache:
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
//! Per-source concurrency limits generalize the PR-4 serial queues
//! across queries: at most `per_source_limit` in-flight exchanges per
//! source, so an autonomous source still answers a bounded number of
//! mediator requests at a time. An admission controller bounds total
//! in-flight queries (`max_in_flight`) and, under paced open-loop
//! overload ([`ServerConfig::offered`]), sheds each tenant's own
//! backlog past [`ServerConfig::shed_after`] — a hot tenant loses its
//! overflow without starving the others.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::cached::PendingInsert;
use crate::parallel::check_pace;
use crate::reopt::harvest_observations;
pub use crate::share::ShareRef;
use crate::share::{ShareCtx, ShareTable};
use crate::step::{pace_sleep, PlanRun, StepValue};
use crate::ExecutionOutcome;
use fusion_cache::{
    CacheStats, CachedCostModel, Harvest, HitKind, ResolvedHit, Served, SharedAnswerCache,
};
use fusion_core::cost::{FeedbackCostModel, NetworkCostModel};
use fusion_core::dataflow::{
    server_commuting_pairs, verify_server_log, verify_share_windows, ServerEvent, ServerOp,
    ShareLink,
};
use fusion_core::plan::{Plan, Step};
use fusion_core::query::FusionQuery;
use fusion_core::sja_optimal;
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_stats::{CardObservation, ConditionFeedback};
use fusion_types::error::{FusionError, Result};
use fusion_types::Condition;
use fusion_types::{Cost, SourceId, Tuple};

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
    /// Admission controller: maximum queries admitted concurrently.
    pub max_in_flight: usize,
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
    /// up. Requires `pace` to be meaningful.
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
            max_in_flight: 4,
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
    /// A default config with `workers` worker threads (and the same
    /// number of admission slots).
    pub fn with_workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            max_in_flight: workers,
            ..ServerConfig::default()
        }
    }
}

/// What one logged critical section did (server-side view; converts to
/// [`ServerEvent`] for the certificate).
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Query admission: snapshot, cache-aware plan, lookup resolution,
    /// and share-table attachment.
    Admit {
        /// The tenant whose query was admitted.
        tenant: usize,
        /// The event index within the tenant's stream.
        index: usize,
        /// Steps served from other in-flight queries' merged fetches.
        shares: Vec<ShareRef>,
    },
    /// Commit of an admitted query's pending cache inserts.
    Commit {
        /// The tenant whose query committed.
        tenant: usize,
        /// The event index within the tenant's stream.
        index: usize,
        /// Ticket of the matching admission.
        admit_ticket: u64,
    },
    /// An update event's epoch bump.
    Bump {
        /// The tenant whose stream carried the update.
        tenant: usize,
        /// The event index within the tenant's stream.
        index: usize,
        /// The updated source.
        source: SourceId,
    },
}

/// One entry of the server's replayable operation log.
#[derive(Debug, Clone)]
pub struct LoggedOp {
    /// Global ticket drawn inside the critical section.
    pub ticket: u64,
    /// What the critical section did.
    pub kind: OpKind,
    /// Per-shard operation counts observed while the locks were held.
    pub shard_seqs: Vec<(usize, u64)>,
}

impl LoggedOp {
    fn to_server_op(&self) -> ServerOp {
        let event = match &self.kind {
            OpKind::Admit { .. } => ServerEvent::Admit {
                query: self.ticket as usize,
            },
            OpKind::Commit { admit_ticket, .. } => ServerEvent::Commit {
                query: *admit_ticket as usize,
            },
            OpKind::Bump { source, .. } => ServerEvent::Bump { source: source.0 },
        };
        ServerOp {
            ticket: self.ticket,
            event,
            shard_seqs: self.shard_seqs.clone(),
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
// Per-source concurrency limits
// ---------------------------------------------------------------------

/// Counting semaphores, one per source: at most `limit` in-flight
/// exchanges per source across all concurrent queries. Workers hold at
/// most one permit at a time (acquire → exchange → release), so there
/// is no hold-and-wait and no deadlock.
struct SourceLimits {
    slots: Vec<(Mutex<usize>, Condvar)>,
    limit: usize,
}

impl SourceLimits {
    fn new(n_sources: usize, limit: usize) -> SourceLimits {
        SourceLimits {
            slots: (0..n_sources)
                .map(|_| (Mutex::new(0), Condvar::new()))
                .collect(),
            limit: limit.max(1),
        }
    }

    fn acquire(&self, source: SourceId) {
        let (lock, cv) = &self.slots[source.0];
        let mut n = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while *n >= self.limit {
            n = cv.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n += 1;
    }

    fn release(&self, source: SourceId) {
        let (lock, cv) = &self.slots[source.0];
        let mut n = lock.lock().unwrap_or_else(PoisonError::into_inner);
        *n -= 1;
        drop(n);
        cv.notify_one();
    }
}

// ---------------------------------------------------------------------
// The per-query executor
// ---------------------------------------------------------------------

/// Everything a query's admission resolved: the plan the cache-aware
/// optimizer chose, the served lookups (projected outside the lock),
/// and the epochs the run saw (the commit-withholding baseline).
struct Admission {
    ticket: u64,
    plan: Plan,
    /// `served[idx]` — step `idx` is a selection served from cache.
    served: Vec<Option<Served>>,
    /// Source epochs at admission, indexed by source.
    epochs: Vec<u64>,
    shard_seqs: Vec<(usize, u64)>,
    /// Share-table resolution: attachments to other queries' in-flight
    /// fetches and slots this query leads. `None` when sharing is off.
    share: Option<ShareCtx>,
}

/// Admits one query: under a full-cache critical section, takes the
/// coverage snapshot, picks the cache-aware SJA plan, resolves every
/// selection lookup, draws the ticket, and — with sharing on —
/// resolves remaining misses against the table of in-flight fetches
/// through the share rule (every attach re-proved inside the same
/// critical section). The per-tuple projection of resolved hits
/// runs *after* the locks are released.
///
/// With `feedback` attached (`reopt` mode), planning runs under the
/// feedback-calibrated model. The read happens inside the full-cache
/// critical section: admission holds every shard, and each commit's
/// feedback write happens while holding its ticket draw, so the store
/// a given admission ticket sees is exactly the harvests of all
/// commits with smaller tickets — what the serial replay reproduces.
fn admit_query(
    cache: &SharedAnswerCache,
    sources: &SourceSet,
    model_net: &Network,
    domain_size: Option<f64>,
    query: &FusionQuery,
    shares: Option<&ShareTable>,
    feedback: Option<&Mutex<ConditionFeedback>>,
) -> Result<Admission> {
    let model = NetworkCostModel::new(sources, model_net, query, domain_size);
    let n = sources.len();
    let (ticket, plan, hits, epochs, shard_seqs, share) = {
        let mut guard = cache.lock_all();
        let snap = guard.snapshot(query.conditions(), n);
        let cached = CachedCostModel::new(&model, &snap);
        let plan = match feedback {
            Some(fb) => {
                let projected = fb
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .project(query.conditions(), n);
                sja_optimal(&FeedbackCostModel::new(&cached, &projected)).plan
            }
            None => sja_optimal(&cached).plan,
        };
        let mut hits = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            if let Step::Sq { cond, source, .. } = step {
                hits.push(guard.resolve(*source, &query.conditions()[cond.0]));
            } else {
                hits.push(None);
            }
        }
        let epochs: Vec<u64> = (0..n).map(|j| guard.epoch(SourceId(j))).collect();
        let shard_seqs = guard.shard_seqs();
        let ticket = guard.take_ticket();
        let share = match shares {
            Some(table) => {
                let cache_served: Vec<bool> = hits.iter().map(Option::is_some).collect();
                Some(table.admit(ticket, &plan, query.conditions(), &cache_served, &epochs)?)
            }
            None => None,
        };
        (ticket, plan, hits, epochs, shard_seqs, share)
    };
    // Projection and residual filtering happen outside the locks, so
    // concurrent warm hits do not serialize on the cache.
    let mut served = Vec::with_capacity(hits.len());
    for (idx, hit) in hits.into_iter().enumerate() {
        match hit {
            Some(h) => {
                let Step::Sq { cond, .. } = &plan.steps[idx] else {
                    unreachable!("hit on non-selection step");
                };
                served.push(Some(h.serve(&query.conditions()[cond.0], query.schema())?));
            }
            None => served.push(None),
        }
    }
    Ok(Admission {
        ticket,
        plan,
        served,
        epochs,
        shard_seqs,
        share,
    })
}

/// Phase-two record retrieval for one committed query, shared verbatim
/// by the live worker and the serial replay so the record sets
/// byte-compare. The catalog assumes every fetch-capable source covers
/// the whole answer (the server has no per-source extension census);
/// runs sequentially on a fresh network so the fetch is a pure
/// function of the answer.
fn fetch_phase2(
    answer: &fusion_types::ItemSet,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    domain_size: Option<f64>,
) -> Result<Vec<Tuple>> {
    if answer.is_empty() {
        return Ok(Vec::new());
    }
    let schema = query.schema();
    let fetchable: Vec<bool> = (0..sources.len())
        .map(|j| {
            sources
                .get(fusion_types::SourceId(j))
                .capabilities()
                .record_fetch
        })
        .collect();
    let catalog = fusion_core::phase2::CoverageCatalog::assume_full(schema, answer, &fetchable);
    let model = NetworkCostModel::new(sources, network, query, domain_size);
    let attrs = fusion_core::phase2::non_merge_attrs(schema);
    let (_, _, outcome) = crate::phase2::fetch_planned(
        answer, &attrs, &catalog, &model, schema, sources, network, None, None,
    )?;
    Ok(outcome.records)
}

/// Executes an admitted plan — the server's driver of the step core:
/// in plan order on the worker's own network, with every cache lookup
/// pre-resolved at admission. Served selections are free cache entries,
/// shared selections wait on (and serve from) another query's merged
/// fetch, misses fetch full records (for later commit) under the
/// per-source concurrency limits, optionally paced into wall clock —
/// and publish their harvest when this query leads a merged fetch. The
/// cache is not touched — pending inserts are returned for the commit
/// critical section.
#[allow(clippy::too_many_arguments)]
fn execute_admitted(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    served: &[Option<Served>],
    share: Option<&ShareCtx>,
    limits: Option<&SourceLimits>,
    pace: Option<f64>,
) -> Result<(ExecutionOutcome, Vec<PendingInsert>)> {
    fusion_core::analyze::ensure_sound(plan)?;
    let mut run = PlanRun::new(plan, query, sources, network, None, true)?;
    for (idx, step) in plan.steps.iter().enumerate() {
        let Some(source) = step.source() else {
            run.local(idx)?;
            continue;
        };
        if let Some(hit) = &served[idx] {
            // A reference-count bump: the set stays the cache entry's.
            run.serve(idx, hit.clone(), false);
            continue;
        }
        if let (Step::Sq { cond, .. }, Some(Some(att))) =
            (step, share.map(|s| s.attach[idx].as_ref()))
        {
            // Served from another query's merged fetch: wait for the
            // leader's harvest, then run it through the same projection
            // (and residual filter) a cache hit uses.
            let rows = att.slot.wait()?;
            let kind = if att.residual {
                HitKind::Subsumed
            } else {
                HitKind::Exact
            };
            let hit = ResolvedHit::from_harvest(rows, source, kind)
                .serve(&query.conditions()[cond.0], query.schema())?;
            run.serve(idx, hit, true);
            continue;
        }
        // The permit is held around the fetch only.
        if let Some(l) = limits {
            l.acquire(source);
        }
        let done = run.fetch(idx, network, Cost::ZERO);
        if let Some(l) = limits {
            l.release(source);
        }
        let done = done?;
        pace_sleep(pace, done.entry.total())?;
        // Leading a merged fetch: publish the exact harvest — the value
        // this query goes on to commit — so waiting followers can serve
        // from it (after the paced exchange, so a follower never observes
        // records "before" the leader's fetch completes in simulated
        // time).
        if let Some(slot) = share.and_then(|s| s.leads[idx].as_ref()) {
            if let StepValue::CachedItems(_, harvest) = &done.value {
                slot.publish(Arc::clone(harvest));
            }
        }
        run.fold(idx, done)?;
    }
    Ok(run.finish())
}

/// A shared feedback store paired with one query's harvested
/// observations, folded in together inside the commit critical section.
type FeedbackHarvest<'a> = (
    &'a Mutex<ConditionFeedback>,
    &'a [(Condition, SourceId, CardObservation)],
);

/// Commits an admitted query's fetches under the shards owning its
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
/// With `feedback` attached (`reopt` mode), the query's harvested
/// observations are folded into the shared store while the ticket is
/// drawn — the feedback mutex is held across both the writes and
/// `take_ticket`, so concurrent commits on disjoint shards still
/// serialize their harvests consistently with the global ticket order.
fn commit_admitted(
    cache: &SharedAnswerCache,
    admission: &Admission,
    pending: Vec<PendingInsert>,
    shares: Option<&ShareTable>,
    tenant: usize,
    index: usize,
    feedback: Option<FeedbackHarvest<'_>>,
) -> Option<LoggedOp> {
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
    let mut pending = pending;
    pending.sort_by_key(|p| p.step);
    let mut guard = cache.lock_sources(&sources);
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
    let ticket = match feedback {
        Some((mutex, obs)) => {
            let mut fb = mutex.lock().unwrap_or_else(PoisonError::into_inner);
            for (cond, source, o) in obs {
                fb.record(cond, *source, *o);
            }
            guard.take_ticket()
        }
        None => guard.take_ticket(),
    };
    Some(LoggedOp {
        ticket,
        kind: OpKind::Commit {
            tenant,
            index,
            admit_ticket: admission.ticket,
        },
        shard_seqs,
    })
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
    /// Queries admitted and not yet committed.
    in_flight: usize,
    shed: Vec<ShedQuery>,
    error: Option<FusionError>,
}

struct Scheduler<'a> {
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

impl Scheduler<'_> {
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

    /// Picks the next runnable event, waiting on the condvar while
    /// nothing is runnable. Shedding happens here: an overdue query
    /// (backlog beyond `shed_after`) is recorded and skipped.
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
            let mut capacity_blocked = false;
            let n = state.tenants.len();
            let rr = state.rr;
            let mut picked: Option<(usize, usize, bool)> = None;
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
                match &self.tenants[t][index] {
                    TenantEvent::Update(_) => {
                        picked = Some((t, index, false));
                        break;
                    }
                    TenantEvent::Query(_) => {
                        if let Some(limit) = self.config.shed_after {
                            if now.saturating_sub(arr) > limit {
                                // Overloaded: this tenant's backlog is
                                // past the deadline — shed and rescan.
                                state.shed.push(ShedQuery { tenant: t, index });
                                state.tenants[t].next += 1;
                                state.rr = (t + 1) % n;
                                picked = None;
                                break;
                            }
                        }
                        if state.in_flight >= self.config.max_in_flight.max(1) {
                            capacity_blocked = true;
                            continue;
                        }
                        picked = Some((t, index, true));
                        break;
                    }
                }
            }
            if let Some((t, index, is_query)) = picked {
                state.tenants[t].busy = true;
                state.rr = (t + 1) % n;
                if is_query {
                    state.in_flight += 1;
                    return Picked::Query { tenant: t, index };
                }
                return Picked::Update { tenant: t, index };
            }
            if !exhausted && next_arrival.is_none() && !capacity_blocked {
                // A shed consumed an event; rescan immediately.
                continue;
            }
            state = match next_arrival {
                Some(arr) if arr > now => {
                    self.cv
                        .wait_timeout(state, arr - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                _ => {
                    self.cv
                        .wait_timeout(state, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Marks a tenant's in-flight event finished and wakes waiters.
    fn finish(&self, tenant: usize, was_query: bool) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.tenants[tenant].busy = false;
        state.tenants[tenant].next += 1;
        if was_query {
            state.in_flight -= 1;
        }
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

/// Rejects the float fields a paced or open-loop run cannot work with
/// (the integer fields are clamped where they are read).
fn check_config(config: &ServerConfig) -> Result<()> {
    check_pace(config.pace)?;
    match config.offered {
        Some(rate) if !(rate.is_finite() && rate > 0.0) => Err(FusionError::execution(format!(
            "server config: offered must be finite and positive, got {rate}"
        ))),
        _ => Ok(()),
    }
}

/// Runs the server over `tenants` (one event stream per tenant) and
/// returns the completed results, the shed set, and the certified
/// replayable operation log. See the module docs for the model.
///
/// `net` builds the per-query [`Network`] (every query runs over its
/// own deterministic network instance, so concurrency never perturbs
/// simulated costs); `domain_size` feeds the optimizer's cost model.
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
    check_config(config)?;
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
    let cache = SharedAnswerCache::new(config.cache_budget, config.n_shards);
    let share_table = config.share.then(ShareTable::new);
    let feedback = config.reopt.then(|| Mutex::new(ConditionFeedback::new()));
    let limits = SourceLimits::new(sources.len(), config.per_source_limit);
    let sched = Scheduler {
        state: Mutex::new(SchedState {
            tenants: tenants
                .iter()
                .map(|_| TenantCursor {
                    next: 0,
                    busy: false,
                })
                .collect(),
            rr: 0,
            in_flight: 0,
            shed: Vec::new(),
            error: None,
        }),
        cv: Condvar::new(),
        tenants,
        config,
        start: Instant::now(),
    };
    // One worker loop; each worker collects its own results and log
    // entries, merged and sorted once after the scope.
    let worker = || {
        let mut results: Vec<QueryResult> = Vec::new();
        let mut log: Vec<LoggedOp> = Vec::new();
        loop {
            match sched.pick() {
                Picked::Exit => return (results, log),
                Picked::Update { tenant, index } => {
                    let TenantEvent::Update(source) = &sched.tenants[tenant][index] else {
                        unreachable!("picked update on query event");
                    };
                    let mut guard = cache.lock_sources(&[*source]);
                    guard.bump_epoch(*source);
                    let shard_seqs = guard.shard_seqs();
                    let ticket = guard.take_ticket();
                    drop(guard);
                    log.push(LoggedOp {
                        ticket,
                        kind: OpKind::Bump {
                            tenant,
                            index,
                            source: *source,
                        },
                        shard_seqs,
                    });
                    sched.finish(tenant, false);
                }
                Picked::Query { tenant, index } => {
                    let TenantEvent::Query(query) = &sched.tenants[tenant][index] else {
                        unreachable!("picked query on update event");
                    };
                    // Tracked so the error path can fail this
                    // query's fetch slots — no follower may wait
                    // forever on a leader that died.
                    let mut admitted_ticket: Option<u64> = None;
                    let run = (|| -> Result<()> {
                        let arrived = sched.latency_origin(tenant, index)?;
                        let model_net = net();
                        let admission = admit_query(
                            &cache,
                            sources,
                            &model_net,
                            domain_size,
                            query,
                            share_table.as_ref(),
                            feedback.as_ref(),
                        )?;
                        admitted_ticket = Some(admission.ticket);
                        let shares = admission
                            .share
                            .as_ref()
                            .map(|s| s.refs.clone())
                            .unwrap_or_default();
                        log.push(LoggedOp {
                            ticket: admission.ticket,
                            kind: OpKind::Admit {
                                tenant,
                                index,
                                shares,
                            },
                            shard_seqs: admission.shard_seqs.clone(),
                        });
                        let mut network = net();
                        let (outcome, pending) = execute_admitted(
                            &admission.plan,
                            query,
                            sources,
                            &mut network,
                            &admission.served,
                            admission.share.as_ref(),
                            Some(&limits),
                            config.pace,
                        )?;
                        let harvest = feedback.as_ref().map(|_| {
                            harvest_observations(
                                &admission.plan,
                                query.conditions(),
                                &outcome.ledger,
                            )
                        });
                        if let Some(op) = commit_admitted(
                            &cache,
                            &admission,
                            pending,
                            share_table.as_ref(),
                            tenant,
                            index,
                            feedback.as_ref().zip(harvest.as_deref()),
                        ) {
                            log.push(op);
                        }
                        let served = admission.served.iter().flatten().count();
                        let served_exact = admission
                            .served
                            .iter()
                            .flatten()
                            .filter(|s| s.kind == HitKind::Exact)
                            .count();
                        let (shared, shared_residual) =
                            admission.share.as_ref().map_or((0, 0), |s| {
                                (s.refs.len(), s.refs.iter().filter(|r| r.residual).count())
                            });
                        let fetched = if config.phase2 {
                            let mut fnet = net();
                            Some(fetch_phase2(
                                &outcome.answer,
                                query,
                                sources,
                                &mut fnet,
                                domain_size,
                            )?)
                        } else {
                            None
                        };
                        results.push(QueryResult {
                            tenant,
                            index,
                            ticket: admission.ticket,
                            outcome,
                            served,
                            served_exact,
                            served_residual: served - served_exact,
                            shared,
                            shared_residual,
                            latency: Instant::now().saturating_duration_since(arrived),
                            fetched,
                        });
                        Ok(())
                    })();
                    match run {
                        Ok(()) => sched.finish(tenant, true),
                        Err(e) => {
                            if let (Some(table), Some(ticket)) =
                                (share_table.as_ref(), admitted_ticket)
                            {
                                table.retire(ticket);
                            }
                            sched.fail(e);
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
    // The always-on linearizability certificate: ticket order must
    // agree with every shard's applied order, or the replay-parity
    // contract is void.
    let ops: Vec<ServerOp> = log.iter().map(LoggedOp::to_server_op).collect();
    verify_server_log(&ops, cache.n_shards())?;
    // And the always-on share-window certificate: every logged share
    // attaches a follower to a leader admitted strictly before it and
    // still uncommitted at the follower's admission.
    let mut links: Vec<ShareLink> = Vec::new();
    let mut admits: Vec<u64> = Vec::new();
    let mut commits: Vec<(u64, u64)> = Vec::new();
    for op in &log {
        match &op.kind {
            OpKind::Admit { shares, .. } => {
                admits.push(op.ticket);
                links.extend(shares.iter().map(|s| ShareLink {
                    follower: op.ticket,
                    leader: s.leader,
                }));
            }
            OpKind::Commit { admit_ticket, .. } => commits.push((*admit_ticket, op.ticket)),
            OpKind::Bump { .. } => {}
        }
    }
    verify_share_windows(&links, &admits, &commits)?;
    Ok(ServerReport {
        wall: sched.start.elapsed(),
        cache: cache.stats(),
        cache_fp: cache_fingerprint(&cache, sources.len()),
        commuting_pairs: server_commuting_pairs(&ops),
        results,
        shed,
        log,
    })
}

/// A deterministic fingerprint of a shared cache's final state:
/// per-shard residency, counters, and applied-op counts, plus every
/// source epoch.
pub(crate) fn cache_fingerprint(cache: &SharedAnswerCache, n_sources: usize) -> String {
    format!(
        "shards={:?} epochs={:?}",
        cache.shard_infos(),
        cache.epochs(n_sources)
    )
}

/// Serially replays a [`serve`] run's operation log in ticket order
/// against a fresh shared cache: admissions re-resolve and re-execute,
/// commits re-apply, bumps re-bump. Returns the replayed per-query
/// outcomes (sorted by `(tenant, index)`) and the final cache
/// fingerprint — both must match the live run bit for bit
/// ([`verify_replay_parity`]).
///
/// # Errors
/// Fails on a `config` [`serve`] rejects, when the log references events
/// that don't exist, or when replay execution fails.
pub fn replay_serial(
    sources: &SourceSet,
    net: &(dyn Fn() -> Network + Sync),
    domain_size: Option<f64>,
    tenants: &[Vec<TenantEvent>],
    config: &ServerConfig,
    log: &[LoggedOp],
) -> Result<(Vec<ReplayedQuery>, String)> {
    check_config(config)?;
    let cache = SharedAnswerCache::new(config.cache_budget, config.n_shards);
    let feedback = config.reopt.then(|| Mutex::new(ConditionFeedback::new()));
    let mut ordered: Vec<&LoggedOp> = log.iter().collect();
    ordered.sort_by_key(|op| op.ticket);
    let mut admissions: HashMap<u64, Admission> = HashMap::new();
    let mut pendings: HashMap<u64, Vec<PendingInsert>> = HashMap::new();
    // Harvested observations of each replayed admission, applied to the
    // feedback store at the matching commit ticket — mirroring the
    // live run's commit-time fold.
    let mut harvests: HashMap<u64, Vec<(Condition, SourceId, CardObservation)>> = HashMap::new();
    // Every replayed fetch's harvest, keyed by (admission ticket,
    // step) — what a logged share serves from, exactly as the live
    // follower served from the leader's in-flight slot.
    let mut fetched: HashMap<(u64, usize), Arc<Harvest>> = HashMap::new();
    let mut out = Vec::new();
    let event = |tenant: usize, index: usize| -> Result<&TenantEvent> {
        tenants
            .get(tenant)
            .and_then(|s| s.get(index))
            .ok_or_else(|| {
                FusionError::execution(format!(
                    "replay log references unknown event ({tenant}, {index})"
                ))
            })
    };
    for op in ordered {
        match &op.kind {
            OpKind::Bump { tenant, index, .. } => {
                let TenantEvent::Update(source) = event(*tenant, *index)? else {
                    return Err(FusionError::execution(format!(
                        "replay bump ({tenant}, {index}) is not an update event"
                    )));
                };
                let mut guard = cache.lock_sources(&[*source]);
                guard.bump_epoch(*source);
                guard.take_ticket();
            }
            OpKind::Admit {
                tenant,
                index,
                shares,
            } => {
                let TenantEvent::Query(query) = event(*tenant, *index)? else {
                    return Err(FusionError::execution(format!(
                        "replay admit ({tenant}, {index}) is not a query event"
                    )));
                };
                let model_net = net();
                let mut admission = admit_query(
                    &cache,
                    sources,
                    &model_net,
                    domain_size,
                    query,
                    None,
                    feedback.as_ref(),
                )?;
                // Re-apply the logged shares: each served from the
                // harvest its leader's replayed fetch produced.
                if !shares.is_empty() {
                    admission.share = Some(ShareCtx::from_log(
                        admission.plan.steps.len(),
                        shares,
                        &fetched,
                    )?);
                }
                let mut network = net();
                let (outcome, pending) = execute_admitted(
                    &admission.plan,
                    query,
                    sources,
                    &mut network,
                    &admission.served,
                    admission.share.as_ref(),
                    None,
                    None,
                )?;
                for p in &pending {
                    fetched.insert((op.ticket, p.step), Arc::clone(&p.rows));
                }
                if feedback.is_some() {
                    harvests.insert(
                        op.ticket,
                        harvest_observations(&admission.plan, query.conditions(), &outcome.ledger),
                    );
                }
                let fetched = if config.phase2 {
                    let mut fnet = net();
                    Some(fetch_phase2(
                        &outcome.answer,
                        query,
                        sources,
                        &mut fnet,
                        domain_size,
                    )?)
                } else {
                    None
                };
                out.push(ReplayedQuery {
                    tenant: *tenant,
                    index: *index,
                    outcome,
                    fetched,
                });
                pendings.insert(op.ticket, pending);
                admissions.insert(op.ticket, admission);
            }
            OpKind::Commit {
                tenant,
                index,
                admit_ticket,
            } => {
                let admission = admissions.get(admit_ticket).ok_or_else(|| {
                    FusionError::execution(format!(
                        "replay commit ({tenant}, {index}) precedes its admission"
                    ))
                })?;
                let pending = pendings.remove(admit_ticket).unwrap_or_default();
                let harvest = harvests.remove(admit_ticket).unwrap_or_default();
                commit_admitted(
                    &cache,
                    admission,
                    pending,
                    None,
                    *tenant,
                    *index,
                    feedback.as_ref().map(|m| (m, harvest.as_slice())),
                );
            }
        }
    }
    out.sort_by_key(|r| (r.tenant, r.index));
    Ok((out, cache_fingerprint(&cache, sources.len())))
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
    use fusion_types::Predicate;

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
            ..base.clone()
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
        // Deterministic through the same primitives the workers use:
        // a broad selection admits first, a properly contained one
        // second — the narrower query attaches through a residual
        // filter and never contacts a source.
        let sources = dmv_sources(Capabilities::full());
        let cache = SharedAnswerCache::new(1 << 22, 2);
        let table = ShareTable::new();
        let year = |y: i64| {
            FusionQuery::new(
                dmv_schema(),
                vec![Predicate::cmp("D", fusion_types::CmpOp::Ge, y).into()],
            )
            .unwrap()
        };
        let (broad, narrow) = (year(1990), year(1994));
        let model_net = net();
        let lead = admit_query(
            &cache,
            &sources,
            &model_net,
            Some(1000.0),
            &broad,
            Some(&table),
            None,
        )
        .unwrap();
        let follow = admit_query(
            &cache,
            &sources,
            &model_net,
            Some(1000.0),
            &narrow,
            Some(&table),
            None,
        )
        .unwrap();
        let ctx = follow.share.as_ref().expect("share table off");
        assert!(ctx.refs.iter().any(|r| r.residual), "no residual attach");
        assert!(ctx.refs.iter().all(|r| r.leader == lead.ticket));
        // Leader executes and publishes its harvests.
        let mut net1 = net();
        let (_, pend1) = execute_admitted(
            &lead.plan,
            &broad,
            &sources,
            &mut net1,
            &lead.served,
            lead.share.as_ref(),
            None,
            None,
        )
        .unwrap();
        // Follower serves the shared steps locally through residuals.
        let mut net2 = net();
        let (out2, pend2) = execute_admitted(
            &follow.plan,
            &narrow,
            &sources,
            &mut net2,
            &follow.served,
            follow.share.as_ref(),
            None,
            None,
        )
        .unwrap();
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
        assert!(commit_admitted(&cache, &lead, pend1, Some(&table), 0, 0, None).is_some());
        assert!(pend2.is_empty(), "a shared step produced a pending insert");
        assert!(commit_admitted(&cache, &follow, pend2, Some(&table), 1, 0, None).is_none());
    }

    #[test]
    fn update_between_admission_and_commit_withholds_stale_fetch() {
        // Build the race deterministically through the same primitives
        // the server uses: admit, bump the epoch, then commit.
        let sources = dmv_sources(Capabilities::full());
        let cache = SharedAnswerCache::new(1 << 22, 2);
        let q = dmv_query();
        let model_net = net();
        let admission =
            admit_query(&cache, &sources, &model_net, Some(1000.0), &q, None, None).unwrap();
        let mut network = net();
        let (_, pending) = execute_admitted(
            &admission.plan,
            &q,
            &sources,
            &mut network,
            &admission.served,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(!pending.is_empty());
        // R2 updates while the query is in flight.
        {
            let mut g = cache.lock_sources(&[SourceId(1)]);
            g.bump_epoch(SourceId(1));
            g.take_ticket();
        }
        commit_admitted(&cache, &admission, pending, None, 0, 0, None).unwrap();
        // R2's stale fetch was withheld; the fresh sources committed.
        let epochs = cache.epochs(3);
        assert_eq!(epochs, vec![0, 1, 0]);
        let mut g = cache.lock_all();
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
            max_in_flight: 1,
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
}
