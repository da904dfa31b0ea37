//! The step core: what one plan step *means*, written once.
//!
//! Every plan executor in this crate is a *driver* of the pieces below.
//! A driver decides only in which order and on which thread steps run;
//! it never re-derives what a step does.
//!
//! 1. **One fetch primitive per remote step kind** ([`exec_sq`],
//!    [`exec_sq_records`], [`exec_bloom`], [`exec_lq`],
//!    [`run_semijoin`]), parameterised by a [`Delivery`]: plain (the
//!    infallible [`Network::exchange`], which ignores any fault plan) or
//!    retried ([`retry_loop`] over `try_exchange` against the source's
//!    [`SourceFt`]).
//! 2. **One run state**, [`PlanRun`]: variables, loaded relations, the
//!    per-step ledger slots, pending cache admissions, dropped steps —
//!    with one shape check, one completeness fold, one drop check and
//!    one cache-commit tail.
//! 3. **One per-step dispatcher**, [`PlanRun::dispatch`], for plan order,
//!    replayed events, piggyback's prefix and the server's admitted plans
//!    (which reach it through `drive` with a [`Supply`]): a run holds a
//!    segment's cache hits before the segment runs.
//! 4. **One stage pool** ([`PlanRun::stage`] over [`run_stage`]): a
//!    stage's remote steps on scoped workers, folded at the barrier in
//!    step order, its other steps dispatched; [`crate::run`] merges the
//!    shared network trace on every exit path.

use crate::cached::{commit_inserts, served_entry, PendingInsert};
use crate::interp::ExecutionOutcome;
use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use crate::retry::{Completeness, RetryPolicy};
use crate::share::ShareCtx;
use fusion_cache::{AnswerCache, Harvest, HitKind, ResolvedHit, Served};
use fusion_core::analyze::Analysis;
use fusion_core::plan::{Plan, RelVar, Step, VarId};
use fusion_core::query::FusionQuery;
use fusion_net::{ExchangeKind, FailedExchange, FaultKind, MessageSize, Network};
use fusion_source::{SourceSet, Wrapper};
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Condition, Cost, ItemSet, Relation, Schema, SourceId, Tuple};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// How a step reaches the network: exclusively (the calling thread owns
/// the [`Network`]) or through a shared, step-tagged source handle
/// (stage workers, replay).
pub(crate) trait Exchanger {
    /// Infallible exchange — see [`Network::exchange`].
    fn exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost;

    /// Fault-aware exchange — see [`Network::try_exchange`].
    fn try_exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> std::result::Result<Cost, FailedExchange>;
}

impl Exchanger for Network {
    fn exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost {
        Network::exchange(self, source, kind, req_bytes, resp_bytes)
    }

    fn try_exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> std::result::Result<Cost, FailedExchange> {
        Network::try_exchange(self, source, kind, req_bytes, resp_bytes)
    }
}

/// The [`Exchanger`] of shared execution: exchanges go through a
/// [`fusion_net::SourceHandle`], tagged with the executing step so
/// [`Network::commit`] can restore sequential trace order.
pub(crate) struct SharedExchanger<'a> {
    pub(crate) net: &'a Network,
    pub(crate) step: usize,
}

impl Exchanger for SharedExchanger<'_> {
    fn exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost {
        self.net
            .handle(source)
            .exchange(self.step, kind, req_bytes, resp_bytes)
    }

    fn try_exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> std::result::Result<Cost, FailedExchange> {
        self.net
            .handle(source)
            .try_exchange(self.step, kind, req_bytes, resp_bytes)
    }
}

/// One source's fault-handling state: whether it was given up on, and
/// the consecutive-failure count feeding its circuit breaker.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceFt {
    /// Given up on (outage, tripped breaker, retry exhaustion).
    pub(crate) dead: bool,
    /// Consecutive failures (circuit-breaker input).
    pub(crate) consecutive: usize,
}

/// Result of pushing one exchange through a [`Delivery`].
pub(crate) enum Attempted {
    /// The exchange went through; `failed` covers earlier failed tries
    /// and backoff waits.
    Delivered {
        comm: Cost,
        attempts: usize,
        failed: Cost,
    },
    /// The policy's patience ran out; the source is now dead.
    Exhausted { attempts: usize, failed: Cost },
}

/// Attempts one exchange under the retry policy. `spent` is the cost
/// executed so far, checked against the policy deadline: once the budget
/// is gone, failures are final (no more retries).
#[allow(clippy::too_many_arguments)]
fn retry_loop<E: Exchanger>(
    policy: &RetryPolicy,
    network: &mut E,
    ft: &mut SourceFt,
    source: SourceId,
    kind: ExchangeKind,
    req_bytes: usize,
    resp_bytes: usize,
    spent: Cost,
) -> Attempted {
    let mut failed = Cost::ZERO;
    let mut attempts = 0usize;
    loop {
        attempts += 1;
        match network.try_exchange(source, kind, req_bytes, resp_bytes) {
            Ok(comm) => {
                ft.consecutive = 0;
                return Attempted::Delivered {
                    comm,
                    attempts,
                    failed,
                };
            }
            Err(FailedExchange { kind: fault, cost }) => {
                failed += cost;
                ft.consecutive += 1;
                let give_up = fault == FaultKind::Outage
                    || ft.consecutive >= policy.breaker_threshold
                    || attempts >= policy.max_attempts
                    || policy
                        .deadline
                        .is_some_and(|budget| spent + failed >= budget);
                if give_up {
                    ft.dead = true;
                    return Attempted::Exhausted { attempts, failed };
                }
                // Wait before retrying; the wait is charged as
                // failure cost (the mediator sits idle).
                failed += policy.backoff(source, attempts);
            }
        }
    }
}

/// How one step's exchanges with its source are delivered: plainly —
/// the infallible [`Network::exchange`], which ignores the fault plan
/// and is *not* `try_exchange` with infinite patience — or retried under
/// a policy against the source's fault state.
pub(crate) struct Delivery<'a, E> {
    pub(crate) net: &'a mut E,
    /// The step the exchanges are accounted to.
    pub(crate) step: usize,
    pub(crate) source: SourceId,
    pub(crate) retry: Option<(&'a RetryPolicy, &'a mut SourceFt)>,
    /// Cost executed before this step, as the *driver* counts it — the
    /// retry deadline's basis. Unused by plain delivery.
    pub(crate) spent: Cost,
}

impl<'a, E: Exchanger> Delivery<'a, E> {
    /// Plain delivery of `step`'s exchanges with `source`.
    pub(crate) fn plain(net: &'a mut E, step: usize, source: SourceId) -> Delivery<'a, E> {
        Delivery {
            net,
            step,
            source,
            retry: None,
            spent: Cost::ZERO,
        }
    }

    /// Whether the source was already given up on.
    pub(crate) fn dead(&self) -> bool {
        self.retry.as_ref().is_some_and(|(_, ft)| ft.dead)
    }

    /// One exchange. `spent` is the deadline basis including whatever
    /// this step has already paid.
    pub(crate) fn send(
        &mut self,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
        spent: Cost,
    ) -> Attempted {
        match &mut self.retry {
            None => Attempted::Delivered {
                comm: self.net.exchange(self.source, kind, req_bytes, resp_bytes),
                attempts: 1,
                failed: Cost::ZERO,
            },
            Some((policy, ft)) => retry_loop(
                policy,
                self.net,
                ft,
                self.source,
                kind,
                req_bytes,
                resp_bytes,
                spent,
            ),
        }
    }

    /// This step's ledger entry before anything was exchanged.
    pub(crate) fn blank(&self, kind: StepKind) -> LedgerEntry {
        LedgerEntry {
            step: self.step,
            kind,
            source: Some(self.source),
            comm: Cost::ZERO,
            proc: Cost::ZERO,
            round_trips: 0,
            items_out: 0,
            attempts: 0,
            failed_cost: Cost::ZERO,
        }
    }

    /// The ledger entry of dropping this step: nothing delivered, but
    /// the failed attempts that led to giving up are still charged.
    pub(crate) fn dropped(&self, kind: StepKind, attempts: usize, failed: Cost) -> LedgerEntry {
        LedgerEntry {
            attempts,
            failed_cost: failed,
            ..self.blank(kind)
        }
    }

    /// A step at a source already given up on is dropped up front, as
    /// `value`, before the wrapper is even asked.
    fn given_up(&self, kind: StepKind, value: StepValue) -> Option<StepDone> {
        self.dead().then(|| StepDone {
            value,
            entry: self.dropped(kind, 0, Cost::ZERO),
        })
    }

    /// The whole of a one-round-trip step: `Ok` with the delivered
    /// step's entry, `Err` with the dropped step's.
    pub(crate) fn once(
        &mut self,
        kind: StepKind,
        exchange: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
        proc: Cost,
        items_out: usize,
    ) -> std::result::Result<LedgerEntry, LedgerEntry> {
        match self.send(exchange, req_bytes, resp_bytes, self.spent) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => Ok(LedgerEntry {
                step: self.step,
                kind,
                source: Some(self.source),
                comm,
                proc,
                round_trips: 1,
                items_out,
                attempts,
                failed_cost: failed,
            }),
            Attempted::Exhausted { attempts, failed } => Err(self.dropped(kind, attempts, failed)),
        }
    }
}

/// What a remote step hands back to its driver: the step's value plus
/// its ledger entry. [`PlanRun::fetch`] produces it, [`PlanRun::fold`]
/// folds it into the run.
pub(crate) struct StepDone {
    pub(crate) value: StepValue,
    pub(crate) entry: LedgerEntry,
}

/// The value a remote step delivered (or, under retry, failed to).
pub(crate) enum StepValue {
    /// A delivered item-set step (`sq` / `sjq` / Bloom `sjq`).
    Items(ItemSet),
    /// A cached-mode selection miss: the full records to admit to the
    /// cache after the run, and the answer items they project to.
    CachedItems(Arc<ItemSet>, Arc<Harvest>),
    /// A delivered full load.
    Rows(Vec<Tuple>),
    /// A dropped item-set step (retried delivery only).
    DroppedItems,
    /// A dropped full load (retried delivery only).
    DroppedRows,
}

impl StepDone {
    /// `value` with the delivered step's entry, `dropped` with the
    /// dropped step's.
    fn of(
        sent: std::result::Result<LedgerEntry, LedgerEntry>,
        value: StepValue,
        dropped: StepValue,
    ) -> StepDone {
        match sent {
            Ok(entry) => StepDone { value, entry },
            Err(entry) => StepDone {
                value: dropped,
                entry,
            },
        }
    }
}

/// The source-side processing cost of one wrapper call.
pub(crate) fn proc_cost(w: &dyn Wrapper, examined: usize, returned: usize) -> Cost {
    Cost::new(w.processing().cost(examined, returned))
}

/// One selection step `sq(c, R)`: a dead source is dropped up front,
/// otherwise one round trip.
pub(crate) fn exec_sq<E: Exchanger>(
    d: &mut Delivery<'_, E>,
    cond: &Condition,
    sources: &SourceSet,
) -> Result<StepDone> {
    let kind = StepKind::Selection;
    if let Some(dropped) = d.given_up(kind, StepValue::DroppedItems) {
        return Ok(dropped);
    }
    let w = sources.get(d.source);
    let resp = w.select(cond)?;
    let sent = d.once(
        kind,
        ExchangeKind::Selection,
        MessageSize::sq_request(cond),
        MessageSize::items_response(&resp.payload),
        proc_cost(w, resp.tuples_examined, resp.payload.len()),
        resp.payload.len(),
    );
    Ok(StepDone::of(
        sent,
        StepValue::Items(resp.payload),
        StepValue::DroppedItems,
    ))
}

/// The cached-mode selection miss: like [`exec_sq`] but fetching full
/// records, by reference, so the answer can be cached, with the response
/// sized accordingly. The answer is the harvest's first projection, whose
/// merge order (the source's, or one sort) every later hit reuses.
pub(crate) fn exec_sq_records<E: Exchanger>(
    d: &mut Delivery<'_, E>,
    cond: &Condition,
    schema: &Schema,
    sources: &SourceSet,
) -> Result<StepDone> {
    let kind = StepKind::Selection;
    if let Some(dropped) = d.given_up(kind, StepValue::DroppedItems) {
        return Ok(dropped);
    }
    let w = sources.get(d.source);
    let resp = w.select_shared(cond)?;
    let n_rows = resp.payload.ids.len();
    let harvest = Arc::new(Harvest::from(resp.payload));
    let items = harvest.project(d.source, cond, schema, false)?;
    let sent = d.once(
        kind,
        ExchangeKind::Selection,
        MessageSize::sq_request(cond),
        MessageSize::records_response(harvest.wire_bytes()),
        proc_cost(w, resp.tuples_examined, n_rows),
        items.len(),
    );
    Ok(StepDone::of(
        sent,
        StepValue::CachedItems(items, harvest),
        StepValue::DroppedItems,
    ))
}

/// One Bloom-filter semijoin step.
pub(crate) fn exec_bloom<E: Exchanger>(
    d: &mut Delivery<'_, E>,
    cond: &Condition,
    bindings: &ItemSet,
    bits: u8,
    sources: &SourceSet,
) -> Result<StepDone> {
    let kind = StepKind::BloomSemijoin;
    if let Some(dropped) = d.given_up(kind, StepValue::DroppedItems) {
        return Ok(dropped);
    }
    let w = sources.get(d.source);
    let filter = fusion_types::BloomFilter::build(bindings, bits as f64);
    let resp = w.bloom_semijoin(cond, &filter)?;
    let sent = d.once(
        kind,
        ExchangeKind::BloomSemijoin,
        MessageSize::sq_request(cond) + filter.wire_size(),
        MessageSize::items_response(&resp.payload),
        proc_cost(w, resp.tuples_examined, resp.payload.len()),
        resp.payload.len(),
    );
    Ok(StepDone::of(
        sent,
        StepValue::Items(resp.payload),
        StepValue::DroppedItems,
    ))
}

/// One full-load step `lq(R)`; the fold turns delivered rows into a
/// [`Relation`] (an empty one for a dropped load).
pub(crate) fn exec_lq<E: Exchanger>(
    d: &mut Delivery<'_, E>,
    sources: &SourceSet,
) -> Result<StepDone> {
    let kind = StepKind::Load;
    if let Some(dropped) = d.given_up(kind, StepValue::DroppedRows) {
        return Ok(dropped);
    }
    let w = sources.get(d.source);
    let resp = w.load()?;
    let sent = d.once(
        kind,
        ExchangeKind::Load,
        MessageSize::lq_request(),
        MessageSize::tuples_response(&resp.payload),
        proc_cost(w, resp.tuples_examined, resp.payload.len()),
        resp.payload.len(),
    );
    Ok(StepDone::of(
        sent,
        StepValue::Rows(resp.payload),
        StepValue::DroppedRows,
    ))
}

/// One semijoin query, natively or — for a source that cannot — emulated
/// as passed-binding probes batched to the source's limit (§2.3).
pub(crate) fn run_semijoin<E: Exchanger>(
    d: &mut Delivery<'_, E>,
    cond: &Condition,
    bindings: &ItemSet,
    sources: &SourceSet,
) -> Result<StepDone> {
    let w = sources.get(d.source);
    let caps = *w.capabilities();
    let kind = if caps.native_semijoin {
        StepKind::Semijoin
    } else {
        StepKind::EmulatedSemijoin
    };
    if bindings.is_empty() {
        // X ⋉ ∅ = ∅: both the native and the emulated path resolve this
        // at the mediator for free — no round trip, no source work, no
        // fault exposure. The cost estimator agrees
        // (NetworkCostModel::sjq_cost at k = 0).
        return Ok(StepDone {
            value: StepValue::Items(ItemSet::empty()),
            entry: d.blank(kind),
        });
    }
    if let Some(dropped) = d.given_up(kind, StepValue::DroppedItems) {
        return Ok(dropped);
    }
    if caps.native_semijoin {
        let resp = w.semijoin(cond, bindings)?;
        let sent = d.once(
            kind,
            ExchangeKind::Semijoin,
            MessageSize::sjq_request(cond, bindings),
            MessageSize::items_response(&resp.payload),
            proc_cost(w, resp.tuples_examined, resp.payload.len()),
            resp.payload.len(),
        );
        return Ok(StepDone::of(
            sent,
            StepValue::Items(resp.payload),
            StepValue::DroppedItems,
        ));
    }
    if !caps.passed_bindings {
        return Err(FusionError::Unsupported {
            detail: format!(
                "source `{}` supports neither native nor emulated semijoins",
                w.name()
            ),
        });
    }
    // Emulation: one probe per batch of bindings (§2.3).
    let batch_size = caps.binding_batch.max(1);
    let mut result = ItemSet::empty();
    let mut entry = d.blank(kind);
    let items: Vec<_> = bindings.iter().cloned().collect();
    for chunk in items.chunks(batch_size) {
        let batch = ItemSet::from_items(chunk.iter().cloned());
        let resp = w.probe(cond, &batch)?;
        let spent = d.spent + entry.comm + entry.proc + entry.failed_cost;
        match d.send(
            ExchangeKind::BindingProbe,
            MessageSize::sjq_request(cond, &batch),
            MessageSize::items_response(&resp.payload),
            spent,
        ) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => {
                entry.comm += comm;
                entry.proc += proc_cost(w, resp.tuples_examined, resp.payload.len());
                entry.round_trips += 1;
                entry.attempts += attempts;
                entry.failed_cost += failed;
                result = result.union(&resp.payload);
            }
            Attempted::Exhausted { attempts, failed } => {
                // Batches already delivered stay paid for; the value is
                // discarded (items_out = 0) — a partially-probed
                // semijoin is not a sound value.
                entry.attempts += attempts;
                entry.failed_cost += failed;
                return Ok(StepDone {
                    value: StepValue::DroppedItems,
                    entry,
                });
            }
        }
    }
    entry.items_out = result.len();
    Ok(StepDone {
        value: StepValue::Items(result),
        entry,
    })
}

/// Counting semaphores, one per source: at most `limit` in-flight
/// exchanges per source across a server's queries. A run holds at most one
/// [`Permit`] at a time (acquire → exchange → drop): no hold-and-wait, no
/// deadlock, and a panicking exchange gives its permit back. Poison
/// recovery is sound: a count changes by one, whole or not at all.
pub(crate) struct SourceLimits {
    slots: Vec<(Mutex<usize>, Condvar)>,
    limit: usize,
}

impl SourceLimits {
    pub(crate) fn new(n_sources: usize, limit: usize) -> SourceLimits {
        SourceLimits {
            slots: (0..n_sources)
                .map(|_| (Mutex::new(0), Condvar::new()))
                .collect(),
            limit: limit.max(1),
        }
    }

    fn acquire(&self, source: SourceId) -> Permit<'_> {
        let (lock, cv) = &self.slots[source.0];
        let mut n = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while *n >= self.limit {
            n = cv.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n += 1;
        Permit {
            slot: &self.slots[source.0],
        }
    }
}

/// One in-flight exchange with a source, released when dropped — on
/// unwind too.
struct Permit<'a> {
    slot: &'a (Mutex<usize>, Condvar),
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let (lock, cv) = self.slot;
        let mut n = lock.lock().unwrap_or_else(PoisonError::into_inner);
        *n -= 1;
        drop(n);
        cv.notify_one();
    }
}

/// Entries the memo of derived sets holds before it starts over.
const DERIVED_SETS: usize = 64;

/// The server's memo of derived sets (DESIGN §13), a field of its core: a
/// `Union`, `Intersect` or `Diff` output, by the step kind and its inputs'
/// `Arc` addresses in plan order. An entry holds its inputs, so no address
/// in a live key can be reused: equal keys name the same immutable sets.
#[derive(Default)]
pub(crate) struct DerivedSets {
    /// Poison recovery is sound: the map is only looked up, inserted
    /// into or cleared, and none of those can leave it torn.
    pub(crate) sets: Mutex<HashMap<Vec<usize>, Derived>>,
}

pub(crate) struct Derived {
    /// Pinned: they keep the key's addresses unique.
    pub(crate) _inputs: Vec<Arc<ItemSet>>,
    pub(crate) out: Arc<ItemSet>,
}

impl DerivedSets {
    fn recall(&self, key: &[usize]) -> Option<Arc<ItemSet>> {
        let sets = self.sets.lock().unwrap_or_else(PoisonError::into_inner);
        sets.get(key).map(|d| Arc::clone(&d.out))
    }

    /// Keeps `out` under `key` (starting over when full) and returns the
    /// set to bind: a racing worker's, if one got here first.
    fn keep(&self, key: Vec<usize>, inputs: Vec<Arc<ItemSet>>, out: Arc<ItemSet>) -> Arc<ItemSet> {
        let mut sets = self.sets.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(kept) = sets.get(&key) {
            return Arc::clone(&kept.out);
        }
        if sets.len() >= DERIVED_SETS {
            sets.clear();
        }
        let derived = Derived {
            _inputs: inputs,
            out: Arc::clone(&out),
        };
        sets.insert(key, derived);
        out
    }
}

/// What a server run brings to its steps beyond the plan: the hits its
/// admission resolved, the share attaches and leads it decided, the
/// per-source permits, the pace and the memo of derived sets.
pub(crate) struct Supply<'a> {
    /// `hits[idx]`: selection step `idx` is served from the cache.
    pub(crate) hits: Vec<Option<Served>>,
    pub(crate) share: Option<&'a ShareCtx>,
    pub(crate) limits: Option<&'a SourceLimits>,
    /// Wall-clock seconds slept per cost unit of a fetched step.
    pub(crate) pace: Option<f64>,
    pub(crate) derived: &'a DerivedSets,
}

/// The state of one plan execution, shared by every driver.
///
/// An in-order driver hands each step to [`PlanRun::dispatch`]; the stage
/// pool fetches remote steps on workers ([`PlanRun::fetch`] — `&self`) and
/// folds what they return ([`PlanRun::fold`]). Then the driver
/// [`PlanRun::finish`]es.
pub(crate) struct PlanRun<'a> {
    /// Borrowed from the caller until a reopt [`PlanRun::splice`].
    plan: Cow<'a, Plan>,
    query: &'a FusionQuery,
    sources: &'a SourceSet,
    retry: Option<&'a RetryPolicy>,
    /// A cached run: selection misses fetch full records for admission.
    records: bool,
    /// One representation for served, fetched and computed sets: binding
    /// a hit is a reference-count bump.
    vars: Vec<Option<Arc<ItemSet>>>,
    rels: Vec<Option<Relation>>,
    rel_dropped: Vec<bool>,
    pending: Vec<PendingInsert>,
    dropped: Vec<usize>,
    missing_conds: Vec<CondId>,
    /// One ledger slot per plan step, filled in whatever order the
    /// driver runs them.
    entries: Vec<Option<LedgerEntry>>,
    /// [`StepKind::Reopt`] markers, each ordered before the step it names.
    markers: Vec<LedgerEntry>,
    /// Per-source fault state; empty (no allocation, no lock) without a
    /// retry policy.
    fts: Vec<Mutex<SourceFt>>,
    /// The BDD analysis [`Analysis::droppable`] needs — built on the
    /// first drop, so a run that drops nothing proves nothing.
    analysis: Option<Analysis>,
    /// Per-source failed-exchange counts before a retried cached run: a
    /// later increase means the source went through fault recovery.
    failed_before: Vec<usize>,
    /// Hits held for steps that have not run; empty until one is held.
    hits: Vec<Option<Served>>,
    /// A server run's supply ([`PlanRun::supply`]); its hits are in `hits`.
    supply: Option<Supply<'a>>,
    /// A server run's variables whose sets recur from query to query:
    /// served from the cache or held by the memo of derived sets.
    recurs: Vec<bool>,
}

impl<'a> PlanRun<'a> {
    /// Starts a run of a validated `plan`. `records` marks a cached run.
    ///
    /// # Errors
    /// Fails when the plan's shape does not match the query or sources,
    /// or the retry policy fails [`RetryPolicy::check`].
    pub(crate) fn new(
        plan: &'a Plan,
        query: &'a FusionQuery,
        sources: &'a SourceSet,
        network: &Network,
        retry: Option<&'a RetryPolicy>,
        records: bool,
    ) -> Result<PlanRun<'a>> {
        retry.map_or(Ok(()), RetryPolicy::check)?;
        if query.m() != plan.n_conditions {
            return Err(FusionError::invalid_plan(format!(
                "plan expects {} conditions, query has {}",
                plan.n_conditions,
                query.m()
            )));
        }
        if sources.len() != plan.n_sources {
            return Err(FusionError::invalid_plan(format!(
                "plan expects {} sources, got {}",
                plan.n_sources,
                sources.len()
            )));
        }
        // Fault state exists only where something can fail.
        let n_fts = if retry.is_some() { plan.n_sources } else { 0 };
        Ok(PlanRun {
            plan: Cow::Borrowed(plan),
            query,
            sources,
            retry,
            records,
            vars: vec![None; plan.var_names.len()],
            rels: vec![None; plan.rel_names.len()],
            rel_dropped: vec![false; plan.rel_names.len()],
            pending: Vec::new(),
            dropped: Vec::new(),
            missing_conds: Vec::new(),
            entries: vec![None; plan.steps.len()],
            markers: Vec::new(),
            fts: (0..n_fts).map(|_| Mutex::default()).collect(),
            analysis: None,
            failed_before: if records {
                (0..n_fts)
                    .map(|j| network.failed_count_for(SourceId(j)))
                    .collect()
            } else {
                Vec::new()
            },
            hits: Vec::new(),
            supply: None,
            recurs: Vec::new(),
        })
    }

    /// Makes this a server run of `supply`: its hits are held for their
    /// steps, and its extras serve [`PlanRun::dispatch`].
    pub(crate) fn supply(&mut self, mut supply: Supply<'a>) {
        self.hits = std::mem::take(&mut supply.hits);
        self.recurs = vec![false; self.plan.var_names.len()];
        self.supply = Some(supply);
    }

    /// The plan being run (the spliced one after a switch).
    pub(crate) fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The ledger entry of an executed step.
    pub(crate) fn entry(&self, idx: usize) -> Option<&LedgerEntry> {
        self.entries[idx].as_ref()
    }

    /// The first step that has not run yet.
    pub(crate) fn unexecuted(&self) -> Option<usize> {
        self.entries.iter().position(Option::is_none)
    }

    /// The size of a bound variable.
    pub(crate) fn var_len(&self, v: VarId) -> Option<usize> {
        self.vars[v.0].as_ref().map(|set| set.len())
    }

    /// Whether a relation variable has been loaded.
    pub(crate) fn rel_bound(&self, r: RelVar) -> bool {
        self.rels[r.0].is_some()
    }

    /// Cost of every step executed so far, summed in step order — what a
    /// driver samples (per step, per barrier, per replayed event) for
    /// the retry deadline's `spent`. Zero without a retry policy: plain
    /// delivery has no deadline to measure against.
    pub(crate) fn spent(&self) -> Cost {
        if self.retry.is_none() {
            return Cost::ZERO;
        }
        self.entries.iter().flatten().map(LedgerEntry::total).sum()
    }

    /// Whether nothing has been dropped so far.
    pub(crate) fn exact(&self) -> bool {
        self.dropped.is_empty()
    }

    /// Whether step `idx` was dropped: its ledger entry then reports no
    /// items because the source was given up on, not because none match.
    pub(crate) fn was_dropped(&self, idx: usize) -> bool {
        self.dropped.contains(&idx)
    }

    /// Removes and returns the pending admission of step `idx`.
    pub(crate) fn take_pending(&mut self, idx: usize) -> Option<PendingInsert> {
        let pos = self.pending.iter().position(|p| p.step == idx)?;
        Some(self.pending.remove(pos))
    }

    /// Whether `source` failed an exchange since the run began, per the
    /// *committed* trace. Always `false` outside retried cached runs.
    pub(crate) fn failed_since_start(&self, network: &Network, source: SourceId) -> bool {
        self.failed_before
            .get(source.0)
            .is_some_and(|before| network.failed_count_for(source) > *before)
    }

    /// Looks the selections of `segment` up in `cache` in step order and
    /// holds each one's hit, or no hit, until the step runs: a run gets a
    /// segment's hits before any of its steps runs.
    ///
    /// # Errors
    /// Propagates residual-filter evaluation errors.
    pub(crate) fn look_up(&mut self, segment: Range<usize>, cache: &mut AnswerCache) -> Result<()> {
        for idx in segment {
            let Step::Sq { cond, source, .. } = &self.plan.steps[idx] else {
                continue;
            };
            let (cond, schema) = (&self.query.conditions()[cond.0], self.query.schema());
            let hit = cache.lookup(*source, cond, schema)?;
            if hit.is_some() && self.hits.len() <= idx {
                self.hits.resize(self.plan.steps.len(), None);
            }
            if let Some(slot) = self.hits.get_mut(idx) {
                *slot = hit;
            }
        }
        Ok(())
    }

    /// Binds selection step `idx` to a hit — from the answer cache, or
    /// (`shared`) from another in-flight query's merged fetch. Free.
    ///
    /// # Panics
    /// Panics if step `idx` is not a selection.
    fn serve(&mut self, idx: usize, hit: Served, shared: bool) {
        let Step::Sq { out, source, .. } = &self.plan.steps[idx] else {
            unreachable!("hit on non-selection step #{idx}");
        };
        self.entries[idx] = Some(served_entry(idx, *source, &hit, shared));
        self.vars[out.0] = Some(hit.items);
    }

    /// The shared set a bound variable holds.
    fn var_shared(&self, v: VarId) -> &Arc<ItemSet> {
        self.vars[v.0].as_ref().expect("validated: def before use")
    }

    /// The value of a bound variable.
    pub(crate) fn var(&self, v: VarId) -> &ItemSet {
        self.var_shared(v)
    }

    /// The value of mediator-local step `idx`, computed from its bound
    /// inputs and bound nowhere.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    ///
    /// # Panics
    /// Panics if called with a remote step.
    fn compute_local(&self, idx: usize) -> Result<Arc<ItemSet>> {
        Ok(match &self.plan.steps[idx] {
            Step::LocalSq { cond, rel, .. } => {
                let relation = self.rels[rel.0]
                    .as_ref()
                    .expect("validated: loaded before use");
                Arc::new(
                    relation
                        .select_items(&self.query.conditions()[cond.0])?
                        .items,
                )
            }
            Step::Union { inputs, .. } => {
                Arc::new(ItemSet::union_all(inputs.iter().map(|v| self.var(*v))))
            }
            Step::Intersect { inputs, .. } => {
                let mut sets = inputs.iter().map(|v| self.var_shared(*v));
                let first = sets.next().expect("validated");
                match sets.next() {
                    Some(second) => {
                        Arc::new(sets.fold(first.intersect(second), |acc, s| acc.intersect(s)))
                    }
                    None => Arc::clone(first),
                }
            }
            Step::Diff { left, right, .. } => {
                Arc::new(self.var(*left).difference(self.var(*right)))
            }
            remote => panic!("PlanRun::compute_local called with remote step {remote:?}"),
        })
    }

    /// Binds mediator-local step `idx` to `value` — computed, or recalled
    /// by a driver that has seen the same inputs before — and fills its
    /// ledger slot: the one place a [`StepKind::Local`] entry is built.
    ///
    /// # Panics
    /// Panics if called with a remote step.
    fn bind_local(&mut self, idx: usize, value: Arc<ItemSet>) {
        let out = match &self.plan.steps[idx] {
            Step::LocalSq { out, cond, rel } => {
                if self.rel_dropped[rel.0] {
                    self.missing_conds.push(*cond);
                }
                *out
            }
            Step::Union { out, .. } | Step::Intersect { out, .. } | Step::Diff { out, .. } => *out,
            remote => panic!("PlanRun::bind_local called with remote step {remote:?}"),
        };
        self.entries[idx] = Some(LedgerEntry {
            step: idx,
            kind: StepKind::Local,
            source: None,
            comm: Cost::ZERO,
            proc: Cost::ZERO,
            round_trips: 0,
            items_out: value.len(),
            attempts: 0,
            failed_cost: Cost::ZERO,
        });
        self.vars[out.0] = Some(value);
    }

    /// Fetches remote step `idx` over `ex` — the single step dispatch of
    /// every driver. Takes `&self` so stage workers can run it: its
    /// shared-state footprint is the step's input variables and the
    /// step's source (exchange, fault cursor, and — retried — the
    /// source's [`SourceFt`] behind its mutex), nothing else. `spent`
    /// is the retry deadline's basis, sampled by the driver. Cache
    /// *hits* never reach this function.
    ///
    /// # Errors
    /// Propagates wrapper and capability failures.
    ///
    /// # Panics
    /// Panics when called with a mediator-local step.
    fn fetch<E: Exchanger>(&self, idx: usize, ex: &mut E, spent: Cost) -> Result<StepDone> {
        let step = &self.plan.steps[idx];
        let source = step
            .source()
            .unwrap_or_else(|| panic!("PlanRun::fetch called with local step {step:?}"));
        // Poison recovery is sound: a `SourceFt` is two plain fields,
        // each valid at every point of `retry_loop`.
        let mut ft = self
            .fts
            .get(source.0)
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner));
        let mut d = Delivery {
            net: ex,
            step: idx,
            source,
            retry: self.retry.zip(ft.as_deref_mut()),
            spent,
        };
        let conditions = self.query.conditions();
        match step {
            Step::Sq { cond, .. } if self.records => exec_sq_records(
                &mut d,
                &conditions[cond.0],
                self.query.schema(),
                self.sources,
            ),
            Step::Sq { cond, .. } => exec_sq(&mut d, &conditions[cond.0], self.sources),
            Step::Sjq { cond, input, .. } => {
                run_semijoin(&mut d, &conditions[cond.0], self.var(*input), self.sources)
            }
            Step::SjqBloom {
                cond, input, bits, ..
            } => exec_bloom(
                &mut d,
                &conditions[cond.0],
                self.var(*input),
                *bits,
                self.sources,
            ),
            Step::Lq { .. } => exec_lq(&mut d, self.sources),
            _ => unreachable!("a step with a source is remote"),
        }
    }

    /// Drops step `idx`, verifying via the BDD analysis that the
    /// cumulative degraded plan still computes a subset of the fusion
    /// answer.
    fn drop_step(&mut self, idx: usize) -> Result<()> {
        self.dropped.push(idx);
        let analysis = match &mut self.analysis {
            Some(analysis) => analysis,
            none => {
                let analysis = fusion_core::analyze::analyze_plan(&self.plan)?;
                analysis.require_proved()?;
                none.insert(analysis)
            }
        };
        if analysis.droppable(&self.plan, &self.dropped) {
            Ok(())
        } else {
            Err(FusionError::execution(format!(
                "source failure at step #{idx}: dropping it would not \
                 yield a sound subset of the fusion answer (the step's \
                 value is used non-monotonically); aborting instead"
            )))
        }
    }

    /// Folds one fetched step into the run: its ledger slot, its output
    /// variable, its pending cache admission (weighted by the entry's
    /// fetch price), or — for a dropped step — the drop check.
    ///
    /// # Errors
    /// Fails when a dropped step cannot be soundly dropped.
    fn fold(&mut self, idx: usize, done: StepDone) -> Result<()> {
        let refetch = done.entry.comm + done.entry.proc;
        self.entries[idx] = Some(done.entry);
        let schema = self.query.schema();
        match (done.value, &self.plan.steps[idx]) {
            (
                StepValue::Items(items),
                Step::Sq { out, .. } | Step::Sjq { out, .. } | Step::SjqBloom { out, .. },
            ) => {
                self.vars[out.0] = Some(Arc::new(items));
            }
            (StepValue::CachedItems(items, rows), Step::Sq { out, cond, source }) => {
                self.pending.push(PendingInsert {
                    step: idx,
                    source: *source,
                    cond: self.query.conditions()[cond.0].clone(),
                    rows,
                    refetch,
                });
                self.vars[out.0] = Some(items);
            }
            (StepValue::Rows(rows), Step::Lq { out, .. }) => {
                self.rels[out.0] = Some(Relation::from_rows(schema.clone(), rows));
            }
            (
                StepValue::DroppedItems,
                Step::Sq { out, cond, .. }
                | Step::Sjq { out, cond, .. }
                | Step::SjqBloom { out, cond, .. },
            ) => {
                let (out, cond) = (*out, *cond);
                self.drop_step(idx)?;
                self.missing_conds.push(cond);
                self.vars[out.0] = Some(Arc::new(ItemSet::empty()));
            }
            (StepValue::DroppedRows, Step::Lq { out, .. }) => {
                let out = *out;
                self.drop_step(idx)?;
                // Later local selections over the relation run against an
                // empty table and yield ∅ — exactly the degraded semantics
                // the BDD check verified.
                self.rels[out.0] = Some(Relation::from_rows(schema.clone(), vec![]));
                self.rel_dropped[out.0] = true;
            }
            (_, step) => unreachable!("step/value shape mismatch at {step:?}"),
        }
        Ok(())
    }

    /// Runs step `idx` on the calling thread. A local step runs. A held hit
    /// is served: it was looked up before anything could find its source
    /// dead. A share attach waits for its leader's harvest and serves it as
    /// a cache hit would. Anything else is fetched with the running ledger
    /// total as its deadline basis — in a server run under the source's
    /// permit, then paced, then published if the run leads its share (after
    /// the pace: no follower sees records before the leader's fetch ends in
    /// simulated time) — and folded.
    ///
    /// # Errors
    /// As [`PlanRun::fetch`] and [`PlanRun::fold`]; a failed leader or
    /// residual filter; a pace no step can sleep by.
    pub(crate) fn dispatch<E: Exchanger>(&mut self, idx: usize, ex: &mut E) -> Result<()> {
        let Some(source) = self.plan.steps[idx].source() else {
            return self.run_local(idx);
        };
        if let Some(hit) = self.hits.get_mut(idx).and_then(Option::take) {
            // A reference-count bump: the set stays the cache entry's.
            self.serve(idx, hit, false);
            self.recur(idx);
            return Ok(());
        }
        let share = self.supply.as_ref().and_then(|s| s.share);
        let attach = share.and_then(|s| s.attach[idx].as_ref());
        if let (Step::Sq { cond, .. }, Some(att)) = (&self.plan.steps[idx], attach) {
            let kind = if att.residual {
                HitKind::Subsumed
            } else {
                HitKind::Exact
            };
            let cond = &self.query.conditions()[cond.0];
            let hit = ResolvedHit::from_harvest(att.slot.wait()?, source, kind)
                .serve(cond, self.query.schema())?;
            self.serve(idx, hit, true);
            return Ok(());
        }
        let limits = self.supply.as_ref().and_then(|s| s.limits);
        let permit = limits.map(|l| l.acquire(source));
        let done = self.fetch(idx, ex, self.spent());
        drop(permit);
        let done = done?;
        if let Some(supply) = &self.supply {
            pace_sleep(supply.pace, done.entry.total())?;
        }
        if let (Some(slot), StepValue::CachedItems(_, harvest)) =
            (share.and_then(|s| s.leads[idx].as_ref()), &done.value)
        {
            slot.publish(Arc::clone(harvest));
        }
        self.fold(idx, done)
    }

    /// Runs mediator-local step `idx`. Free. In a server run, a set step
    /// whose inputs all recur goes through the memo of derived sets: the
    /// same input `Arc`s seen before recall the stored output instead of
    /// recomputing it, and a computed output is kept for next time. Any
    /// other step — one with a fetched or share-served input — is computed
    /// and never kept.
    fn run_local(&mut self, idx: usize) -> Result<()> {
        let step = &self.plan.steps[idx];
        let kind = match step {
            Step::Union { .. } => Some(0),
            Step::Intersect { .. } => Some(1),
            Step::Diff { .. } => Some(2),
            _ => None,
        };
        let derived = self.supply.as_ref().map(|s| s.derived);
        let memo = derived.zip(kind).and_then(|(derived, kind)| {
            let inputs = step.used_vars();
            let recur = inputs.iter().all(|v| self.recurs[v.0]);
            recur.then_some((derived, kind, inputs))
        });
        let Some((derived, kind, inputs)) = memo else {
            let value = self.compute_local(idx)?;
            self.bind_local(idx, value);
            return Ok(());
        };
        let addrs = inputs
            .iter()
            .map(|v| Arc::as_ptr(self.var_shared(*v)) as usize);
        let key: Vec<usize> = std::iter::once(kind).chain(addrs).collect();
        let value = match derived.recall(&key) {
            Some(recalled) => {
                debug_assert_eq!(*self.compute_local(idx)?, *recalled, "recalled step #{idx}");
                recalled
            }
            None => {
                let pins = inputs.iter().map(|v| Arc::clone(self.var_shared(*v)));
                derived.keep(key, pins.collect(), self.compute_local(idx)?)
            }
        };
        self.bind_local(idx, value);
        self.recur(idx);
        Ok(())
    }

    /// Marks step `idx`'s output as recurring (a server run only).
    fn recur(&mut self, idx: usize) {
        let out = self.plan.steps[idx].defined_var();
        if let Some(recurs) = out.and_then(|v| self.recurs.get_mut(v.0)) {
            *recurs = true;
        }
    }

    /// Runs one stage: the remote steps of `steps` with no held hit on up
    /// to `threads` workers sharing `net`, folded at the barrier in step
    /// order no matter which worker finished first; then the stage's
    /// other steps, dispatched in step order. `pace` makes each worker
    /// [`pace_sleep`] after its step. The caller commits the network.
    ///
    /// # Errors
    /// The error of the lowest-indexed failing step.
    pub(crate) fn stage(
        &mut self,
        steps: &[usize],
        net: &Network,
        threads: usize,
        pace: Option<f64>,
        spent: Cost,
    ) -> Result<()> {
        let held = |i: usize| self.hits.get(i).is_some_and(Option::is_some);
        let remote: Vec<usize> = steps
            .iter()
            .copied()
            .filter(|&i| self.plan.steps[i].source().is_some() && !held(i))
            .collect();
        let run = &*self;
        let results = run_stage(threads, &remote, |idx| {
            let done = run.fetch(idx, &mut SharedExchanger { net, step: idx }, spent)?;
            pace_sleep(pace, done.entry.total())?;
            Ok(done)
        });
        for (idx, done) in results {
            self.fold(idx, done?)?;
        }
        for &idx in steps {
            if self.entries[idx].is_none() {
                self.dispatch(idx, &mut SharedExchanger { net, step: idx })?;
            }
        }
        Ok(())
    }

    /// Reopt: continues the run under `new_plan` — certified by the
    /// caller to share the executed prefix, so the dropped step indices
    /// stay valid — recording `marker` ahead of the first spliced step.
    /// The drop-check analysis was built for the old plan and is
    /// discarded; the next drop rebuilds it for the new one.
    pub(crate) fn splice(&mut self, new_plan: Plan, marker: LedgerEntry) {
        self.analysis = None;
        self.vars.resize(new_plan.var_names.len(), None);
        self.rels.resize(new_plan.rel_names.len(), None);
        self.rel_dropped.resize(new_plan.rel_names.len(), false);
        self.entries.resize(new_plan.steps.len(), None);
        self.markers.push(marker);
        self.plan = Cow::Owned(new_plan);
    }

    /// Ends the run: the ledger in step order (reopt markers in place),
    /// the answer, the one completeness fold and the one cache-commit tail.
    /// With an exclusive `cache`, every source that failed an exchange
    /// during the run (per the committed trace) went through fault
    /// recovery — its epoch is bumped, killing its older entries, and its
    /// fresh answers are withheld; the rest are admitted, as non-exact
    /// (never servable) if the run degraded. Without one, the admissions
    /// still pending are handed back, for whoever owns the commit.
    ///
    /// # Panics
    /// Panics if a step never ran.
    pub(crate) fn finish(
        mut self,
        network: &Network,
        cache: Option<&mut AnswerCache>,
    ) -> (ExecutionOutcome, Vec<PendingInsert>) {
        let failed: Vec<bool> = (0..self.failed_before.len())
            .map(|j| self.failed_since_start(network, SourceId(j)))
            .collect();
        let mut ledger = CostLedger::new();
        let mut markers = self.markers.into_iter().peekable();
        for (idx, entry) in self.entries.into_iter().enumerate() {
            while let Some(marker) = markers.next_if(|m| m.step == idx) {
                ledger.push(marker);
            }
            ledger.push(entry.expect("every step executed"));
        }
        // The result may still be shared with a cache entry (a one-step
        // plan served by an exact hit): unwrap when sole owner, else copy.
        let answer = self.vars[self.plan.result.0]
            .take()
            .map(Arc::unwrap_or_clone)
            .expect("validated: result defined");
        let completeness = if self.dropped.is_empty() {
            Completeness::Exact
        } else {
            let mut missing_sources: Vec<SourceId> = self
                .dropped
                .iter()
                .filter_map(|&i| self.plan.steps[i].source())
                .collect();
            missing_sources.sort_unstable();
            missing_sources.dedup();
            self.missing_conds.sort_unstable();
            self.missing_conds.dedup();
            Completeness::Subset {
                missing_sources,
                missing_conditions: self.missing_conds,
            }
        };
        let outcome = ExecutionOutcome {
            answer,
            ledger,
            completeness,
        };
        let Some(cache) = cache else {
            return (outcome, self.pending);
        };
        for (j, _) in failed.iter().enumerate().filter(|(_, f)| **f) {
            cache.bump_epoch(SourceId(j));
        }
        let exact = outcome.completeness.is_exact();
        commit_inserts(cache, self.pending, exact, &failed);
        (outcome, Vec::new())
    }
}

/// Sleeps `pace` wall-clock seconds per cost unit of a finished step.
///
/// # Errors
/// Fails when the product is not a representable duration.
pub(crate) fn pace_sleep(pace: Option<f64>, cost: Cost) -> Result<()> {
    let secs = pace.map_or(0.0, |pace| cost.value() * pace);
    if secs > 0.0 {
        let nap = Duration::try_from_secs_f64(secs).map_err(|e| {
            FusionError::execution(format!("pace: a step of cost {cost} sleeps {secs} s: {e}"))
        })?;
        std::thread::sleep(nap);
    }
    Ok(())
}

/// The cursor-and-barrier of the stage pool: runs `work` for every
/// index of `jobs` on up to `threads` scoped workers and returns the
/// results sorted by index.
fn run_stage<T: Send>(
    threads: usize,
    jobs: &[usize],
    work: impl Fn(usize) -> T + Sync,
) -> Vec<(usize, T)> {
    let cursor = AtomicUsize::new(0);
    // Poison recovery is sound: the vector only ever receives complete
    // `(idx, result)` pushes, so it is valid whenever a worker died.
    let results = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(jobs.len()) {
            scope.spawn(|| {
                while let Some(&idx) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let r = work(idx);
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((idx, r));
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|(idx, _)| *idx);
    results
}
