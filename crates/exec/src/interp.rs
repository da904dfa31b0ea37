//! Sequential plan interpretation with cost accounting.
//!
//! The per-step execution logic (wrapper call, message sizing, exchange,
//! ledger entry) lives in helpers generic over an [`Exchanger`] — the
//! exclusive legacy [`Network`] API for sequential execution, or a
//! step-tagged shared handle for [`crate::parallel`] workers — so both
//! executors run the *same* code and byte-identical ledgers fall out by
//! construction.

use crate::cached::{
    commit_inserts, exec_sq_records, exec_sq_records_ft, served_entry, PendingInsert,
};
use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use crate::retry::{Completeness, RetryPolicy};
use fusion_cache::AnswerCache;
use fusion_core::plan::{Plan, Step};
use fusion_core::query::FusionQuery;
use fusion_net::{ExchangeKind, FailedExchange, FaultKind, MessageSize, Network};
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Condition, Cost, ItemSet, Relation, Schema, SourceId, Tuple};

/// How a step reaches the network: exclusively (sequential execution) or
/// through a shared, step-tagged source handle (parallel workers).
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

/// The [`Exchanger`] parallel workers use: exchanges go through a shared
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

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The query answer.
    pub answer: ItemSet,
    /// Per-step executed costs.
    pub ledger: CostLedger,
    /// Whether the answer is exact or a sound subset (steps were dropped
    /// after a source was given up on). Always [`Completeness::Exact`]
    /// outside fault-tolerant execution.
    pub completeness: Completeness,
}

impl ExecutionOutcome {
    /// Total executed cost.
    pub fn total_cost(&self) -> Cost {
        self.ledger.total()
    }
}

/// Executes `plan` for `query` against `sources` over `network`.
///
/// Remote steps are charged communication costs through the network's
/// links plus processing costs from each wrapper's profile. A semijoin
/// query to a source without native support is emulated as passed-binding
/// probes, batched to the source's advertised limit (§2.3); a source that
/// supports neither fails the execution — mirroring the infinite cost the
/// optimizer would have assigned.
///
/// Before touching any source, the plan is put through the semantic
/// analyzer ([`fusion_core::analyze`]): a plan that provably does *not*
/// compute the fusion query is refused outright, with the refuting
/// counterexample in the error. Deliberately partial plans (e.g. a probe
/// of a single round) can bypass the guard via
/// [`execute_plan_unchecked`].
///
/// # Errors
/// Fails on structurally invalid or semantically unsound plans,
/// capability violations, and predicate evaluation errors.
pub fn execute_plan(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    fusion_core::analyze::ensure_sound(plan)?;
    run_sequential(plan, query, sources, network, None)
}

/// [`execute_plan`] without the semantic-soundness guard: the plan is
/// still structurally validated, but it may compute something other
/// than the fusion answer (useful for executing partial plans).
///
/// # Errors
/// Fails on structurally invalid plans, capability violations, and
/// predicate evaluation errors.
pub fn execute_plan_unchecked(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    plan.validate()?;
    run_sequential(plan, query, sources, network, None)
}

/// The sequential execution loop, with or without an answer cache
/// attached. `None` is [`execute_plan_unchecked`]; `Some` additionally
/// serves selections from the cache (free `sq(cache)` / `sq(residual)`
/// entries), fetches misses as full records, and admits them once the
/// run completes — see [`crate::cached`] for the contract. The caller
/// has validated `plan`.
pub(crate) fn run_sequential(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    mut cache: Option<&mut AnswerCache>,
) -> Result<ExecutionOutcome> {
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
    let conditions = query.conditions();
    let mut vars: Vec<Option<ItemSet>> = vec![None; plan.var_names.len()];
    let mut rels: Vec<Option<Relation>> = vec![None; plan.rel_names.len()];
    let mut rel_dropped = vec![false; plan.rel_names.len()];
    let mut ledger = CostLedger::new();
    let mut pending: Vec<PendingInsert> = Vec::new();
    // Plain exchanges never drop steps, so these stay empty.
    let mut dropped: Vec<usize> = Vec::new();
    let mut missing_conds: Vec<CondId> = Vec::new();
    for (idx, step) in plan.steps.iter().enumerate() {
        if step.source().is_none() {
            let entry = exec_local_step(idx, step, conditions, &mut vars, &rels)?;
            ledger.push(entry);
            continue;
        }
        if let Step::Sq { out, cond, source } = step {
            let served = match cache.as_deref_mut() {
                Some(cache) => cache.lookup(*source, &conditions[cond.0], query.schema())?,
                None => None,
            };
            if let Some(served) = served {
                ledger.push(served_entry(idx, *source, &served));
                vars[out.0] = Some(served.items);
                continue;
            }
        }
        let records = cache.is_some().then(|| query.schema());
        let done = dispatch_remote_step(
            idx,
            step,
            conditions,
            sources,
            network,
            &vars,
            None,
            Cost::ZERO,
            records,
        )?;
        let refetch = done.entry.comm + done.entry.proc;
        ledger.push(done.entry);
        apply_step_done(
            plan,
            query.schema(),
            conditions,
            idx,
            done.value,
            refetch,
            &mut vars,
            &mut rels,
            &mut rel_dropped,
            &mut pending,
            &mut dropped,
            &mut missing_conds,
            None,
        )?;
    }
    let answer = vars[plan.result.0]
        .take()
        .expect("validated: result defined");
    if let Some(cache) = cache {
        // Plain exchanges are infallible, so every answer is exact and no
        // source needs a recovery epoch bump.
        commit_inserts(cache, pending, true, &[]);
    }
    Ok(ExecutionOutcome {
        answer,
        ledger,
        completeness: Completeness::Exact,
    })
}

/// Executes one selection step: `sq(c, R)` plus its ledger entry.
pub(crate) fn exec_sq<E: Exchanger>(
    idx: usize,
    source: SourceId,
    cond: &Condition,
    sources: &SourceSet,
    network: &mut E,
) -> Result<(ItemSet, LedgerEntry)> {
    let w = sources.get(source);
    let resp = w.select(cond)?;
    let req_bytes = MessageSize::sq_request(cond);
    let resp_bytes = MessageSize::items_response(&resp.payload);
    let comm = network.exchange(source, ExchangeKind::Selection, req_bytes, resp_bytes);
    let proc = Cost::new(
        w.processing()
            .cost(resp.tuples_examined, resp.payload.len()),
    );
    let entry = LedgerEntry {
        step: idx,
        kind: StepKind::Selection,
        source: Some(source),
        comm,
        proc,
        round_trips: 1,
        items_out: resp.payload.len(),
        attempts: 1,
        failed_cost: Cost::ZERO,
    };
    Ok((resp.payload, entry))
}

/// Executes one Bloom-filter semijoin step plus its ledger entry.
pub(crate) fn exec_bloom<E: Exchanger>(
    idx: usize,
    source: SourceId,
    cond: &Condition,
    bindings: &ItemSet,
    bits: u8,
    sources: &SourceSet,
    network: &mut E,
) -> Result<(ItemSet, LedgerEntry)> {
    let w = sources.get(source);
    let filter = fusion_types::BloomFilter::build(bindings, bits as f64);
    let resp = w.bloom_semijoin(cond, &filter)?;
    let req_bytes = MessageSize::sq_request(cond) + filter.wire_size();
    let resp_bytes = MessageSize::items_response(&resp.payload);
    let comm = network.exchange(source, ExchangeKind::BloomSemijoin, req_bytes, resp_bytes);
    let proc = Cost::new(
        w.processing()
            .cost(resp.tuples_examined, resp.payload.len()),
    );
    let entry = LedgerEntry {
        step: idx,
        kind: StepKind::BloomSemijoin,
        source: Some(source),
        comm,
        proc,
        round_trips: 1,
        items_out: resp.payload.len(),
        attempts: 1,
        failed_cost: Cost::ZERO,
    };
    Ok((resp.payload, entry))
}

/// Executes one full-load step `lq(R)` plus its ledger entry; the caller
/// turns the rows into a [`Relation`] under the query schema.
pub(crate) fn exec_lq<E: Exchanger>(
    idx: usize,
    source: SourceId,
    sources: &SourceSet,
    network: &mut E,
) -> Result<(Vec<Tuple>, LedgerEntry)> {
    let w = sources.get(source);
    let resp = w.load()?;
    let req_bytes = MessageSize::lq_request();
    let resp_bytes = MessageSize::tuples_response(&resp.payload);
    let comm = network.exchange(source, ExchangeKind::Load, req_bytes, resp_bytes);
    let proc = Cost::new(
        w.processing()
            .cost(resp.tuples_examined, resp.payload.len()),
    );
    let entry = LedgerEntry {
        step: idx,
        kind: StepKind::Load,
        source: Some(source),
        comm,
        proc,
        round_trips: 1,
        items_out: resp.payload.len(),
        attempts: 1,
        failed_cost: Cost::ZERO,
    };
    Ok((resp.payload, entry))
}

/// Executes one mediator-local step (`LocalSq`, `Union`, `Intersect`,
/// `Diff`), writing its output variable and returning the (free) ledger
/// entry.
///
/// # Panics
/// Panics if called with a remote step.
pub(crate) fn exec_local_step(
    idx: usize,
    step: &Step,
    conditions: &[Condition],
    vars: &mut [Option<ItemSet>],
    rels: &[Option<Relation>],
) -> Result<LedgerEntry> {
    match step {
        Step::LocalSq { out, cond, rel } => {
            let relation = rels[rel.0].as_ref().expect("validated: loaded before use");
            let r = relation.select_items(&conditions[cond.0])?;
            let entry = local_entry(idx, r.items.len());
            vars[out.0] = Some(r.items);
            Ok(entry)
        }
        Step::Union { out, inputs } => {
            let sets: Vec<&ItemSet> = inputs
                .iter()
                .map(|v| vars[v.0].as_ref().expect("validated"))
                .collect();
            let u = ItemSet::union_all(sets);
            let entry = local_entry(idx, u.len());
            vars[out.0] = Some(u);
            Ok(entry)
        }
        Step::Intersect { out, inputs } => {
            let mut sets = inputs
                .iter()
                .map(|v| vars[v.0].as_ref().expect("validated"));
            let first = sets.next().expect("validated");
            let acc = match sets.next() {
                Some(second) => sets.fold(first.intersect(second), |acc, s| acc.intersect(s)),
                None => first.clone(),
            };
            let entry = local_entry(idx, acc.len());
            vars[out.0] = Some(acc);
            Ok(entry)
        }
        Step::Diff { out, left, right } => {
            let l = vars[left.0].as_ref().expect("validated");
            let r = vars[right.0].as_ref().expect("validated");
            let d = l.difference(r);
            let entry = local_entry(idx, d.len());
            vars[out.0] = Some(d);
            Ok(entry)
        }
        remote => panic!("exec_local_step called with remote step {remote:?}"),
    }
}

fn local_entry(step: usize, items_out: usize) -> LedgerEntry {
    LedgerEntry {
        step,
        kind: StepKind::Local,
        source: None,
        comm: Cost::ZERO,
        proc: Cost::ZERO,
        round_trips: 0,
        items_out,
        attempts: 0,
        failed_cost: Cost::ZERO,
    }
}

/// Executes one semijoin query, natively or by emulation.
pub(crate) fn run_semijoin<E: Exchanger>(
    step: usize,
    source: SourceId,
    cond: &fusion_types::Condition,
    bindings: &ItemSet,
    sources: &SourceSet,
    network: &mut E,
) -> Result<(ItemSet, LedgerEntry)> {
    let w = sources.get(source);
    let caps = *w.capabilities();
    if bindings.is_empty() {
        // X ⋉ ∅ = ∅: both the native and the emulated path resolve this
        // at the mediator for free — no round trip, no source work. The
        // cost estimator agrees (NetworkCostModel::sjq_cost at k = 0).
        let kind = if caps.native_semijoin {
            StepKind::Semijoin
        } else {
            StepKind::EmulatedSemijoin
        };
        let entry = LedgerEntry {
            step,
            kind,
            source: Some(source),
            comm: Cost::ZERO,
            proc: Cost::ZERO,
            round_trips: 0,
            items_out: 0,
            attempts: 0,
            failed_cost: Cost::ZERO,
        };
        return Ok((ItemSet::empty(), entry));
    }
    if caps.native_semijoin {
        let resp = w.semijoin(cond, bindings)?;
        let req_bytes = MessageSize::sjq_request(cond, bindings);
        let resp_bytes = MessageSize::items_response(&resp.payload);
        let comm = network.exchange(source, ExchangeKind::Semijoin, req_bytes, resp_bytes);
        let proc = Cost::new(
            w.processing()
                .cost(resp.tuples_examined, resp.payload.len()),
        );
        let entry = LedgerEntry {
            step,
            kind: StepKind::Semijoin,
            source: Some(source),
            comm,
            proc,
            round_trips: 1,
            items_out: resp.payload.len(),
            attempts: 1,
            failed_cost: Cost::ZERO,
        };
        return Ok((resp.payload, entry));
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
    let mut comm = Cost::ZERO;
    let mut proc = Cost::ZERO;
    let mut round_trips = 0usize;
    let items: Vec<_> = bindings.iter().cloned().collect();
    for chunk in items.chunks(batch_size) {
        let batch = ItemSet::from_items(chunk.iter().cloned());
        let resp = w.probe(cond, &batch)?;
        let req_bytes = MessageSize::sjq_request(cond, &batch);
        let resp_bytes = MessageSize::items_response(&resp.payload);
        comm += network.exchange(source, ExchangeKind::BindingProbe, req_bytes, resp_bytes);
        proc += Cost::new(
            w.processing()
                .cost(resp.tuples_examined, resp.payload.len()),
        );
        round_trips += 1;
        result = result.union(&resp.payload);
    }
    let entry = LedgerEntry {
        step,
        kind: StepKind::EmulatedSemijoin,
        source: Some(source),
        comm,
        proc,
        round_trips,
        items_out: result.len(),
        attempts: round_trips,
        failed_cost: Cost::ZERO,
    };
    Ok((result, entry))
}

/// One source's fault-handling state: whether it was given up on, and
/// the consecutive-failure count feeding its circuit breaker.
///
/// The parallel executor keeps one of these per source behind a mutex;
/// the sequential executors keep a plain vector inside [`FtState`]. The
/// retry logic itself ([`retry_loop`]) is shared.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceFt {
    /// Given up on (outage, tripped breaker, retry exhaustion).
    pub(crate) dead: bool,
    /// Consecutive failures (circuit-breaker input).
    pub(crate) consecutive: usize,
}

/// Result of pushing one exchange through the retry loop.
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
pub(crate) fn retry_loop<E: Exchanger>(
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

/// Per-query fault-handling state for [`execute_plan_ft`].
pub(crate) struct FtState<'a> {
    pub(crate) policy: &'a RetryPolicy,
    /// Per-source breaker/death state.
    pub(crate) srcs: Vec<SourceFt>,
}

impl<'a> FtState<'a> {
    /// Fresh state: all sources alive, breakers reset.
    pub(crate) fn new(policy: &'a RetryPolicy, n_sources: usize) -> FtState<'a> {
        FtState {
            policy,
            srcs: vec![SourceFt::default(); n_sources],
        }
    }

    /// Whether `source` has been given up on.
    pub(crate) fn dead(&self, source: SourceId) -> bool {
        self.srcs[source.0].dead
    }

    /// Mutable access to one source's state.
    pub(crate) fn src_mut(&mut self, source: SourceId) -> &mut SourceFt {
        &mut self.srcs[source.0]
    }

    /// See [`retry_loop`].
    pub(crate) fn try_with_retry<E: Exchanger>(
        &mut self,
        network: &mut E,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
        spent: Cost,
    ) -> Attempted {
        retry_loop(
            self.policy,
            network,
            &mut self.srcs[source.0],
            source,
            kind,
            req_bytes,
            resp_bytes,
            spent,
        )
    }
}

/// A ledger entry for a dropped remote step: nothing delivered, but the
/// failed attempts that led to giving up are still charged.
pub(crate) fn dropped_entry(
    step: usize,
    kind: StepKind,
    source: SourceId,
    attempts: usize,
    failed: Cost,
) -> LedgerEntry {
    LedgerEntry {
        step,
        kind,
        source: Some(source),
        comm: Cost::ZERO,
        proc: Cost::ZERO,
        round_trips: 0,
        items_out: 0,
        attempts,
        failed_cost: failed,
    }
}

/// What a fault-aware remote step came back with: the delivered value
/// plus its entry, or the entry of a dropped step (dead source or retry
/// exhaustion — the caller decides whether dropping is sound).
pub(crate) enum FtFetched<T> {
    Done(T, LedgerEntry),
    Dropped(LedgerEntry),
}

/// Fault-aware selection step: dead sources are dropped up front;
/// otherwise the exchange runs through the retry loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_sq_ft<E: Exchanger>(
    idx: usize,
    source: SourceId,
    cond: &Condition,
    sources: &SourceSet,
    network: &mut E,
    policy: &RetryPolicy,
    ft: &mut SourceFt,
    spent: Cost,
) -> Result<FtFetched<ItemSet>> {
    let kind = StepKind::Selection;
    if ft.dead {
        return Ok(FtFetched::Dropped(dropped_entry(
            idx,
            kind,
            source,
            0,
            Cost::ZERO,
        )));
    }
    let w = sources.get(source);
    let resp = w.select(cond)?;
    let req_bytes = MessageSize::sq_request(cond);
    let resp_bytes = MessageSize::items_response(&resp.payload);
    Ok(
        match retry_loop(
            policy,
            network,
            ft,
            source,
            ExchangeKind::Selection,
            req_bytes,
            resp_bytes,
            spent,
        ) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => {
                let proc = Cost::new(
                    w.processing()
                        .cost(resp.tuples_examined, resp.payload.len()),
                );
                let entry = LedgerEntry {
                    step: idx,
                    kind,
                    source: Some(source),
                    comm,
                    proc,
                    round_trips: 1,
                    items_out: resp.payload.len(),
                    attempts,
                    failed_cost: failed,
                };
                FtFetched::Done(resp.payload, entry)
            }
            Attempted::Exhausted { attempts, failed } => {
                FtFetched::Dropped(dropped_entry(idx, kind, source, attempts, failed))
            }
        },
    )
}

/// Fault-aware Bloom semijoin step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_bloom_ft<E: Exchanger>(
    idx: usize,
    source: SourceId,
    cond: &Condition,
    bindings: &ItemSet,
    bits: u8,
    sources: &SourceSet,
    network: &mut E,
    policy: &RetryPolicy,
    ft: &mut SourceFt,
    spent: Cost,
) -> Result<FtFetched<ItemSet>> {
    let kind = StepKind::BloomSemijoin;
    if ft.dead {
        return Ok(FtFetched::Dropped(dropped_entry(
            idx,
            kind,
            source,
            0,
            Cost::ZERO,
        )));
    }
    let w = sources.get(source);
    let filter = fusion_types::BloomFilter::build(bindings, bits as f64);
    let resp = w.bloom_semijoin(cond, &filter)?;
    let req_bytes = MessageSize::sq_request(cond) + filter.wire_size();
    let resp_bytes = MessageSize::items_response(&resp.payload);
    Ok(
        match retry_loop(
            policy,
            network,
            ft,
            source,
            ExchangeKind::BloomSemijoin,
            req_bytes,
            resp_bytes,
            spent,
        ) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => {
                let proc = Cost::new(
                    w.processing()
                        .cost(resp.tuples_examined, resp.payload.len()),
                );
                let entry = LedgerEntry {
                    step: idx,
                    kind,
                    source: Some(source),
                    comm,
                    proc,
                    round_trips: 1,
                    items_out: resp.payload.len(),
                    attempts,
                    failed_cost: failed,
                };
                FtFetched::Done(resp.payload, entry)
            }
            Attempted::Exhausted { attempts, failed } => {
                FtFetched::Dropped(dropped_entry(idx, kind, source, attempts, failed))
            }
        },
    )
}

/// Fault-aware full-load step; the caller turns delivered rows into a
/// [`Relation`] (or an empty one for a dropped load).
pub(crate) fn exec_lq_ft<E: Exchanger>(
    idx: usize,
    source: SourceId,
    sources: &SourceSet,
    network: &mut E,
    policy: &RetryPolicy,
    ft: &mut SourceFt,
    spent: Cost,
) -> Result<FtFetched<Vec<Tuple>>> {
    let kind = StepKind::Load;
    if ft.dead {
        return Ok(FtFetched::Dropped(dropped_entry(
            idx,
            kind,
            source,
            0,
            Cost::ZERO,
        )));
    }
    let w = sources.get(source);
    let resp = w.load()?;
    let req_bytes = MessageSize::lq_request();
    let resp_bytes = MessageSize::tuples_response(&resp.payload);
    Ok(
        match retry_loop(
            policy,
            network,
            ft,
            source,
            ExchangeKind::Load,
            req_bytes,
            resp_bytes,
            spent,
        ) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => {
                let proc = Cost::new(
                    w.processing()
                        .cost(resp.tuples_examined, resp.payload.len()),
                );
                let entry = LedgerEntry {
                    step: idx,
                    kind,
                    source: Some(source),
                    comm,
                    proc,
                    round_trips: 1,
                    items_out: resp.payload.len(),
                    attempts,
                    failed_cost: failed,
                };
                FtFetched::Done(resp.payload, entry)
            }
            Attempted::Exhausted { attempts, failed } => {
                FtFetched::Dropped(dropped_entry(idx, kind, source, attempts, failed))
            }
        },
    )
}

/// Fault-tolerant variant of [`execute_plan`]: retries failed exchanges
/// under `policy`, gives up on sources whose faults persist, and — when
/// giving up is provably sound — degrades to a partial answer instead of
/// failing the query.
///
/// Failure handling per exchange: a failed attempt charges its request
/// cost (plus the configured timeout wait) to the step's `failed_cost`,
/// then the policy decides between a backoff-priced retry and giving up.
/// A hard outage, `breaker_threshold` consecutive failures, retry
/// exhaustion, or a blown cost deadline all mark the source *dead* for
/// the rest of the query.
///
/// Every step of a dead source is dropped: it contributes ∅ (for a
/// dropped load, an empty relation) and a zero-cost ledger entry, so the
/// ledger still matches the plan step-for-step and [`crate::schedule`]
/// can replay it. Before dropping, the plan's BDD analysis confirms the
/// degraded plan still computes a subset of the fusion answer in every
/// world ([`fusion_core::analyze::Analysis::droppable`]); if it cannot —
/// e.g. the dropped value feeds a difference subtrahend — the execution
/// errors rather than risk a superset.
///
/// The outcome's [`Completeness`] reports `Exact` when nothing was
/// dropped, otherwise `Subset` with the dead sources and weakened
/// conditions. With a trivial fault plan (or none), the outcome is
/// byte-identical to [`execute_plan`]'s apart from the attempt counters.
///
/// # Errors
/// Fails on structurally invalid or semantically unsound plans,
/// capability violations, predicate evaluation errors, and source
/// failures whose steps are not droppable.
pub fn execute_plan_ft(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    policy: &RetryPolicy,
) -> Result<ExecutionOutcome> {
    run_sequential_ft(plan, query, sources, network, policy, None)
}

/// The fault-tolerant sequential loop, with or without an answer cache.
/// `None` is [`execute_plan_ft`]. With a cache, selections are looked up
/// *before* the dead-source check — a hit needs no network and is immune
/// to faults — misses fetch full records, and the run ends by bumping
/// the epoch of every source that failed an exchange (fault recovery)
/// and admitting the rest of the fresh answers.
pub(crate) fn run_sequential_ft(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    policy: &RetryPolicy,
    mut cache: Option<&mut AnswerCache>,
) -> Result<ExecutionOutcome> {
    let mut analysis = fusion_core::analyze::analyze_plan(plan)?;
    analysis.require_proved()?;
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
    let conditions = query.conditions();
    let mut vars: Vec<Option<ItemSet>> = vec![None; plan.var_names.len()];
    let mut rels: Vec<Option<Relation>> = vec![None; plan.rel_names.len()];
    let mut rel_dropped = vec![false; plan.rel_names.len()];
    let mut ledger = CostLedger::new();
    let mut st = FtState::new(policy, plan.n_sources);
    let mut dropped: Vec<usize> = Vec::new();
    let mut missing_conds: Vec<CondId> = Vec::new();
    let mut pending: Vec<PendingInsert> = Vec::new();
    // Per-source failed-exchange counts before the run: any increase by
    // the end means the source went through fault recovery.
    let failed_before: Vec<usize> = if cache.is_some() {
        (0..plan.n_sources)
            .map(|j| network.failed_count_for(SourceId(j)))
            .collect()
    } else {
        Vec::new()
    };

    for (idx, step) in plan.steps.iter().enumerate() {
        if step.source().is_none() {
            if let Step::LocalSq { cond, rel, .. } = step {
                if rel_dropped[rel.0] {
                    missing_conds.push(*cond);
                }
            }
            let entry = exec_local_step(idx, step, conditions, &mut vars, &rels)?;
            ledger.push(entry);
            continue;
        }
        if let Step::Sq { out, cond, source } = step {
            // Cache lookup comes before the dead-source check: a hit
            // never touches the network, so a dead source can still
            // serve from cache.
            let served = match cache.as_deref_mut() {
                Some(cache) => cache.lookup(*source, &conditions[cond.0], query.schema())?,
                None => None,
            };
            if let Some(served) = served {
                ledger.push(served_entry(idx, *source, &served));
                vars[out.0] = Some(served.items);
                continue;
            }
        }
        let spent = ledger.total();
        let records = cache.is_some().then(|| query.schema());
        let source = step.source().expect("remote step has a source");
        let done = dispatch_remote_step(
            idx,
            step,
            conditions,
            sources,
            network,
            &vars,
            Some((policy, st.src_mut(source))),
            spent,
            records,
        )?;
        let refetch = done.entry.comm + done.entry.proc;
        ledger.push(done.entry);
        apply_step_done(
            plan,
            query.schema(),
            conditions,
            idx,
            done.value,
            refetch,
            &mut vars,
            &mut rels,
            &mut rel_dropped,
            &mut pending,
            &mut dropped,
            &mut missing_conds,
            Some(&mut analysis),
        )?;
    }
    let answer = vars[plan.result.0]
        .take()
        .expect("validated: result defined");
    let completeness = if dropped.is_empty() {
        Completeness::Exact
    } else {
        let mut missing_sources: Vec<SourceId> = dropped
            .iter()
            .filter_map(|&i| plan.steps[i].source())
            .collect();
        missing_sources.sort_unstable();
        missing_sources.dedup();
        missing_conds.sort_unstable();
        missing_conds.dedup();
        Completeness::Subset {
            missing_sources,
            missing_conditions: missing_conds,
        }
    };
    if let Some(cache) = cache {
        let mut failed = vec![false; plan.n_sources];
        for (j, before) in failed_before.iter().enumerate() {
            if network.failed_count_for(SourceId(j)) > *before {
                failed[j] = true;
                // Fault recovery: the source's state may have changed
                // while it was unreachable, so its cached entries die.
                cache.bump_epoch(SourceId(j));
            }
        }
        commit_inserts(cache, pending, completeness.is_exact(), &failed);
    }
    Ok(ExecutionOutcome {
        answer,
        ledger,
        completeness,
    })
}

/// What a fault-aware semijoin came back with.
pub(crate) enum SjResult {
    /// The semijoin completed; push the entry and bind the items.
    Done(ItemSet, LedgerEntry),
    /// The source was given up on. The entry carries the costs already
    /// paid (delivered batches and failed attempts); the step's value
    /// degrades to ∅ — a partially-probed semijoin is not a sound value.
    Dropped(LedgerEntry),
}

/// Fault-aware semijoin: like [`run_semijoin`] but every exchange goes
/// through the retry loop, and giving up yields [`SjResult::Dropped`]
/// instead of an error.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_semijoin_ft<E: Exchanger>(
    step: usize,
    source: SourceId,
    cond: &fusion_types::Condition,
    bindings: &ItemSet,
    sources: &SourceSet,
    network: &mut E,
    policy: &RetryPolicy,
    ft: &mut SourceFt,
    spent: Cost,
) -> Result<SjResult> {
    let w = sources.get(source);
    let caps = *w.capabilities();
    let kind = if caps.native_semijoin {
        StepKind::Semijoin
    } else {
        StepKind::EmulatedSemijoin
    };
    if bindings.is_empty() {
        // Free local no-op — no network, so no fault exposure.
        let entry = LedgerEntry {
            step,
            kind,
            source: Some(source),
            comm: Cost::ZERO,
            proc: Cost::ZERO,
            round_trips: 0,
            items_out: 0,
            attempts: 0,
            failed_cost: Cost::ZERO,
        };
        return Ok(SjResult::Done(ItemSet::empty(), entry));
    }
    if ft.dead {
        return Ok(SjResult::Dropped(dropped_entry(
            step,
            kind,
            source,
            0,
            Cost::ZERO,
        )));
    }
    if caps.native_semijoin {
        let resp = w.semijoin(cond, bindings)?;
        let req_bytes = MessageSize::sjq_request(cond, bindings);
        let resp_bytes = MessageSize::items_response(&resp.payload);
        return Ok(
            match retry_loop(
                policy,
                network,
                ft,
                source,
                ExchangeKind::Semijoin,
                req_bytes,
                resp_bytes,
                spent,
            ) {
                Attempted::Delivered {
                    comm,
                    attempts,
                    failed,
                } => {
                    let proc = Cost::new(
                        w.processing()
                            .cost(resp.tuples_examined, resp.payload.len()),
                    );
                    let entry = LedgerEntry {
                        step,
                        kind: StepKind::Semijoin,
                        source: Some(source),
                        comm,
                        proc,
                        round_trips: 1,
                        items_out: resp.payload.len(),
                        attempts,
                        failed_cost: failed,
                    };
                    SjResult::Done(resp.payload, entry)
                }
                Attempted::Exhausted { attempts, failed } => SjResult::Dropped(dropped_entry(
                    step,
                    StepKind::Semijoin,
                    source,
                    attempts,
                    failed,
                )),
            },
        );
    }
    if !caps.passed_bindings {
        return Err(FusionError::Unsupported {
            detail: format!(
                "source `{}` supports neither native nor emulated semijoins",
                w.name()
            ),
        });
    }
    let batch_size = caps.binding_batch.max(1);
    let mut result = ItemSet::empty();
    let mut comm = Cost::ZERO;
    let mut proc = Cost::ZERO;
    let mut round_trips = 0usize;
    let mut attempts = 0usize;
    let mut failed = Cost::ZERO;
    let items: Vec<_> = bindings.iter().cloned().collect();
    for chunk in items.chunks(batch_size) {
        let batch = ItemSet::from_items(chunk.iter().cloned());
        let resp = w.probe(cond, &batch)?;
        let req_bytes = MessageSize::sjq_request(cond, &batch);
        let resp_bytes = MessageSize::items_response(&resp.payload);
        match retry_loop(
            policy,
            network,
            ft,
            source,
            ExchangeKind::BindingProbe,
            req_bytes,
            resp_bytes,
            spent + comm + proc + failed,
        ) {
            Attempted::Delivered {
                comm: c,
                attempts: a,
                failed: f,
            } => {
                comm += c;
                proc += Cost::new(
                    w.processing()
                        .cost(resp.tuples_examined, resp.payload.len()),
                );
                round_trips += 1;
                attempts += a;
                failed += f;
                result = result.union(&resp.payload);
            }
            Attempted::Exhausted {
                attempts: a,
                failed: f,
            } => {
                // Batches already delivered stay paid for; the value is
                // discarded (items_out = 0) and the caller drops the step.
                attempts += a;
                failed += f;
                return Ok(SjResult::Dropped(LedgerEntry {
                    step,
                    kind: StepKind::EmulatedSemijoin,
                    source: Some(source),
                    comm,
                    proc,
                    round_trips,
                    items_out: 0,
                    attempts,
                    failed_cost: failed,
                }));
            }
        }
    }
    let entry = LedgerEntry {
        step,
        kind: StepKind::EmulatedSemijoin,
        source: Some(source),
        comm,
        proc,
        round_trips,
        items_out: result.len(),
        attempts,
        failed_cost: failed,
    };
    Ok(SjResult::Done(result, entry))
}

/// What a remote step hands back to its executor: the step's value plus
/// its ledger entry. The shared currency of the sequential, parallel,
/// and replay executors — [`dispatch_remote_step`] produces it,
/// [`apply_step_done`] folds it into executor state.
pub(crate) struct StepDone {
    pub(crate) value: StepValue,
    pub(crate) entry: LedgerEntry,
}

/// The value a remote step delivered (or, fault-tolerantly, failed to).
pub(crate) enum StepValue {
    /// A delivered item-set step (`sq` / `sjq` / Bloom `sjq`).
    Items(ItemSet),
    /// A cached-mode selection miss: the answer items plus the full
    /// records to admit to the cache after the run.
    CachedItems(ItemSet, Vec<Tuple>),
    /// A delivered full load.
    Rows(Vec<Tuple>),
    /// A dropped item-set step (fault-tolerant mode only).
    DroppedItems,
    /// A dropped full load (fault-tolerant mode only).
    DroppedRows,
}

/// Executes one remote step — the single step-dispatch every executor
/// family (sequential, parallel, cached, replay) goes through, so their
/// per-step behavior cannot drift apart. Its shared-state footprint is
/// what the static analysis says it is: the step's input variables, the
/// step's source shard (exchange + fault cursor), nothing else.
///
/// `ft` carries the retry policy and the step's source fault state in
/// fault-tolerant mode. `records` marks a cached run: selection misses
/// fetch full records (sized as such) for later admission. Cache *hits*
/// never reach this function — callers resolve them beforehand.
///
/// # Panics
/// Panics when called with a mediator-local step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_remote_step<E: Exchanger>(
    idx: usize,
    step: &Step,
    conditions: &[Condition],
    sources: &SourceSet,
    network: &mut E,
    vars: &[Option<ItemSet>],
    ft: Option<(&RetryPolicy, &mut SourceFt)>,
    spent: Cost,
    records: Option<&Schema>,
) -> Result<StepDone> {
    let items_done = |value: FtFetched<ItemSet>| match value {
        FtFetched::Done(items, entry) => StepDone {
            value: StepValue::Items(items),
            entry,
        },
        FtFetched::Dropped(entry) => StepDone {
            value: StepValue::DroppedItems,
            entry,
        },
    };
    match (step, ft) {
        (Step::Sq { cond, source, .. }, None) => {
            let c = &conditions[cond.0];
            if let Some(schema) = records {
                let (items, rows, entry) =
                    exec_sq_records(idx, *source, c, schema, sources, network)?;
                return Ok(StepDone {
                    value: StepValue::CachedItems(items, rows),
                    entry,
                });
            }
            let (items, entry) = exec_sq(idx, *source, c, sources, network)?;
            Ok(StepDone {
                value: StepValue::Items(items),
                entry,
            })
        }
        (Step::Sq { cond, source, .. }, Some((policy, ft))) => {
            let c = &conditions[cond.0];
            if let Some(schema) = records {
                return Ok(
                    match exec_sq_records_ft(
                        idx, *source, c, schema, sources, network, policy, ft, spent,
                    )? {
                        FtFetched::Done((items, rows), entry) => StepDone {
                            value: StepValue::CachedItems(items, rows),
                            entry,
                        },
                        FtFetched::Dropped(entry) => StepDone {
                            value: StepValue::DroppedItems,
                            entry,
                        },
                    },
                );
            }
            Ok(items_done(exec_sq_ft(
                idx, *source, c, sources, network, policy, ft, spent,
            )?))
        }
        (
            Step::Sjq {
                cond,
                source,
                input,
                ..
            },
            ft,
        ) => {
            let bindings = vars[input.0].as_ref().expect("validated: def before use");
            let c = &conditions[cond.0];
            match ft {
                None => {
                    let (items, entry) = run_semijoin(idx, *source, c, bindings, sources, network)?;
                    Ok(StepDone {
                        value: StepValue::Items(items),
                        entry,
                    })
                }
                Some((policy, ft)) => Ok(
                    match run_semijoin_ft(
                        idx, *source, c, bindings, sources, network, policy, ft, spent,
                    )? {
                        SjResult::Done(items, entry) => StepDone {
                            value: StepValue::Items(items),
                            entry,
                        },
                        SjResult::Dropped(entry) => StepDone {
                            value: StepValue::DroppedItems,
                            entry,
                        },
                    },
                ),
            }
        }
        (
            Step::SjqBloom {
                cond,
                source,
                input,
                bits,
                ..
            },
            ft,
        ) => {
            let bindings = vars[input.0].as_ref().expect("validated: def before use");
            let c = &conditions[cond.0];
            match ft {
                None => {
                    let (items, entry) =
                        exec_bloom(idx, *source, c, bindings, *bits, sources, network)?;
                    Ok(StepDone {
                        value: StepValue::Items(items),
                        entry,
                    })
                }
                Some((policy, ft)) => Ok(items_done(exec_bloom_ft(
                    idx, *source, c, bindings, *bits, sources, network, policy, ft, spent,
                )?)),
            }
        }
        (Step::Lq { source, .. }, None) => {
            let (rows, entry) = exec_lq(idx, *source, sources, network)?;
            Ok(StepDone {
                value: StepValue::Rows(rows),
                entry,
            })
        }
        (Step::Lq { source, .. }, Some((policy, ft))) => Ok(
            match exec_lq_ft(idx, *source, sources, network, policy, ft, spent)? {
                FtFetched::Done(rows, entry) => StepDone {
                    value: StepValue::Rows(rows),
                    entry,
                },
                FtFetched::Dropped(entry) => StepDone {
                    value: StepValue::DroppedRows,
                    entry,
                },
            },
        ),
        (local, _) => panic!("dispatch_remote_step called with local step {local:?}"),
    }
}

/// Drops step `idx`, verifying via the BDD analysis that the cumulative
/// degraded plan still computes a subset of the fusion answer.
fn check_droppable(
    plan: &Plan,
    idx: usize,
    dropped: &mut Vec<usize>,
    analysis: Option<&mut fusion_core::analyze::Analysis>,
) -> Result<()> {
    dropped.push(idx);
    let analysis = analysis.expect("step dropped outside fault-tolerant mode");
    if analysis.droppable(plan, dropped) {
        Ok(())
    } else {
        Err(FusionError::execution(format!(
            "source failure at step #{idx}: dropping it would not \
             yield a sound subset of the fusion answer (the step's \
             value is used non-monotonically); aborting instead"
        )))
    }
}

/// Folds one completed remote step into executor state — the single
/// fold shared by the sequential, parallel, and replay executors. The
/// caller records `done.entry` in its own ledger slot (the one shared
/// resource this function does not touch); `refetch` is that entry's
/// fetch price, the cache eviction weight of a pending admission.
///
/// # Errors
/// Fails when a dropped step cannot be soundly dropped (see
/// [`check_droppable`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_step_done(
    plan: &Plan,
    schema: &Schema,
    conditions: &[Condition],
    idx: usize,
    value: StepValue,
    refetch: Cost,
    vars: &mut [Option<ItemSet>],
    rels: &mut [Option<Relation>],
    rel_dropped: &mut [bool],
    pending: &mut Vec<PendingInsert>,
    dropped: &mut Vec<usize>,
    missing_conds: &mut Vec<CondId>,
    analysis: Option<&mut fusion_core::analyze::Analysis>,
) -> Result<()> {
    match (value, &plan.steps[idx]) {
        (
            StepValue::Items(items),
            Step::Sq { out, .. } | Step::Sjq { out, .. } | Step::SjqBloom { out, .. },
        ) => {
            vars[out.0] = Some(items);
        }
        (StepValue::CachedItems(items, rows), Step::Sq { out, cond, source }) => {
            pending.push(PendingInsert {
                step: idx,
                source: *source,
                cond: conditions[cond.0].clone(),
                rows,
                refetch,
            });
            vars[out.0] = Some(items);
        }
        (StepValue::Rows(rows), Step::Lq { out, .. }) => {
            rels[out.0] = Some(Relation::from_rows(schema.clone(), rows));
        }
        (
            StepValue::DroppedItems,
            Step::Sq { out, cond, .. }
            | Step::Sjq { out, cond, .. }
            | Step::SjqBloom { out, cond, .. },
        ) => {
            check_droppable(plan, idx, dropped, analysis)?;
            missing_conds.push(*cond);
            vars[out.0] = Some(ItemSet::empty());
        }
        (StepValue::DroppedRows, Step::Lq { out, .. }) => {
            check_droppable(plan, idx, dropped, analysis)?;
            // Later local selections over the relation run against an
            // empty table and yield ∅ — exactly the degraded semantics
            // the BDD check verified.
            rels[out.0] = Some(Relation::from_rows(schema.clone(), vec![]));
            rel_dropped[out.0] = true;
        }
        (_, step) => unreachable!("step/value shape mismatch at {step:?}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::cost::TableCostModel;
    use fusion_core::optimizer::{filter_plan, sja_optimal};
    use fusion_core::plan::{SimplePlanSpec, SourceChoice};
    use fusion_net::LinkProfile;
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, CondId, Predicate};

    fn figure1_relations() -> Vec<Relation> {
        let s = dmv_schema();
        vec![
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["J55", "dui", 1993i64],
                    tuple!["T21", "sp", 1994i64],
                    tuple!["T80", "dui", 1993i64],
                ],
            ),
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["T21", "dui", 1996i64],
                    tuple!["J55", "sp", 1996i64],
                    tuple!["T11", "sp", 1993i64],
                ],
            ),
            Relation::from_rows(
                s,
                vec![
                    tuple!["T21", "sp", 1993i64],
                    tuple!["S07", "sp", 1996i64],
                    tuple!["S07", "sp", 1993i64],
                ],
            ),
        ]
    }

    fn dmv_sources(caps: Capabilities) -> SourceSet {
        SourceSet::new(
            figure1_relations()
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", i + 1),
                        r,
                        caps,
                        ProcessingProfile::indexed_db(),
                        i as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        )
    }

    fn dmv_query() -> FusionQuery {
        FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap()
    }

    fn semijoin_spec() -> SimplePlanSpec {
        SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection; 3],
                vec![SourceChoice::Semijoin; 3],
            ],
        }
    }

    #[test]
    fn filter_plan_computes_figure1_answer_with_costs() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        assert_eq!(out.answer, ItemSet::from_items(["J55", "T21"]));
        assert!(out.total_cost() > Cost::ZERO);
        assert_eq!(out.ledger.count_kind(StepKind::Selection), 6);
        assert_eq!(net.trace().len(), 6);
    }

    #[test]
    fn native_and_emulated_semijoins_agree_on_answers() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let mut answers = Vec::new();
        let mut costs = Vec::new();
        for caps in [
            Capabilities::full(),
            Capabilities::emulated(2),
            Capabilities::emulated(1),
        ] {
            let sources = dmv_sources(caps);
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
            answers.push(out.answer.clone());
            costs.push(out.total_cost());
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(answers[0], ItemSet::from_items(["J55", "T21"]));
        // Emulation costs strictly more, and smaller batches cost more.
        assert!(
            costs[1] > costs[0],
            "emulated {} <= native {}",
            costs[1],
            costs[0]
        );
        assert!(costs[2] > costs[1]);
    }

    #[test]
    fn emulated_semijoin_batches_round_trips() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::emulated(1));
        let mut net = Network::uniform(3, LinkProfile::Lan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        // X1 = {J55, T80, T21}: three bindings probed one at a time at
        // each of the three sources.
        let emulated: Vec<_> = out
            .ledger
            .entries()
            .iter()
            .filter(|e| e.kind == StepKind::EmulatedSemijoin)
            .collect();
        assert_eq!(emulated.len(), 3);
        for e in emulated {
            assert_eq!(e.round_trips, 3);
        }
        assert_eq!(net.count_kind(ExchangeKind::BindingProbe), 9);
    }

    #[test]
    fn selection_only_source_fails_semijoin_execution() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::selection_only());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(matches!(err, FusionError::Unsupported { .. }));
    }

    #[test]
    fn executed_answer_matches_naive_for_optimizer_plans() {
        let q = dmv_query();
        let truth = q.naive_answer(&figure1_relations()).unwrap();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let sources = dmv_sources(Capabilities::full());
        for opt in [filter_plan(&model), sja_optimal(&model)] {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&opt.plan, &q, &sources, &mut net).unwrap();
            assert_eq!(out.answer, truth);
        }
    }

    #[test]
    fn lq_and_local_steps_execute() {
        use fusion_core::plan::{Plan, Step, VarId};
        let q = dmv_query();
        // T1 := lq(R1); X0 := sq(c1, T1); X1 := sq(c2, R2); X2 := X0 ∩ X1.
        let mut plan = Plan::new(vec![], VarId(0), 2, 3);
        let t = plan.fresh_rel("T1");
        let x0 = plan.fresh_var("X0");
        let x1 = plan.fresh_var("X1");
        let x2 = plan.fresh_var("X2");
        plan.steps = vec![
            Step::Lq {
                out: t,
                source: SourceId(0),
            },
            Step::LocalSq {
                out: x0,
                cond: CondId(0),
                rel: t,
            },
            Step::Sq {
                out: x1,
                cond: CondId(1),
                source: SourceId(1),
            },
            Step::Intersect {
                out: x2,
                inputs: vec![x0, x1],
            },
        ];
        plan.result = x2;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        // The plan is a deliberate partial probe (it ignores R3), so the
        // guarded entry point refuses it...
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(err.to_string().contains("semantically unsound"), "{err}");
        // ...and the unchecked one runs it.
        let out = execute_plan_unchecked(&plan, &q, &sources, &mut net).unwrap();
        // dui at R1 = {J55, T80}; sp at R2 = {J55, T11} → {J55}.
        assert_eq!(out.answer, ItemSet::from_items(["J55"]));
        assert_eq!(out.ledger.count_kind(StepKind::Load), 1);
        assert_eq!(out.ledger.count_kind(StepKind::Local), 2);
    }

    #[test]
    fn guard_refuses_unsound_plan_with_counterexample() {
        let q = dmv_query();
        // A filter plan whose final union forgets R3.
        let mut plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        for step in plan.steps.iter_mut().rev() {
            if let Step::Union { inputs, .. } = step {
                inputs.truncate(2);
                break;
            }
        }
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("refusing to execute"), "{msg}");
        assert!(msg.contains("counterexample world"), "{msg}");
        assert!(msg.contains("step trace"), "{msg}");
    }

    #[test]
    fn arity_mismatches_rejected() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 2, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan; // 2 sources
        let sources = dmv_sources(Capabilities::full()); // 3 sources
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        assert!(execute_plan(&plan, &q, &sources, &mut net).is_err());
    }
}
