//! The mediator's view of the network: one link per source, plus a trace
//! of every exchange performed.
//!
//! Per-source mutable state (fault-schedule attempt counters and
//! uncommitted trace segments) lives in independently lockable shards, so
//! concurrent executors can exchange with *different* sources through
//! shared [`SourceHandle`]s while the legacy exclusive (`&mut self`) API
//! keeps working unchanged on top of the same counters.

use crate::fault::{FaultDecision, FaultKind, FaultPlan};
use crate::link::Link;
use fusion_types::{Cost, SourceId};
use std::sync::Mutex;

/// What kind of interaction an exchange was, for trace analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeKind {
    /// A selection query `sq(c, R)`.
    Selection,
    /// A native semijoin query `sjq(c, R, X)`.
    Semijoin,
    /// One passed-binding probe of an emulated semijoin (§2.3).
    BindingProbe,
    /// A Bloom-filter semijoin (extension).
    BloomSemijoin,
    /// A full-source load `lq(R)` (§4).
    Load,
    /// A phase-two record fetch (§1).
    Fetch,
}

impl std::fmt::Display for ExchangeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExchangeKind::Selection => "sq",
            ExchangeKind::Semijoin => "sjq",
            ExchangeKind::BindingProbe => "probe",
            ExchangeKind::BloomSemijoin => "bsjq",
            ExchangeKind::Load => "lq",
            ExchangeKind::Fetch => "fetch",
        };
        write!(f, "{s}")
    }
}

/// Whether a traced exchange delivered its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeStatus {
    /// The response arrived.
    Ok,
    /// The attempt failed; its cost was still charged.
    Failed(FaultKind),
}

impl ExchangeStatus {
    /// True for delivered exchanges.
    pub(crate) fn is_ok(self) -> bool {
        matches!(self, ExchangeStatus::Ok)
    }
}

/// One recorded request/response exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// The source contacted.
    pub source: SourceId,
    /// What the exchange did.
    pub kind: ExchangeKind,
    /// Request payload bytes.
    pub req_bytes: usize,
    /// Response payload bytes (0 for failed attempts — nothing arrived).
    pub resp_bytes: usize,
    /// Communication cost charged.
    pub cost: Cost,
    /// Whether the response was delivered.
    pub status: ExchangeStatus,
}

/// A failed attempt reported by [`Network::try_exchange`]: the fault that
/// occurred and the communication cost the attempt still charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailedExchange {
    /// What went wrong.
    pub kind: FaultKind,
    /// Cost charged for the failed attempt (request shipping, and for
    /// timeouts the abandoned wait).
    pub cost: Cost,
}

/// Per-source lockable state: the fault-schedule position and the
/// exchanges performed through a [`SourceHandle`] that have not yet been
/// merged into the global trace. Each buffered exchange is tagged with
/// the plan step that performed it, so [`Network::commit`] can restore
/// the deterministic sequential trace order.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Attempt counter — the position in the fault schedule.
    attempts: usize,
    /// Uncommitted exchanges, tagged with their step index.
    pending: Vec<(usize, Exchange)>,
}

/// The simulated network: per-source links, an exchange trace, and an
/// optional deterministic [`FaultPlan`].
#[derive(Debug)]
pub struct Network {
    links: Vec<Link>,
    trace: Vec<Exchange>,
    total: Cost,
    /// Per-source accumulated cost, kept in sync with the trace so
    /// [`Network::cost_for_source`] is O(1) in hot experiment loops.
    per_source: Vec<Cost>,
    /// Per-source lockable state (attempt counters, pending exchanges).
    shards: Vec<Mutex<Shard>>,
    faults: Option<FaultPlan>,
}

impl Clone for Network {
    fn clone(&self) -> Network {
        Network {
            links: self.links.clone(),
            trace: self.trace.clone(),
            total: self.total,
            per_source: self.per_source.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| Mutex::new(s.lock().expect("network shard lock poisoned").clone()))
                .collect(),
            faults: self.faults.clone(),
        }
    }
}

impl Network {
    /// Creates a network with one link per source.
    pub fn new(links: Vec<Link>) -> Network {
        let n = links.len();
        Network {
            links,
            trace: Vec::new(),
            total: Cost::ZERO,
            per_source: vec![Cost::ZERO; n],
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            faults: None,
        }
    }

    /// Creates a network of `n` identical links.
    pub fn uniform(n: usize, link: Link) -> Network {
        Network::new(vec![link; n])
    }

    /// Number of sources reachable.
    pub fn source_count(&self) -> usize {
        self.links.len()
    }

    /// The link to `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn link(&self, source: SourceId) -> &Link {
        &self.links[source.0]
    }

    /// Installs a fault plan; subsequent [`Network::try_exchange`] calls
    /// consult it. The per-source schedules start from the current attempt
    /// counters (zero on a fresh or reset network).
    ///
    /// # Panics
    /// Panics if the plan does not cover exactly this network's sources.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(
            plan.n_sources(),
            self.links.len(),
            "fault plan covers {} sources, network has {}",
            plan.n_sources(),
            self.links.len()
        );
        self.faults = Some(plan);
    }

    /// Performs (accounts for) one exchange and returns its cost.
    ///
    /// This is the infallible legacy entry point: it bypasses the fault
    /// plan and does not advance the fault schedule. Fault-aware callers
    /// use [`Network::try_exchange`].
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost {
        let e = self.build_ok(source, kind, req_bytes, resp_bytes);
        let cost = e.cost;
        self.record(e);
        cost
    }

    /// Performs one exchange under the fault plan.
    ///
    /// Consumes the next slot of `source`'s fault schedule. On success,
    /// returns the (possibly slowed) cost. On failure, returns the fault
    /// kind and the cost the attempt still charged — the request was
    /// shipped (and, for timeouts, the wait endured) even though nothing
    /// came back. Either way the attempt is recorded in the trace and in
    /// all cost accumulators.
    ///
    /// Without a fault plan this is exactly [`Network::exchange`] (but it
    /// still advances the attempt counter).
    ///
    /// # Errors
    /// Returns a [`FailedExchange`] when the fault plan fails the attempt.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn try_exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<Cost, FailedExchange> {
        let attempt = {
            let shard = self.shards[source.0]
                .get_mut()
                .expect("network shard lock poisoned");
            let a = shard.attempts;
            shard.attempts += 1;
            a
        };
        let (e, result) = self.build_attempt(source, attempt, kind, req_bytes, resp_bytes);
        self.record(e);
        result
    }

    /// Builds the exchange record for the infallible path.
    fn build_ok(
        &self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Exchange {
        let cost = self.links[source.0].exchange_cost(req_bytes, resp_bytes);
        Exchange {
            source,
            kind,
            req_bytes,
            resp_bytes,
            cost,
            status: ExchangeStatus::Ok,
        }
    }

    /// Builds the exchange record for attempt number `attempt` under the
    /// fault plan, plus the outcome the caller sees.
    fn build_attempt(
        &self,
        source: SourceId,
        attempt: usize,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> (Exchange, Result<Cost, FailedExchange>) {
        let decision = match &self.faults {
            Some(plan) => plan.decide(source, attempt),
            None => FaultDecision::Deliver { cost_factor: 1.0 },
        };
        let link = &self.links[source.0];
        match decision {
            FaultDecision::Deliver { cost_factor } => {
                let cost = link.exchange_cost(req_bytes, resp_bytes) * cost_factor;
                let e = Exchange {
                    source,
                    kind,
                    req_bytes,
                    resp_bytes,
                    cost,
                    status: ExchangeStatus::Ok,
                };
                (e, Ok(cost))
            }
            FaultDecision::Fail(fault) => {
                // The request went out; no payload came back.
                let mut cost = link.exchange_cost(req_bytes, 0);
                if fault == FaultKind::Timeout {
                    if let Some(plan) = &self.faults {
                        cost += Cost::new(plan.spec(source).timeout_wait);
                    }
                }
                let e = Exchange {
                    source,
                    kind,
                    req_bytes,
                    resp_bytes: 0,
                    cost,
                    status: ExchangeStatus::Failed(fault),
                };
                (e, Err(FailedExchange { kind: fault, cost }))
            }
        }
    }

    fn record(&mut self, e: Exchange) {
        self.total += e.cost;
        self.per_source[e.source.0] += e.cost;
        self.trace.push(e);
    }

    /// A shareable handle for exchanging with one source. Handles to
    /// *different* sources can be used from different threads at the same
    /// time; exchanges through a handle are buffered in the source's
    /// shard (tagged with the performing step) until [`Network::commit`]
    /// merges them into the global trace in step order.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn handle(&self, source: SourceId) -> SourceHandle<'_> {
        assert!(
            source.0 < self.links.len(),
            "source {} out of range ({} links)",
            source.0,
            self.links.len()
        );
        SourceHandle { net: self, source }
    }

    /// Merges every exchange buffered by [`SourceHandle`]s into the
    /// global trace, ordered by the step tag (stable: a step's own
    /// exchanges keep their order), and folds their costs into the total
    /// and per-source accumulators. Returns how many exchanges were
    /// committed.
    ///
    /// Because each plan step exchanges with exactly one source and each
    /// source serializes its steps, the committed trace is byte-identical
    /// to the one sequential execution would have produced.
    pub fn commit(&mut self) -> usize {
        let mut pending: Vec<(usize, Exchange)> = Vec::new();
        for shard in &mut self.shards {
            let shard = shard.get_mut().expect("network shard lock poisoned");
            pending.append(&mut shard.pending);
        }
        pending.sort_by_key(|(step, _)| *step);
        let n = pending.len();
        for (_, e) in pending {
            self.record(e);
        }
        n
    }

    /// Every exchange so far, in order.
    pub fn trace(&self) -> &[Exchange] {
        &self.trace
    }

    /// Total communication cost so far (failed attempts included).
    pub fn total_cost(&self) -> Cost {
        self.total
    }

    /// Total cost of exchanges with one source. O(1): maintained
    /// incrementally rather than rescanning the trace.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn cost_for_source(&self, source: SourceId) -> Cost {
        self.per_source[source.0]
    }

    /// Number of exchanges of a given kind.
    pub fn count_kind(&self, kind: ExchangeKind) -> usize {
        self.trace.iter().filter(|e| e.kind == kind).count()
    }

    /// Number of failed attempts against one source in the committed
    /// trace. Cached executors compare this before and after a run to
    /// decide which sources went through fault recovery (and must have
    /// their cache epochs bumped).
    pub fn failed_count_for(&self, source: SourceId) -> usize {
        self.trace
            .iter()
            .filter(|e| e.source == source && !e.status.is_ok())
            .count()
    }

    /// Clears the trace, accumulated totals, pending shard buffers, and
    /// fault-schedule positions (links and the fault plan stay) — a reset
    /// network replays the same fault schedule from the top.
    pub fn reset(&mut self) {
        self.trace.clear();
        self.total = Cost::ZERO;
        self.per_source.fill(Cost::ZERO);
        for shard in &mut self.shards {
            let shard = shard.get_mut().expect("network shard lock poisoned");
            shard.attempts = 0;
            shard.pending.clear();
        }
    }
}

/// A shared-access view of one source's serial queue, created by
/// [`Network::handle`].
///
/// Exchanges performed through a handle take `&self`: they lock only the
/// source's shard, so workers driving *different* sources never contend.
/// Every exchange is tagged with the plan step performing it and buffered
/// in the shard; [`Network::commit`] later merges all buffers into the
/// global trace in step order, reproducing the sequential trace exactly.
/// The fault-schedule attempt counter is shared with the legacy
/// `&mut self` API, so mixing the two styles keeps fault injection
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub struct SourceHandle<'a> {
    net: &'a Network,
    source: SourceId,
}

impl SourceHandle<'_> {
    /// Shared-access [`Network::exchange`]: accounts for one infallible
    /// exchange performed by `step`, buffering it in the source's shard.
    pub fn exchange(
        &self,
        step: usize,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost {
        let e = self.net.build_ok(self.source, kind, req_bytes, resp_bytes);
        let cost = e.cost;
        let mut shard = self.net.shards[self.source.0]
            .lock()
            .expect("network shard lock poisoned");
        shard.pending.push((step, e));
        cost
    }

    /// Shared-access [`Network::try_exchange`]: consumes the next slot of
    /// the source's fault schedule and buffers the attempt in the shard.
    ///
    /// # Errors
    /// Returns a [`FailedExchange`] when the fault plan fails the attempt.
    pub fn try_exchange(
        &self,
        step: usize,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<Cost, FailedExchange> {
        let mut shard = self.net.shards[self.source.0]
            .lock()
            .expect("network shard lock poisoned");
        let attempt = shard.attempts;
        shard.attempts += 1;
        let (e, result) = self
            .net
            .build_attempt(self.source, attempt, kind, req_bytes, resp_bytes);
        shard.pending.push((step, e));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::link::LinkProfile;

    fn net() -> Network {
        Network::new(vec![LinkProfile::Lan.link(), LinkProfile::Slow.link()])
    }

    #[test]
    fn exchange_accumulates_trace_and_total() {
        let mut n = net();
        let c1 = n.exchange(SourceId(0), ExchangeKind::Selection, 100, 200);
        let c2 = n.exchange(SourceId(1), ExchangeKind::Semijoin, 300, 50);
        assert_eq!(n.trace().len(), 2);
        assert_eq!(n.total_cost(), c1 + c2);
        assert_eq!(n.cost_for_source(SourceId(0)), c1);
        assert_eq!(n.cost_for_source(SourceId(1)), c2);
        assert_eq!(n.count_kind(ExchangeKind::Selection), 1);
        assert_eq!(n.count_kind(ExchangeKind::Load), 0);
        assert_eq!(n.failed_count_for(SourceId(0)), 0);
    }

    #[test]
    fn per_source_accumulators_match_trace_rescan() {
        let mut n = net();
        for i in 0..10 {
            n.exchange(SourceId(i % 2), ExchangeKind::Selection, 100 + i, 50);
            let _ = n.try_exchange(SourceId(i % 2), ExchangeKind::BindingProbe, 10, 10);
        }
        for j in 0..2 {
            let rescan: Cost = n
                .trace()
                .iter()
                .filter(|e| e.source == SourceId(j))
                .map(|e| e.cost)
                .sum();
            assert_eq!(n.cost_for_source(SourceId(j)), rescan);
        }
    }

    #[test]
    fn same_bytes_cost_more_on_slow_link() {
        let mut n = net();
        let fast = n.exchange(SourceId(0), ExchangeKind::Selection, 1000, 1000);
        let slow = n.exchange(SourceId(1), ExchangeKind::Selection, 1000, 1000);
        assert!(slow > fast);
    }

    #[test]
    fn reset_clears_accounting() {
        let mut n = net();
        n.exchange(SourceId(0), ExchangeKind::Selection, 10, 10);
        n.reset();
        assert!(n.trace().is_empty());
        assert_eq!(n.total_cost(), Cost::ZERO);
        assert_eq!(n.cost_for_source(SourceId(0)), Cost::ZERO);
        assert_eq!(n.source_count(), 2);
    }

    #[test]
    fn uniform_builder() {
        let n = Network::uniform(5, LinkProfile::Wan.link());
        assert_eq!(n.source_count(), 5);
        assert_eq!(n.link(SourceId(4)), &LinkProfile::Wan.link());
    }

    #[test]
    fn exchange_kind_display() {
        assert_eq!(ExchangeKind::Selection.to_string(), "sq");
        assert_eq!(ExchangeKind::BindingProbe.to_string(), "probe");
    }

    #[test]
    fn try_exchange_without_plan_equals_exchange() {
        let mut a = net();
        let mut b = net();
        let ca = a.exchange(SourceId(0), ExchangeKind::Selection, 100, 200);
        let cb = b
            .try_exchange(SourceId(0), ExchangeKind::Selection, 100, 200)
            .unwrap();
        assert_eq!(ca, cb);
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn failed_attempts_charge_and_trace() {
        let mut n = net();
        n.set_fault_plan(FaultPlan::none(2).with_outage(SourceId(0), 0));
        let err = n
            .try_exchange(SourceId(0), ExchangeKind::Selection, 100, 200)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Outage);
        assert!(err.cost > Cost::ZERO, "request shipping is still charged");
        assert_eq!(n.trace().len(), 1);
        assert_eq!(
            n.trace()[0].status,
            ExchangeStatus::Failed(FaultKind::Outage)
        );
        assert_eq!(n.trace()[0].resp_bytes, 0, "nothing came back");
        assert_eq!(n.failed_count_for(SourceId(0)), 1);
        assert_eq!(n.total_cost(), err.cost);
        assert_eq!(n.cost_for_source(SourceId(0)), err.cost);
        // The healthy source is unaffected.
        assert!(n
            .try_exchange(SourceId(1), ExchangeKind::Selection, 10, 10)
            .is_ok());
    }

    #[test]
    fn timeouts_charge_the_abandoned_wait() {
        let mut n = net();
        let spec = FaultSpec {
            timeout_rate: 1.0,
            timeout_wait: 5.0,
            ..FaultSpec::none()
        };
        n.set_fault_plan(FaultPlan::uniform(2, 3, spec));
        let err = n
            .try_exchange(SourceId(0), ExchangeKind::Selection, 100, 200)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Timeout);
        let base = LinkProfile::Lan.link().exchange_cost(100, 0);
        assert_eq!(err.cost, base + Cost::new(5.0));
    }

    #[test]
    fn reset_replays_the_same_fault_schedule() {
        let mut n = net();
        n.set_fault_plan(FaultPlan::uniform(2, 42, FaultSpec::transient(0.5)));
        let run = |n: &mut Network| -> Vec<bool> {
            (0..32)
                .map(|_| {
                    n.try_exchange(SourceId(0), ExchangeKind::Selection, 50, 50)
                        .is_ok()
                })
                .collect()
        };
        let first = run(&mut n);
        n.reset();
        let second = run(&mut n);
        assert_eq!(first, second);
        assert!(first.iter().any(|b| *b) && first.iter().any(|b| !*b));
    }

    #[test]
    fn slowdown_multiplies_cost() {
        let mut n = net();
        let spec = FaultSpec {
            slowdown_rate: 1.0,
            slowdown_factor: 3.0,
            ..FaultSpec::none()
        };
        n.set_fault_plan(FaultPlan::uniform(2, 0, spec));
        let slowed = n
            .try_exchange(SourceId(0), ExchangeKind::Selection, 100, 200)
            .unwrap();
        let base = LinkProfile::Lan.link().exchange_cost(100, 200);
        assert_eq!(slowed, base * 3.0);
        assert!(n.trace()[0].status.is_ok(), "slowdowns still deliver");
    }

    #[test]
    #[should_panic(expected = "fault plan covers")]
    fn mismatched_fault_plan_rejected() {
        let mut n = net();
        n.set_fault_plan(FaultPlan::none(5));
    }

    #[test]
    fn handle_exchanges_commit_in_step_order() {
        // Sequential reference: steps 0..4 in order, alternating sources.
        let mut seq = net();
        for step in 0..4 {
            seq.exchange(SourceId(step % 2), ExchangeKind::Selection, 100 + step, 50);
        }
        // Shared-handle run, performed deliberately out of step order.
        let mut par = net();
        for step in [3usize, 1, 2, 0] {
            par.handle(SourceId(step % 2))
                .exchange(step, ExchangeKind::Selection, 100 + step, 50);
        }
        assert!(par.trace().is_empty(), "buffered until commit");
        assert_eq!(par.total_cost(), Cost::ZERO);
        assert_eq!(par.commit(), 4);
        assert_eq!(par.commit(), 0, "nothing left pending");
        assert_eq!(par.trace(), seq.trace());
        assert_eq!(par.total_cost(), seq.total_cost());
        assert_eq!(
            par.cost_for_source(SourceId(0)),
            seq.cost_for_source(SourceId(0))
        );
        assert_eq!(
            par.cost_for_source(SourceId(1)),
            seq.cost_for_source(SourceId(1))
        );
    }

    #[test]
    fn handle_and_legacy_share_the_fault_schedule() {
        let mut a = net();
        a.set_fault_plan(FaultPlan::uniform(2, 42, FaultSpec::transient(0.5)));
        let mut b = a.clone();
        // Run the same 32 attempts through the legacy path and through a
        // handle; the per-source schedule position must agree.
        let legacy: Vec<bool> = (0..32)
            .map(|_| {
                a.try_exchange(SourceId(0), ExchangeKind::Selection, 50, 50)
                    .is_ok()
            })
            .collect();
        let shared: Vec<bool> = (0..32)
            .map(|step| {
                b.handle(SourceId(0))
                    .try_exchange(step, ExchangeKind::Selection, 50, 50)
                    .is_ok()
            })
            .collect();
        assert_eq!(legacy, shared);
        b.commit();
        assert_eq!(a.trace(), b.trace());
        // Mixing styles continues the same schedule.
        let via_handle = b
            .handle(SourceId(0))
            .try_exchange(32, ExchangeKind::Selection, 50, 50)
            .is_ok();
        let via_legacy = a
            .try_exchange(SourceId(0), ExchangeKind::Selection, 50, 50)
            .is_ok();
        assert_eq!(via_handle, via_legacy);
    }

    #[test]
    fn handles_to_different_sources_work_across_threads() {
        let n = Network::uniform(4, LinkProfile::Lan.link());
        std::thread::scope(|s| {
            for j in 0..4 {
                let h = n.handle(SourceId(j));
                s.spawn(move || {
                    for k in 0..8 {
                        h.exchange(j * 8 + k, ExchangeKind::Selection, 10, 10);
                    }
                });
            }
        });
        let mut n = n;
        assert_eq!(n.commit(), 32);
        // Committed in step order: strictly increasing tags per source
        // and globally sorted by step.
        let steps: Vec<usize> = n.trace().iter().map(|e| e.req_bytes).collect();
        assert_eq!(steps.len(), 32);
        for j in 1..4 {
            assert_eq!(
                n.cost_for_source(SourceId(j)),
                n.cost_for_source(SourceId(0))
            );
        }
        assert!(n.total_cost() > Cost::ZERO);
    }

    #[test]
    fn reset_clears_pending_and_shard_positions() {
        let mut n = net();
        n.set_fault_plan(FaultPlan::uniform(2, 7, FaultSpec::transient(0.5)));
        let first = n
            .handle(SourceId(0))
            .try_exchange(0, ExchangeKind::Selection, 50, 50)
            .is_ok();
        n.reset();
        assert_eq!(n.commit(), 0, "pending cleared without commit");
        let replay = n
            .handle(SourceId(0))
            .try_exchange(0, ExchangeKind::Selection, 50, 50)
            .is_ok();
        assert_eq!(first, replay, "schedule replays from the top");
    }
}
