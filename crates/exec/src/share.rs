//! Cross-query fetch sharing in the mediator server.
//!
//! The [`ShareTable`] is the operational half of
//! [`fusion_core::dataflow::share_schedule`]: while a query's admission
//! critical section holds every cache shard lock, it hands the table of
//! **in-flight leader fetches** — selections another admitted query is
//! about to (or just did) exchange with a source, registered here before
//! the leader's commit — to that one rule, and then
//!
//! * for each step the rule **attaches**, hands out the leader's slot,
//!   to be served from the leader's harvest through the same projection
//!   (and, for a proper containment, residual filter) an answer-cache
//!   hit uses; and
//! * for each step the rule leaves to **fetch**, registers a new leader
//!   and publishes a [`FetchSlot`] every later admission may attach to
//!   until the leader commits.
//!
//! Every admission that attaches is checked inside the critical section
//! against the error rule `unsound-merge-residual`
//! ([`unsound_merge_findings`]), which re-proves each attach against its
//! leader; a finding fails the admission, never a silent fallback.
//!
//! Discipline (why this cannot deadlock or change any byte):
//!
//! * Followers only attach to leaders with **strictly smaller
//!   admission tickets**, so waits form a DAG ordered by ticket.
//! * A leader registers only cache-miss selection steps, which in the
//!   server's non-fault-tolerant executor always either publish their
//!   harvest or fail the run; the error path fails every slot, so no
//!   follower waits forever, and a failed slot is no longer offered to
//!   the rule.
//! * Only **exact** harvests are ever published: the server executor
//!   has no degraded (`Subset`-completeness) path, and a failed fetch
//!   fails the slot instead. A follower can therefore never observe a
//!   partial harvest.
//! * Entries are retired inside the leader's commit critical section,
//!   so every follower's admission ticket provably precedes the
//!   leader's commit ticket — the share-window certificate
//!   (`verify_share_windows`, reading the server's log as written)
//!   checks exactly this on every server run.
//! * Epoch guard: a step only attaches when the leader registered
//!   under the **current** epoch of its source, mirroring the cache's
//!   commit-withholding rule for updates that raced the fetch.
//!
//! The serial replay admits through a table of its own and re-decides
//! the logged shares: the table at ticket `t` depends only on earlier
//! tickets, and every replayed leader ran at its own admission.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

use fusion_cache::{subsumes, Harvest};
use fusion_core::dataflow::{share_schedule, unsound_merge_findings, Prover, ShareStep};
use fusion_core::plan::Plan;
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Condition, Predicate, SourceId};

/// One logged share of a server admission: `step` of the admitted plan
/// is served from the in-flight fetch `leader` performs at its
/// `leader_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareRef {
    /// The served step of the follower's plan.
    pub step: usize,
    /// The leader's admission ticket.
    pub leader: u64,
    /// The fetching step of the leader's plan.
    pub leader_step: usize,
    /// True when the follower's condition is *properly* contained in
    /// the leader's: the harvest passes through a residual filter.
    pub residual: bool,
}

/// State of one in-flight merged fetch.
enum SlotState {
    /// The leader has not completed the exchange yet.
    Pending,
    /// The leader's full-record harvest, ready to fan out — the value
    /// the leader goes on to commit, not a copy of it.
    Ready(Arc<Harvest>),
    /// The leader's run failed before publishing.
    Failed,
}

/// The rendezvous between one leader fetch and its followers. Poison
/// recovery on its lock is sound: the state changes by one assignment.
pub(crate) struct FetchSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl FetchSlot {
    fn new() -> FetchSlot {
        FetchSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publishes the leader's harvest. Only **exact** harvests may be
    /// published (the caller is the non-degradable server executor); a
    /// run that cannot produce one must [`FetchSlot::fail`] instead.
    /// Idempotent: only a pending slot transitions.
    pub(crate) fn publish(&self, rows: Arc<Harvest>) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*s, SlotState::Pending) {
            *s = SlotState::Ready(rows);
            drop(s);
            self.cv.notify_all();
        }
    }

    /// Fails the slot. Idempotent: only a pending slot transitions, so
    /// a harvest already published stays servable.
    pub(crate) fn fail(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*s, SlotState::Pending) {
            *s = SlotState::Failed;
            drop(s);
            self.cv.notify_all();
        }
    }

    fn is_failed(&self) -> bool {
        matches!(
            *self.state.lock().unwrap_or_else(PoisonError::into_inner),
            SlotState::Failed
        )
    }

    /// Blocks until the leader publishes or fails.
    ///
    /// # Errors
    /// Fails when the leader's run failed before publishing.
    pub(crate) fn wait(&self) -> Result<Arc<Harvest>> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*s {
                SlotState::Ready(rows) => return Ok(rows.clone()),
                SlotState::Failed => {
                    return Err(FusionError::execution(
                        "merged fetch failed upstream: the leader's exchange did not \
                         complete, so the follower cannot be served from its harvest",
                    ))
                }
                SlotState::Pending => {
                    s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// One step's attachment to another query's in-flight fetch.
#[derive(Clone)]
pub(crate) struct ShareAttach {
    pub(crate) slot: Arc<FetchSlot>,
    /// True when the harvest must pass through a residual filter.
    pub(crate) residual: bool,
}

/// Everything one admission resolved against the share table.
pub(crate) struct ShareCtx {
    /// Per-step attachment (same length as the plan's steps).
    pub(crate) attach: Vec<Option<ShareAttach>>,
    /// Per-step slots this query leads.
    pub(crate) leads: Vec<Option<Arc<FetchSlot>>>,
    /// The logged links, for the admission's log entry.
    pub(crate) refs: Vec<ShareRef>,
}

struct ShareEntry {
    source: SourceId,
    cond: CondId,
    pred: Predicate,
    /// Epoch of `source` at the leader's admission.
    epoch: u64,
    /// The leader's admission ticket.
    ticket: u64,
    /// The fetching step of the leader's plan.
    step: usize,
    slot: Arc<FetchSlot>,
}

impl ShareEntry {
    /// The entry as the share rule sees it: an in-flight fetch.
    fn fetch(&self) -> ShareStep<'_> {
        ShareStep {
            ticket: self.ticket,
            step: self.step,
            source: self.source,
            cond: self.cond,
            pred: &self.pred,
            epoch: self.epoch,
            leader: None,
            residual: false,
        }
    }
}

/// The registry of in-flight leader fetches. Locked only while the
/// caller already holds cache shard locks (admission holds all of
/// them, commit at least one), so table operations are totally ordered
/// with the cache's critical sections.
pub(crate) struct ShareTable {
    entries: Mutex<Vec<ShareEntry>>,
}

impl ShareTable {
    pub(crate) fn new() -> ShareTable {
        ShareTable {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Resolves one admission against the table: the share rule
    /// ([`share_schedule`]) decides, over the live (not failed) leaders
    /// in ticket order, which cache-miss selections attach and which
    /// fetch; fetching steps register as new leaders. Runs inside the
    /// admission critical section.
    ///
    /// # Errors
    /// Fails when an attach breaks `unsound-merge-residual`: its leader
    /// is no selection fetch on its source, or a containment (both ways,
    /// for an exact attach) does not re-prove.
    pub(crate) fn admit(
        &self,
        ticket: u64,
        plan: &Plan,
        conditions: &[Condition],
        cache_served: &[bool],
        epochs: &[u64],
    ) -> Result<ShareCtx> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let prove: Prover<'_> = &subsumes;
        let live: Vec<ShareStep<'_>> = entries
            .iter()
            .filter(|e| !e.slot.is_failed())
            .map(ShareEntry::fetch)
            .collect();
        let steps = share_schedule(&live, ticket, plan, conditions, cache_served, epochs, prove);
        if steps.iter().any(|s| s.leader.is_some()) {
            let schedule: Vec<ShareStep<'_>> = live.iter().chain(&steps).copied().collect();
            if let Some(d) = unsound_merge_findings(&schedule, prove).first() {
                return Err(FusionError::execution(format!(
                    "share certificate: admission {ticket}: {d}"
                )));
            }
        }
        let n = plan.steps.len();
        // The table changes only after the last step that can panic, so
        // a panicking admission leaves it as it found it: poison recovery
        // here and in `retire` (one `retain`) is sound.
        let mut fresh = Vec::new();
        let mut ctx = ShareCtx {
            attach: vec![None; n],
            leads: vec![None; n],
            refs: Vec::new(),
        };
        for s in steps {
            if let Some((leader, leader_step)) = s.leader {
                let e = entries
                    .iter()
                    .find(|e| (e.ticket, e.step) == (leader, leader_step))
                    .expect("the rule attaches only to listed leaders");
                ctx.attach[s.step] = Some(ShareAttach {
                    slot: e.slot.clone(),
                    residual: s.residual,
                });
                ctx.refs.push(ShareRef {
                    step: s.step,
                    leader,
                    leader_step,
                    residual: s.residual,
                });
            } else {
                let slot = Arc::new(FetchSlot::new());
                fresh.push(ShareEntry {
                    source: s.source,
                    cond: s.cond,
                    pred: s.pred.clone(),
                    epoch: s.epoch,
                    ticket,
                    step: s.step,
                    slot: slot.clone(),
                });
                ctx.leads[s.step] = Some(slot);
            }
        }
        entries.extend(fresh);
        Ok(ctx)
    }

    /// Retires a query's leader entries: still-pending slots fail (no
    /// follower may wait forever), published harvests stay readable
    /// through the `Arc`s followers already hold. Runs inside the
    /// leader's commit critical section on success (so every attached
    /// follower's ticket precedes the commit ticket) and on the error
    /// path unconditionally.
    pub(crate) fn retire(&self, ticket: u64) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        for e in entries.iter().filter(|e| e.ticket == ticket) {
            e.slot.fail();
        }
        entries.retain(|e| e.ticket != ticket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::plan::{Step, VarId};
    use fusion_types::{CmpOp, CondId, Tuple, Value};

    fn ge(v: i64) -> Condition {
        Predicate::cmp("D", CmpOp::Ge, v).into()
    }

    /// A one-selection plan: `v1 := sq(c1, R{src+1})`.
    fn sq_plan(src: usize) -> Plan {
        let mut p = Plan::new(vec![], VarId(0), 1, src + 1);
        let out = p.fresh_var("v1");
        p.steps.push(Step::Sq {
            out,
            cond: CondId(0),
            source: SourceId(src),
        });
        p.result = out;
        p
    }

    fn rows(n: i64) -> Arc<Harvest> {
        Arc::new(Harvest::new(vec![Tuple::new(vec![
            Value::str("e"),
            Value::str("v"),
            Value::Int(n),
        ])]))
    }

    #[test]
    fn duplicate_admissions_attach_exactly() {
        let table = ShareTable::new();
        let plan = sq_plan(0);
        let conds = [ge(1990)];
        let a = table.admit(1, &plan, &conds, &[false], &[0]).unwrap();
        assert!(a.refs.is_empty());
        assert!(a.leads[0].is_some());
        let b = table.admit(2, &plan, &conds, &[false], &[0]).unwrap();
        assert_eq!(b.refs.len(), 1);
        let r = b.refs[0];
        assert_eq!((r.leader, r.leader_step, r.residual), (1, 0, false));
        assert!(b.leads[0].is_none());
        // The leader publishes; the follower's slot serves the rows.
        a.leads[0].as_ref().unwrap().publish(rows(1993));
        let got = b.attach[0].as_ref().unwrap().slot.wait().unwrap();
        assert_eq!(got.rows().len(), 1);
    }

    #[test]
    fn contained_admissions_attach_with_a_residual() {
        let table = ShareTable::new();
        let broad = sq_plan(0);
        let narrow = sq_plan(0);
        table.admit(1, &broad, &[ge(1990)], &[false], &[0]).unwrap();
        let b = table
            .admit(2, &narrow, &[ge(1994)], &[false], &[0])
            .unwrap();
        assert_eq!(b.refs.len(), 1);
        assert!(b.refs[0].residual, "proper containment needs a residual");
    }

    #[test]
    fn a_broad_query_never_rides_an_earlier_narrow_fetch() {
        // Narrow, then broad, then a duplicate of the narrow one: two
        // exchanges, and the duplicate rides the narrow fetch exactly.
        let table = ShareTable::new();
        let plan = sq_plan(0);
        let admit = |ticket, y| {
            table
                .admit(ticket, &plan, &[ge(y)], &[false], &[0])
                .unwrap()
        };
        let (q1, q2, q3) = (admit(1, 1994), admit(2, 1990), admit(3, 1994));
        assert!(q1.refs.is_empty() && q1.leads[0].is_some());
        assert!(q2.refs.is_empty() && q2.leads[0].is_some());
        assert!(q3.leads[0].is_none());
        assert_eq!(q3.refs.len(), 1);
        let r = q3.refs[0];
        assert_eq!(
            (r.step, r.leader, r.leader_step, r.residual),
            (0, 1, 0, false)
        );
    }

    #[test]
    fn different_sources_and_stale_epochs_never_attach() {
        let table = ShareTable::new();
        table
            .admit(1, &sq_plan(0), &[ge(1990)], &[false], &[0, 0])
            .unwrap();
        // Same predicate, different source: no attach.
        let other = table
            .admit(2, &sq_plan(1), &[ge(1990)], &[false], &[0, 0])
            .unwrap();
        assert!(other.refs.is_empty());
        // Same source, but the epoch advanced since the leader admitted:
        // the fetch predates the update and must not fan out.
        let stale = table
            .admit(3, &sq_plan(0), &[ge(1990)], &[false], &[1, 0])
            .unwrap();
        assert!(stale.refs.is_empty());
    }

    #[test]
    fn failed_leaders_fail_their_followers_and_never_serve() {
        let table = ShareTable::new();
        let plan = sq_plan(0);
        let conds = [ge(1990)];
        let _a = table.admit(1, &plan, &conds, &[false], &[0]).unwrap();
        let b = table.admit(2, &plan, &conds, &[false], &[0]).unwrap();
        // The leader's run fails before publishing: retire fails the
        // pending slot, and the follower's wait reports the failure —
        // a non-exact harvest is never served.
        table.retire(1);
        let err = b.attach[0].as_ref().unwrap().slot.wait().unwrap_err();
        assert!(err.to_string().contains("merged fetch failed upstream"));
        // A published harvest later fails nothing: fail is one-way.
        let slot = FetchSlot::new();
        slot.publish(rows(1));
        slot.fail();
        assert!(slot.wait().is_ok());
        // New admissions skip the failed entry era entirely (retired).
        let c = table.admit(3, &plan, &conds, &[false], &[0]).unwrap();
        assert!(c.refs.is_empty() && c.leads[0].is_some());
    }

    #[test]
    fn retire_inside_commit_keeps_published_harvests_readable() {
        let table = ShareTable::new();
        let plan = sq_plan(0);
        let conds = [ge(1990)];
        let a = table.admit(1, &plan, &conds, &[false], &[0]).unwrap();
        let b = table.admit(2, &plan, &conds, &[false], &[0]).unwrap();
        a.leads[0].as_ref().unwrap().publish(rows(1993));
        table.retire(1);
        // The follower attached before the commit: its Arc'd slot still
        // serves even though the table entry is gone.
        assert!(b.attach[0].as_ref().unwrap().slot.wait().is_ok());
        // But nobody can attach to the committed leader anymore.
        let c = table.admit(3, &plan, &conds, &[false], &[0]).unwrap();
        assert!(c.refs.is_empty());
    }
}
