//! The mediator-side plan executor (DESIGN.md §19).
//!
//! Interprets fusion query plans against live wrappers with full cost
//! accounting. One crate-private **step core** (`step.rs`) says what a
//! plan step *means*, once: one fetch primitive per remote step kind —
//! every exchange goes through the simulated [`Network`] and is charged
//! communication and source-processing cost, a semijoin at a source
//! without native support is emulated by batched passed-binding probes
//! (§2.3) — each deliverable plainly or retried under a [`RetryPolicy`];
//! one run state (variables, ledger slots, pending cache admissions,
//! dropped steps, the [`Completeness`] fold, the BDD-guarded drop check);
//! one stage pool. Two drivers run plans through it:
//!
//! * [`run`] interprets a [`Target`] — a plan, or a simple plan spec
//!   under a [`ReoptRule`] — with one [`RunOptions`]: a [`Schedule`]
//!   (plan order; the certified stages on threads, byte-identical to plan
//!   order; or one event at a time, as the model-checker explores),
//!   `retry` (failed exchanges retried, a dead source's steps soundly
//!   dropped for an answer tagged [`Completeness::Subset`]) and `cache`
//!   (a semantic answer cache). [`ReoptRule::Live`] re-plans the suffix
//!   at a round boundary where an observation escapes its believed
//!   interval ([`suffix_search`]), splicing only what [`certify_switch`]
//!   proves sound and marking it in the ledger ([`StepKind::Reopt`]), so
//!   [`ReoptRule::Replay`] reproduces it bit for bit (§15).
//!   [`execute_plan`] / [`execute_plan_unchecked`] run a plan in plan
//!   order, with and without the soundness proof.
//! * [`serve`], the multi-tenant mediator server: a worker pool over one
//!   shared, sharded answer cache with admission control, per-source
//!   limits, cross-query fetch sharing, and a certified replayable log
//!   ([`replay_serial`] / [`verify_replay_parity`]).
//!
//! Beside them: [`CostLedger`]; [`response_time`] under a parallel
//! execution model (§6); [`fetch_records`], the broadcast second phase
//! of two-phase processing (§1), and [`fetch_planned`], its cost-based
//! covering counterpart (one queue loop, [`execute_fetch_plan`]).
//!
//! [`certify_switch`]: fusion_core::dataflow::certify_switch
//!
//! [`suffix_search`]: fusion_core::optimizer::suffix_search
//!
//! [`Network`]: fusion_net::Network

#![forbid(unsafe_code)]

mod cached;
mod interp;
mod ledger;
mod log;
mod phase2;
mod piggyback;
mod reopt;
mod replay;
mod retry;
mod schedule;
mod server;
mod share;
mod step;
mod two_phase;

pub use interp::{
    execute_plan, execute_plan_unchecked, run, ExecutionOutcome, RunOptions, RunOutcome, Schedule,
    StageReport, Target,
};
pub use ledger::{CostLedger, LedgerEntry, StepKind};
pub use log::{LoggedOp, OpKind};
pub use phase2::{cached_phase2_rows, execute_fetch_plan, fetch_planned, Phase2Outcome};
pub use piggyback::{execute_piggyback, fetch_first_records, PiggybackOutcome};
pub use reopt::{ReoptConfig, ReoptReport, ReoptRule, RoundRecord, SwitchRecord};
pub use retry::{Completeness, RetryPolicy};
pub use schedule::{
    response_time, schedule, stage_schedule, verify_stage_trace, ScheduledStep, StageTraceEntry,
};
pub use server::{
    replay_serial, serve, verify_replay_parity, QueryResult, ReplayedQuery, ServerConfig,
    ServerReport, ShareRef, ShedQuery, TenantEvent,
};
pub use two_phase::fetch_records;

#[cfg(test)]
mod testkit;
