//! The mediator-side plan executor.
//!
//! Interprets fusion query plans against live wrappers with full cost
//! accounting. The crate is one **step core** plus the **drivers** that
//! interpret a plan through it (DESIGN.md §19):
//!
//! * The step core (`step.rs`, crate-private) says what a plan step
//!   *means*, once: one fetch primitive per remote step kind — every
//!   remote operation goes through the simulated [`Network`] and is
//!   charged communication and source-processing cost; a semijoin
//!   against a source without native support is transparently emulated
//!   as batched passed-binding probes (§2.3) — each deliverable plainly
//!   or retried under a [`RetryPolicy`]; one run state (variables,
//!   ledger slots, pending cache admissions, dropped steps, the
//!   [`Completeness`] fold, the BDD-guarded drop check); one stage pool.
//! * A driver decides only in which order and on which thread steps run,
//!   and takes as `Option` parameters what is orthogonal to that:
//!   - [`execute_plan`] / [`execute_plan_unchecked`] / [`execute_plan_with`]
//!     — in plan order on the calling thread; `retry` adds fault
//!     tolerance (exchanges failed by the network's [`FaultPlan`] are
//!     retried, and when a source stays down its steps are dropped —
//!     guarded by the analyzer's droppability check — for a partial
//!     answer tagged [`Completeness::Subset`]), `cache` serves and
//!     admits selections through a semantic answer cache.
//!   - [`execute_plan_parallel`] — the certified stage decomposition on
//!     real threads, one serial queue per source, results merged at
//!     stage barriers: answers, ledgers, and network traces
//!     byte-identical to sequential execution, with measured wall-clock
//!     makespan.
//!   - [`execute_plan_replay`] — one event at a time in a caller-chosen
//!     order, the semantics the schedule model-checker explores.
//!   - [`execute_plan_reopt`] (and [`replay_plan_reopt`]) — round by
//!     round (optionally each round on worker threads), watching
//!     observed cardinalities and the running set: when one escapes its
//!     believed interval the remaining suffix is re-searched by the
//!     planner's own exact search ([`suffix_search`]) and spliced in —
//!     only if [`certify_switch`] proves the splice sound. Switches land
//!     in the ledger as [`StepKind::Reopt`] markers so the replay
//!     reproduces switched runs bit for bit. Takes `retry` and `cache`
//!     as [`execute_plan_with`] does; a dropped step is not an
//!     observation. At [`ReoptConfig::every_round`] it is per-round
//!     re-planning from the observed running set (DESIGN.md §15).
//!   - [`serve`] — the multi-tenant mediator server: a worker pool
//!     interleaves many tenants' sessions over one shared, sharded
//!     answer cache with admission control, per-source concurrency
//!     limits, cross-query fetch sharing, and a certified replayable
//!     operation log ([`replay_serial`] / [`verify_replay_parity`] prove
//!     byte-parity with a serial run).
//! * Beside the plan drivers: [`CostLedger`] records the actual cost of
//!   every step;
//!   [`response_time`] replays an executed plan under a parallel
//!   execution model (§6); [`fetch_records`] is the broadcast "second
//!   phase" of two-phase processing (§1) and [`fetch_planned`] its
//!   cost-based covering counterpart (one queue loop,
//!   [`execute_fetch_plan`], re-planning around dead sources when given
//!   a retry policy).
//!
//! [`FaultPlan`]: fusion_net::FaultPlan
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
mod parallel;
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

pub use interp::{execute_plan, execute_plan_unchecked, execute_plan_with, ExecutionOutcome};
pub use ledger::{CostLedger, LedgerEntry, StepKind};
pub use parallel::{execute_plan_parallel, ParallelConfig, ParallelOutcome};
pub use phase2::{cached_phase2_rows, execute_fetch_plan, fetch_planned, Phase2Outcome};
pub use piggyback::{execute_piggyback, fetch_first_records, PiggybackOutcome};
pub use reopt::{
    execute_plan_reopt, replay_plan_reopt, ReoptConfig, ReoptOutcome, RoundRecord, SwitchRecord,
};
pub use replay::{execute_plan_replay, ReplayOptions};
pub use retry::{Completeness, RetryPolicy};
pub use schedule::{
    response_time, schedule, stage_schedule, verify_stage_trace, ScheduledStep, StageTraceEntry,
};
pub use server::{
    replay_serial, serve, verify_replay_parity, LoggedOp, OpKind, QueryResult, ReplayedQuery,
    ServerConfig, ServerReport, ShareRef, ShedQuery, TenantEvent,
};
pub use two_phase::fetch_records;

#[cfg(test)]
mod testkit;
