//! Deterministic network cost simulation for Internet data sources.
//!
//! The paper's cost model (§2.4) charges every source query a non-negative
//! cost that "could take into account the cost of communicating with
//! sources, and the cost of actually processing the queries at the
//! sources". This crate supplies the communication half: each source is
//! reached over a [`Link`] with latency, bandwidth, and per-query overhead,
//! and a [`Network`] turns request/response byte counts into [`Cost`]s and
//! records an exchange trace.
//!
//! The simulator is a pure cost calculator — no clocks, threads, or I/O —
//! so every run is exactly reproducible. That extends to failure: a
//! [`FaultPlan`] injects transient errors, timeouts, slowdowns, and hard
//! outages from a seeded schedule that is a pure function of
//! `(seed, source, attempt)`, so every faulty run replays identically.
//!
//! [`Cost`]: fusion_types::Cost

#![forbid(unsafe_code)]

mod fault;
mod link;
pub mod message;
mod network;

pub use fault::{FaultDecision, FaultKind, FaultPlan, FaultSpec};
pub use link::{Link, LinkProfile};
pub use message::MessageSize;
pub use network::{Exchange, ExchangeKind, ExchangeStatus, FailedExchange, Network, SourceHandle};
