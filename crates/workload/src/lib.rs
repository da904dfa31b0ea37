//! Deterministic scenarios and synthetic workloads.
//!
//! The conference version of the paper evaluates its ideas on worked
//! examples (the DMV scenario of Figure 1); the quantitative experiments
//! live in the extended version, which is no longer retrievable. This
//! crate supplies the substitute evaluation data:
//!
//! * [`dmv`] — the paper's running example, both the exact Figure 1
//!   relations and a scaled-up parameterized DMV population;
//! * [`biblio`] — the bibliographic-search scenario sketched in §1
//!   (documents with keyword records scattered across libraries);
//! * [`synth`] — fully parameterized synthetic populations: number of
//!   sources, item domain size, per-source cardinality, per-condition
//!   selectivities, capability heterogeneity, and link mixes — the knobs
//!   the paper's claims are about;
//! * [`session`] — multi-query session streams with Zipf-skewed query
//!   reuse and source-update events, the workload the answer-cache
//!   experiments replay;
//! * [`Scenario`] — the bundle (query + relations + wrappers + network)
//!   every experiment and example consumes.
//!
//! Everything is seeded and exactly reproducible.

#![forbid(unsafe_code)]

pub mod biblio;
pub mod csv;
pub mod dmv;
mod scenario;
pub mod session;
pub mod synth;

pub use scenario::Scenario;
pub use session::{generate_session, Session, SessionEvent, SessionSpec};
pub use synth::{CapabilityMix, SynthSpec};
