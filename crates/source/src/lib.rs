//! Source engines and wrappers (§2.1, §2.3).
//!
//! Every data source participating in a fusion query is fronted by a
//! *wrapper* that exports a relation of the common schema and answers:
//!
//! * selection queries `sq(c_i, R_j)` — items satisfying `c_i`;
//! * semijoin queries `sjq(c_i, R_j, Y)` — the subset of `Y` satisfying
//!   `c_i` — **if** the source supports them natively; otherwise the
//!   mediator emulates the semijoin as a batch of passed-binding
//!   selections (`c_i AND M IN (...)`, §2.3);
//! * full loads `lq(R_j)` — the entire relation (§4's source-loading
//!   postoptimization);
//! * record fetches — full tuples for given items (the "second phase" of
//!   §1's two-phase processing).
//!
//! The crate also defines [`Capabilities`] (what a source can do) and
//! [`ProcessingProfile`] (what its work costs), which together with the
//! link parameters of `fusion-net` drive both actual cost accounting and
//! the optimizer's cost estimates.

#![forbid(unsafe_code)]

mod capability;
mod engine;
mod registry;
mod wrapper;

pub use capability::{Capabilities, ProcessingProfile};
pub use engine::SourceEngine;
pub use registry::SourceSet;
pub use wrapper::{InMemoryWrapper, Wrapper, WrapperResponse};
