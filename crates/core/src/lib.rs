//! Fusion query plans, cost models, and the paper's optimizers.
//!
//! This crate is the reproduction of the paper's contribution:
//!
//! * [`FusionQuery`] — the query class of §2.2: find the merge-attribute
//!   items that satisfy every condition `c_1..c_m`, where each condition
//!   may hold at any of the sources `R_1..R_n`.
//! * [`plan`] — the simple-plan language of §2.3 (`sq`, `sjq`, local
//!   `∪`/`∩`) plus the extended operations of §4 (`lq`, local selection,
//!   set difference), as an ANF-style step list that prints in the paper's
//!   own notation.
//! * [`cost`] — the general cost model interface of §2.4 and two
//!   implementations: an explicit table model (for tests and worked
//!   examples) and a network model deriving costs from link parameters,
//!   source capabilities, and statistics.
//! * [`optimizer`] — FILTER, SJ (Fig. 3), SJA (Fig. 4), and the greedy
//!   variants the paper attributes to its extended version \[24\].
//! * [`postopt`] — the SJA+ postoptimizations of §4: semijoin-set pruning
//!   with set difference and whole-source loading.
//! * [`estimate_plan_cost`] — optimizer-side cost/cardinality estimation
//!   for any plan, used both during search and for estimated-vs-actual
//!   studies.
//! * [`evaluate_plan`] — a pure reference interpreter of plans over
//!   in-memory relations, used to prove plan transformations
//!   semantics-preserving.
//! * [`sampler`] — a generator of random *correct* simple plans, used to
//!   validate the optimality theorem empirically.
//! * [`analyze`] — the semantic plan analyzer: an abstract interpreter
//!   over the step IR that *proves* (or refutes with a counterexample
//!   world) that a plan computes `⋂_i ⋃_j sq(c_i, R_j)`, plus a lint
//!   framework flagging dead steps, duplicate queries, oversized
//!   semijoin inputs, unused loads, and un-re-intersected Bloom results.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod cost;
pub mod dataflow;
mod estimate;
mod evaluate;
mod explain;
pub mod optimizer;
pub mod phase2;
pub mod plan;
pub mod postopt;
pub mod query;
pub mod sampler;

pub use analyze::{analyze_plan, Analysis, Counterexample, Diagnostic, Verdict};
pub use cost::{
    calibrate, CalibratedCostModel, CostModel, FeedbackCostModel, NetworkCostModel, TableCostModel,
};
pub use dataflow::{
    analyze_dataflow, certify_switch, dataflow_lint_plan, interference_report, stage_decomposition,
    verify_stage_decomposition, CostInterval, Dataflow, Event, EventGraph, Footprint, Interference,
    Interval, Resource, SourceBounds, StageDecomposition, SwitchCertificate, Witness,
};
pub use estimate::{estimate_plan_cost, PlanEstimate};
pub use evaluate::{evaluate_plan, evaluate_plan_vars};
pub use explain::explain;
pub use optimizer::{filter_plan, greedy_sja, sj_optimal, sja_optimal, OptimizedPlan};
pub use plan::{Plan, PlanClass, RelVar, SimplePlanSpec, SourceChoice, Step, VarId};
pub use postopt::{sja_plus, PostOptConfig};
pub use query::FusionQuery;
