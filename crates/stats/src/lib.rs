//! Statistics for fusion-query cost estimation.
//!
//! The optimizers of §3 consume cost functions `sq_cost` / `sjq_cost` that
//! "can use whatever information is available at query optimization time".
//! This crate provides that information for autonomous sources:
//!
//! * [`ColumnStats`] / [`TableStats`] — per-attribute equi-depth histograms,
//!   most-common values, distinct counts, and a deterministic value sample,
//!   built by scanning or sampling a wrapper's relation.
//! * [`estimate_selectivity`] — predicate selectivity estimation over those
//!   statistics (histogram interpolation for numeric ranges, MCV lookup for
//!   point predicates, sample evaluation as the general fallback).
//! * [`union_estimate`] — cardinality arithmetic for
//!   the semijoin-set sizes `|X_i|` the SJ/SJA algorithms need.
//! * [`CostCalibration`] — least-squares fitting of per-source cost
//!   coefficients from observed exchanges, in the spirit of the query
//!   sampling method of Zhu & Larson \[25\] which the paper cites for
//!   gathering "the relevant statistical information that the cost
//!   functions need".

#![forbid(unsafe_code)]

mod calibration;
mod cardinality;
mod estimator;
mod feedback;
mod histogram;
mod sample;

pub use calibration::{CostCalibration, Observation};
pub use cardinality::union_estimate;
pub use estimator::estimate_selectivity;
pub use feedback::{CardObservation, CardinalityFeedback, ConditionFeedback};
pub use histogram::{ColumnStats, NumericHistogram, TableStats};
pub use sample::SplitMix64;
