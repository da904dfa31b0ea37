//! Retry policy and answer-completeness contract for fault-tolerant
//! execution.
//!
//! When the network injects faults (see [`fusion_net::FaultPlan`]), the
//! executor retries failed exchanges under a [`RetryPolicy`]: bounded
//! attempts, exponential backoff with seeded jitter (charged as waiting
//! cost), a per-query cost deadline, and a per-source circuit breaker.
//! Because backoff delays are a pure function of
//! `(policy seed, source, attempt)`, a faulty run replays identically.
//!
//! When a source stays down past the policy's patience, the executor may
//! drop its remaining steps and return a *partial* answer. The
//! [`Completeness`] tag on the outcome is the contract: `Subset` answers
//! are always a subset of the true fusion answer (dropping a source can
//! only lose union operands, never admit a false positive — verified per
//! plan by the BDD analyzer's droppability check).

use fusion_stats::SplitMix64;
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Cost, SourceId};

/// How the executor responds to injected faults.
///
/// All delays are expressed in cost units (the simulator has no clock);
/// backoff waiting is charged to the failing step's `failed_cost`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum exchange attempts per request (first try included).
    pub max_attempts: usize,
    /// Backoff charged before the first retry, in cost units.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff after each failed retry.
    pub backoff_factor: f64,
    /// Jitter fraction: each backoff is scaled by `1 + jitter·u` with
    /// `u ∈ [0, 1)` drawn from the policy seed.
    pub jitter: f64,
    /// Seed for the jitter schedule (independent of the fault plan's).
    pub seed: u64,
    /// Abort the query once total executed cost exceeds this budget.
    pub deadline: Option<Cost>,
    /// Consecutive failures at one source before its circuit breaker
    /// trips and the source is considered dead for the rest of the query.
    pub breaker_threshold: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: 0.05,
            backoff_factor: 2.0,
            jitter: 0.5,
            seed: 0,
            deadline: None,
            breaker_threshold: 3,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never drops back off.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0.0,
            ..RetryPolicy::default()
        }
    }

    /// Rejects a policy [`RetryPolicy::backoff`] cannot price: the
    /// executors call this on entry, so a bad policy is an error naming
    /// the field, not a panic at the first transient failure.
    ///
    /// # Errors
    /// If `max_attempts` or `breaker_threshold` is zero, `backoff_base`
    /// or `jitter` is negative or non-finite, or `backoff_factor` is not
    /// a finite number of at least 1.
    pub(crate) fn check(&self) -> Result<()> {
        let bad = |rule: &str| Err(FusionError::execution(format!("retry policy: {rule}")));
        if self.max_attempts < 1 {
            return bad("max_attempts must be at least 1");
        }
        if self.breaker_threshold < 1 {
            return bad("breaker_threshold must be at least 1");
        }
        if !(self.backoff_base.is_finite() && self.backoff_base >= 0.0) {
            return bad(&format!(
                "backoff_base must be a non-negative finite number, got {}",
                self.backoff_base
            ));
        }
        if !(self.backoff_factor.is_finite() && self.backoff_factor >= 1.0) {
            return bad(&format!(
                "backoff_factor must be a finite number of at least 1, got {}",
                self.backoff_factor
            ));
        }
        if !(self.jitter.is_finite() && self.jitter >= 0.0) {
            return bad(&format!(
                "jitter must be a non-negative finite number, got {}",
                self.jitter
            ));
        }
        Ok(())
    }

    /// The backoff cost charged before retry number `retry` (1-based) of
    /// an exchange against `source`. Deterministic in
    /// `(seed, source, attempt)`, so replays are exact.
    ///
    /// `retry == 0` is defined as [`Cost::ZERO`]: no retry has happened,
    /// so nothing is waited for. (Callers are expected to pass 1-based
    /// retry numbers; the debug assert flags the slip, but release builds
    /// must not wrap `retry - 1` into a garbage `powi` exponent.)
    pub(crate) fn backoff(&self, source: SourceId, retry: usize) -> Cost {
        debug_assert!(retry >= 1);
        if retry == 0 || self.backoff_base == 0.0 {
            return Cost::ZERO;
        }
        let exp = self.backoff_factor.powi((retry - 1) as i32);
        let mixed = self
            .seed
            .wrapping_add((source.0 as u64).wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add((retry as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let u = SplitMix64::new(mixed).next_f64();
        Cost::new(self.backoff_base * exp * (1.0 + self.jitter * u))
    }
}

/// How much of the true fusion answer an execution outcome covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completeness {
    /// Every step executed: the answer is the exact fusion answer.
    Exact,
    /// Some steps were dropped after their source was given up on. The
    /// answer is a (possibly proper) subset of the exact answer.
    Subset {
        /// Sources whose steps were dropped, ascending.
        missing_sources: Vec<SourceId>,
        /// Conditions with at least one dropped sub-query, ascending.
        /// The answer may miss items that satisfy these conditions only
        /// at the dead sources.
        missing_conditions: Vec<CondId>,
    },
}

impl Completeness {
    /// Whether the answer is the exact fusion answer.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }
}

impl std::fmt::Display for Completeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completeness::Exact => write!(f, "exact"),
            Completeness::Subset {
                missing_sources,
                missing_conditions,
            } => {
                let srcs: Vec<String> = missing_sources
                    .iter()
                    .map(|s| format!("R{}", s.0 + 1))
                    .collect();
                let conds: Vec<String> = missing_conditions
                    .iter()
                    .map(|c| format!("c{}", c.0 + 1))
                    .collect();
                write!(
                    f,
                    "subset (missing sources: {}; weakened conditions: {})",
                    if srcs.is_empty() {
                        "none".to_string()
                    } else {
                        srcs.join(", ")
                    },
                    if conds.is_empty() {
                        "none".to_string()
                    } else {
                        conds.join(", ")
                    },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let p = RetryPolicy::default();
        let a1 = p.backoff(SourceId(0), 1);
        let a2 = p.backoff(SourceId(0), 2);
        let a3 = p.backoff(SourceId(0), 3);
        assert_eq!(a1, p.backoff(SourceId(0), 1));
        assert!(a1 > Cost::ZERO);
        // Factor 2 with jitter ≤ 0.5 keeps successive backoffs ordered.
        assert!(a2 > a1, "{a2} vs {a1}");
        assert!(a3 > a2);
        // Different sources draw different jitter.
        assert_ne!(p.backoff(SourceId(1), 1), a1);
    }

    /// Release-profile regression test: `backoff(_, 0)` used to compute
    /// `0usize - 1`, which only the debug assert caught; in release it
    /// wrapped to `usize::MAX` and produced a garbage exponent. The
    /// boundary is defined as zero cost. (Debug builds keep the assert,
    /// so the definition is only observable — and this test only runs —
    /// without debug assertions, e.g. under `cargo test --release`.)
    #[test]
    #[cfg(not(debug_assertions))]
    fn zeroth_retry_backs_off_zero_in_release() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(SourceId(0), 0), Cost::ZERO);
        assert_eq!(p.backoff(SourceId(7), 0), Cost::ZERO);
        // And the well-formed calls are unaffected.
        assert!(p.backoff(SourceId(0), 1) > Cost::ZERO);
    }

    #[test]
    fn no_retry_policy_is_free() {
        let p = RetryPolicy::no_retry();
        p.check().unwrap();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff(SourceId(3), 1), Cost::ZERO);
    }

    #[test]
    fn zero_attempts_rejected() {
        let err = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
        .check()
        .unwrap_err();
        assert!(err.to_string().contains("max_attempts"), "{err}");
    }

    #[test]
    fn shrinking_backoff_rejected() {
        let err = RetryPolicy {
            backoff_factor: 0.5,
            ..RetryPolicy::default()
        }
        .check()
        .unwrap_err();
        assert!(err.to_string().contains("backoff_factor"), "{err}");
    }

    #[test]
    fn completeness_display() {
        assert_eq!(Completeness::Exact.to_string(), "exact");
        let c = Completeness::Subset {
            missing_sources: vec![SourceId(1)],
            missing_conditions: vec![CondId(0), CondId(2)],
        };
        assert_eq!(
            c.to_string(),
            "subset (missing sources: R2; weakened conditions: c1, c3)"
        );
        assert!(!c.is_exact());
        assert!(Completeness::Exact.is_exact());
    }
}
