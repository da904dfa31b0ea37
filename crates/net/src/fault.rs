//! Deterministic fault injection for the simulated network.
//!
//! The paper targets *autonomous Internet sources*; real federations treat
//! source unavailability as the common case. A [`FaultPlan`] assigns each
//! source a schedule of transient errors, timeouts, slowdowns, and hard
//! outages, decided by a pure function of `(seed, source, attempt)` — so
//! every failure run is exactly replayable, independent of how attempts at
//! different sources interleave.

use fusion_stats::SplitMix64;
use fusion_types::SourceId;

/// How one network attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The source answered quickly with a retryable error.
    Transient,
    /// The request was sent but no answer arrived before the deadline.
    Timeout,
    /// The source is down; this and every later attempt is refused.
    Outage,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::Transient => "transient",
            FaultKind::Timeout => "timeout",
            FaultKind::Outage => "outage",
        };
        write!(f, "{s}")
    }
}

/// The fate of one attempt, as decided by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// The exchange succeeds; its cost is multiplied by `cost_factor`
    /// (`1.0` for a healthy attempt, more under a slowdown).
    Deliver {
        /// Multiplier applied to the link's exchange cost.
        cost_factor: f64,
    },
    /// The attempt fails.
    Fail(FaultKind),
}

/// Per-source fault characteristics.
///
/// Rates are probabilities per attempt and must lie in `[0, 1]` with
/// `transient_rate + timeout_rate + slowdown_rate <= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability an attempt fails with a retryable error.
    pub transient_rate: f64,
    /// Probability an attempt times out (the mediator waits
    /// [`timeout_wait`](Self::timeout_wait) extra cost units for nothing).
    pub timeout_rate: f64,
    /// Probability an attempt succeeds but is slowed by
    /// [`slowdown_factor`](Self::slowdown_factor).
    pub slowdown_rate: f64,
    /// Cost multiplier applied to slowed attempts (≥ 1).
    pub slowdown_factor: f64,
    /// Extra cost charged for a timed-out attempt (the abandoned wait).
    pub timeout_wait: f64,
    /// Hard outage: every attempt whose per-source index is ≥ this value
    /// is refused with [`FaultKind::Outage`].
    pub outage_from: Option<usize>,
}

impl FaultSpec {
    /// A source that never fails.
    pub const fn none() -> FaultSpec {
        FaultSpec {
            transient_rate: 0.0,
            timeout_rate: 0.0,
            slowdown_rate: 0.0,
            slowdown_factor: 1.0,
            timeout_wait: 1.0,
            outage_from: None,
        }
    }

    /// A source failing transiently with the given per-attempt rate.
    pub fn transient(rate: f64) -> FaultSpec {
        FaultSpec {
            transient_rate: rate,
            ..FaultSpec::none()
        }
        .validated()
    }

    /// Checks the spec's invariants and returns it.
    ///
    /// # Panics
    /// Panics if a rate is outside `[0, 1]`, the rates sum past 1, the
    /// slowdown factor is below 1, or the timeout wait is negative.
    pub fn validated(self) -> FaultSpec {
        for (name, r) in [
            ("transient_rate", self.transient_rate),
            ("timeout_rate", self.timeout_rate),
            ("slowdown_rate", self.slowdown_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&r) && r.is_finite(),
                "{name} must be in [0, 1], got {r}"
            );
        }
        assert!(
            self.transient_rate + self.timeout_rate + self.slowdown_rate <= 1.0 + 1e-12,
            "fault rates must sum to at most 1"
        );
        assert!(
            self.slowdown_factor.is_finite() && self.slowdown_factor >= 1.0,
            "slowdown_factor must be ≥ 1, got {}",
            self.slowdown_factor
        );
        assert!(
            self.timeout_wait.is_finite() && self.timeout_wait >= 0.0,
            "timeout_wait must be non-negative, got {}",
            self.timeout_wait
        );
        self
    }
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec::none()
    }
}

/// A deterministic, seeded schedule of faults for every source.
///
/// The decision for attempt `n` at source `j` depends only on
/// `(seed, j, n)` — never on global state — so a run replays identically
/// whatever order the mediator visits sources in, and a `Network::reset`
/// restarts the exact same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan under which nothing ever fails.
    pub fn none(n_sources: usize) -> FaultPlan {
        FaultPlan {
            seed: 0,
            specs: vec![FaultSpec::none(); n_sources],
        }
    }

    /// A plan applying the same (validated) spec to every source.
    pub fn uniform(n_sources: usize, seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            seed,
            specs: vec![spec.validated(); n_sources],
        }
    }

    /// Replaces one source's spec.
    ///
    /// # Panics
    /// Panics if `source` is out of range or the spec is invalid.
    pub(crate) fn with_spec(mut self, source: SourceId, spec: FaultSpec) -> FaultPlan {
        self.specs[source.0] = spec.validated();
        self
    }

    /// Puts one source into a permanent outage starting at the given
    /// per-source attempt index.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn with_outage(self, source: SourceId, from: usize) -> FaultPlan {
        let spec = FaultSpec {
            outage_from: Some(from),
            ..self.specs[source.0]
        };
        self.with_spec(source, spec)
    }

    /// Number of sources covered.
    pub(crate) fn n_sources(&self) -> usize {
        self.specs.len()
    }

    /// One source's spec.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub(crate) fn spec(&self, source: SourceId) -> &FaultSpec {
        &self.specs[source.0]
    }

    /// Decides the fate of per-source attempt `attempt` at `source`.
    ///
    /// Pure in `(seed, source, attempt)`: calling it twice returns the
    /// same decision.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub(crate) fn decide(&self, source: SourceId, attempt: usize) -> FaultDecision {
        let spec = &self.specs[source.0];
        if spec.outage_from.is_some_and(|from| attempt >= from) {
            return FaultDecision::Fail(FaultKind::Outage);
        }
        if spec.transient_rate == 0.0 && spec.timeout_rate == 0.0 && spec.slowdown_rate == 0.0 {
            return FaultDecision::Deliver { cost_factor: 1.0 };
        }
        // One independent draw per (seed, source, attempt): mix the
        // coordinates into a fresh SplitMix64 stream.
        let mixed = self
            .seed
            .wrapping_add((source.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let u = SplitMix64::new(mixed).next_f64();
        if u < spec.transient_rate {
            FaultDecision::Fail(FaultKind::Transient)
        } else if u < spec.transient_rate + spec.timeout_rate {
            FaultDecision::Fail(FaultKind::Timeout)
        } else if u < spec.transient_rate + spec.timeout_rate + spec.slowdown_rate {
            FaultDecision::Deliver {
                cost_factor: spec.slowdown_factor,
            }
        } else {
            FaultDecision::Deliver { cost_factor: 1.0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_always_delivers() {
        let p = FaultPlan::none(3);
        for j in 0..3 {
            for n in 0..50 {
                assert_eq!(
                    p.decide(SourceId(j), n),
                    FaultDecision::Deliver { cost_factor: 1.0 }
                );
            }
        }
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let p1 = FaultPlan::uniform(2, 7, FaultSpec::transient(0.5));
        let p2 = FaultPlan::uniform(2, 7, FaultSpec::transient(0.5));
        let p3 = FaultPlan::uniform(2, 8, FaultSpec::transient(0.5));
        let seq = |p: &FaultPlan| -> Vec<FaultDecision> {
            (0..64).map(|n| p.decide(SourceId(0), n)).collect()
        };
        assert_eq!(seq(&p1), seq(&p2), "same seed ⇒ same schedule");
        assert_ne!(seq(&p1), seq(&p3), "different seed ⇒ different schedule");
        // Rate 0.5 over 64 attempts: both outcomes must occur.
        let s = seq(&p1);
        assert!(s.contains(&FaultDecision::Fail(FaultKind::Transient)));
        assert!(s.contains(&FaultDecision::Deliver { cost_factor: 1.0 }));
    }

    #[test]
    fn outage_is_permanent_from_its_start() {
        let p = FaultPlan::none(2).with_outage(SourceId(1), 3);
        for n in 0..3 {
            assert!(matches!(
                p.decide(SourceId(1), n),
                FaultDecision::Deliver { .. }
            ));
        }
        for n in 3..20 {
            assert_eq!(
                p.decide(SourceId(1), n),
                FaultDecision::Fail(FaultKind::Outage)
            );
        }
        // The other source is untouched.
        assert!(matches!(
            p.decide(SourceId(0), 10),
            FaultDecision::Deliver { .. }
        ));
    }

    #[test]
    fn slowdowns_multiply_cost() {
        let spec = FaultSpec {
            slowdown_rate: 1.0,
            slowdown_factor: 4.0,
            ..FaultSpec::none()
        };
        let p = FaultPlan::uniform(1, 1, spec);
        assert_eq!(
            p.decide(SourceId(0), 0),
            FaultDecision::Deliver { cost_factor: 4.0 }
        );
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn over_unit_rates_rejected() {
        let spec = FaultSpec {
            transient_rate: 0.8,
            timeout_rate: 0.5,
            ..FaultSpec::none()
        };
        let _ = FaultPlan::uniform(1, 0, spec);
    }

    #[test]
    #[should_panic(expected = "slowdown_factor")]
    fn sub_unit_slowdown_rejected() {
        let spec = FaultSpec {
            slowdown_rate: 0.1,
            slowdown_factor: 0.5,
            ..FaultSpec::none()
        };
        let _ = FaultPlan::uniform(1, 0, spec);
    }

    #[test]
    fn kind_display() {
        assert_eq!(FaultKind::Transient.to_string(), "transient");
        assert_eq!(FaultKind::Outage.to_string(), "outage");
    }
}
