//! Cost values of the paper's general cost model (§2.4).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// A non-negative, possibly infinite cost.
///
/// The paper's cost model only requires that each source query has a
/// non-negative cost and that plan cost is the sum of its source-query
/// costs. `Cost::INFINITE` marks operations a source cannot support at all
/// (§2.3: "we can assign an infinite cost to the semijoin query, indicating
/// that it is an unsupported query").
///
/// Costs compare totally; `INFINITE` is greater than every finite cost.
/// Negative or NaN inputs are rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost(f64);

impl Cost {
    /// The zero cost (local mediator operations are free, §2.4).
    pub const ZERO: Cost = Cost(0.0);

    /// The cost of an unsupported operation.
    pub const INFINITE: Cost = Cost(f64::INFINITY);

    /// Creates a cost from a non-negative, non-NaN number.
    ///
    /// # Panics
    /// Panics if `v` is negative or NaN; the cost model forbids both.
    pub fn new(v: f64) -> Cost {
        assert!(!v.is_nan(), "cost must not be NaN");
        assert!(v >= 0.0, "cost must be non-negative, got {v}");
        Cost(v)
    }

    /// The underlying number (`f64::INFINITY` for [`Cost::INFINITE`]).
    pub fn value(self) -> f64 {
        self.0
    }

    /// True if this cost is finite (the operation is supported).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// True if this cost marks an unsupported operation.
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// The smaller of two costs.
    pub fn min(self, other: Cost) -> Cost {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two costs.
    pub fn max(self, other: Cost) -> Cost {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Ratio `self / other`, for reporting speedups. Returns `None` when
    /// the ratio is not meaningful (zero or infinite denominator).
    pub fn ratio(self, other: Cost) -> Option<f64> {
        if other.0 == 0.0 || other.is_infinite() {
            None
        } else {
            Some(self.0 / other.0)
        }
    }
}

impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: construction forbids NaN.
        self.0.partial_cmp(&other.0).expect("costs are never NaN")
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, rhs: f64) -> Cost {
        Cost::new(self.0 * rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "∞")
        } else {
            write!(f, "{:.3}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_infinity() {
        assert!(Cost::ZERO < Cost::new(1.0));
        assert!(Cost::new(1e12) < Cost::INFINITE);
        assert_eq!(Cost::INFINITE.max(Cost::new(3.0)), Cost::INFINITE);
        assert_eq!(Cost::INFINITE.min(Cost::new(3.0)), Cost::new(3.0));
    }

    #[test]
    fn arithmetic() {
        let c = Cost::new(2.0) + Cost::new(3.5);
        assert_eq!(c, Cost::new(5.5));
        let mut acc = Cost::ZERO;
        acc += Cost::new(1.0);
        acc += Cost::new(2.0);
        assert_eq!(acc, Cost::new(3.0));
        assert_eq!(Cost::new(2.0) * 3.0, Cost::new(6.0));
        let total: Cost = [Cost::new(1.0), Cost::new(2.0)].into_iter().sum();
        assert_eq!(total, Cost::new(3.0));
    }

    #[test]
    fn infinity_propagates_through_addition() {
        assert!((Cost::INFINITE + Cost::new(1.0)).is_infinite());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_rejected() {
        let _ = Cost::new(-1.0);
    }

    #[test]
    fn ratio_handles_degenerate_denominators() {
        assert_eq!(Cost::new(6.0).ratio(Cost::new(3.0)), Some(2.0));
        assert_eq!(Cost::new(6.0).ratio(Cost::ZERO), None);
        assert_eq!(Cost::new(6.0).ratio(Cost::INFINITE), None);
    }

    #[test]
    fn display() {
        assert_eq!(Cost::new(1.5).to_string(), "1.500");
        assert_eq!(Cost::INFINITE.to_string(), "∞");
    }
}
