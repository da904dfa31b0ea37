//! Cardinality arithmetic for semijoin-set estimation.
//!
//! The SJ and SJA algorithms need the expected size of
//! `X_i = X_{i-1} ∩ ⋃_j σ_{c_i}(R_j)` to price the next round's semijoin
//! queries. These helpers implement the standard urn-model estimates under
//! the independence assumption the paper adopts for optimization (§1,
//! step 3).

/// Expected size of the union of result sets drawn independently from a
/// shared item domain of size `domain`.
///
/// Each contribution of size `e_j` covers a uniform random subset of the
/// domain, so an item survives *outside* the union with probability
/// `Π_j (1 − e_j/domain)`.
pub fn union_estimate(contributions: &[f64], domain: f64) -> f64 {
    if domain <= 0.0 {
        return 0.0;
    }
    let mut miss = 1.0f64;
    for &e in contributions {
        let p = (e / domain).clamp(0.0, 1.0);
        miss *= 1.0 - p;
    }
    domain * (1.0 - miss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_nothing_is_zero() {
        assert_eq!(union_estimate(&[], 100.0), 0.0);
        assert_eq!(union_estimate(&[0.0, 0.0], 100.0), 0.0);
    }

    #[test]
    fn union_single_contribution_is_itself() {
        let u = union_estimate(&[30.0], 100.0);
        assert!((u - 30.0).abs() < 1e-9);
    }

    #[test]
    fn union_accounts_for_overlap() {
        // Two 50-item subsets of a 100-item domain: expect 75, not 100.
        let u = union_estimate(&[50.0, 50.0], 100.0);
        assert!((u - 75.0).abs() < 1e-9);
    }

    #[test]
    fn union_saturates_at_domain() {
        let u = union_estimate(&[90.0, 90.0, 90.0], 100.0);
        assert!(u <= 100.0);
        assert!(u > 99.0);
        let u = union_estimate(&[150.0], 100.0);
        assert!((u - 100.0).abs() < 1e-9, "over-full contribution clamps");
    }

    #[test]
    fn union_monotone_in_contributions() {
        let a = union_estimate(&[10.0, 10.0], 100.0);
        let b = union_estimate(&[10.0, 20.0], 100.0);
        assert!(b > a);
    }

    #[test]
    fn degenerate_domain() {
        assert_eq!(union_estimate(&[5.0], 0.0), 0.0);
    }
}
