//! Per-source link characteristics.

use fusion_types::Cost;

/// Communication characteristics of the path between the mediator and one
/// source.
///
/// The cost of a round trip carrying `req` request bytes and `resp`
/// response bytes is
///
/// ```text
/// overhead + 2·latency + (req + resp) / bandwidth
/// ```
///
/// expressed in abstract cost units (seconds under the default profiles).
/// `overhead` captures connection setup, authentication, and query parsing
/// at the source — the fixed price that makes *many small queries* more
/// expensive than *one large query* and therefore drives the semijoin
/// emulation penalty of §2.3 and the source-loading postoptimization of §4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way propagation delay, in cost units.
    pub latency: f64,
    /// Payload throughput, in bytes per cost unit.
    pub bandwidth: f64,
    /// Fixed per-query overhead, in cost units.
    pub overhead: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    /// Panics if any parameter is non-finite, negative, or the bandwidth is
    /// not strictly positive.
    pub(crate) fn new(latency: f64, bandwidth: f64, overhead: f64) -> Link {
        assert!(
            latency.is_finite() && latency >= 0.0,
            "latency must be finite and non-negative"
        );
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be finite and positive"
        );
        assert!(
            overhead.is_finite() && overhead >= 0.0,
            "overhead must be finite and non-negative"
        );
        Link {
            latency,
            bandwidth,
            overhead,
        }
    }

    /// Cost of one request/response exchange over this link.
    pub fn exchange_cost(&self, req_bytes: usize, resp_bytes: usize) -> Cost {
        let transfer = (req_bytes + resp_bytes) as f64 / self.bandwidth;
        Cost::new(self.overhead + 2.0 * self.latency + transfer)
    }
}

/// Canonical link profiles for experiments, roughly calibrated to
/// late-1990s Internet paths (units: seconds and bytes/second).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkProfile {
    /// Same-campus source: 5 ms latency, 1 MB/s, 10 ms overhead.
    Lan,
    /// Domestic Internet source: 40 ms latency, 128 KB/s, 150 ms overhead.
    Wan,
    /// Intercontinental source: 150 ms latency, 32 KB/s, 400 ms overhead.
    Intercontinental,
    /// Congested or dial-up source: 300 ms latency, 6 KB/s, 1 s overhead.
    Slow,
}

impl LinkProfile {
    /// The [`Link`] parameters of this profile.
    pub fn link(self) -> Link {
        match self {
            LinkProfile::Lan => Link::new(0.005, 1_048_576.0, 0.010),
            LinkProfile::Wan => Link::new(0.040, 131_072.0, 0.150),
            LinkProfile::Intercontinental => Link::new(0.150, 32_768.0, 0.400),
            LinkProfile::Slow => Link::new(0.300, 6_144.0, 1.000),
        }
    }

    /// All profiles, from fastest to slowest.
    pub fn all() -> [LinkProfile; 4] {
        [
            LinkProfile::Lan,
            LinkProfile::Wan,
            LinkProfile::Intercontinental,
            LinkProfile::Slow,
        ]
    }
}

impl Default for Link {
    /// Defaults to the WAN profile.
    fn default() -> Self {
        LinkProfile::Wan.link()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_cost_formula() {
        let l = Link::new(0.1, 1000.0, 0.5);
        let c = l.exchange_cost(100, 400);
        // 0.5 + 2*0.1 + 500/1000 = 1.2
        assert!((c.value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_exchange_still_pays_fixed_costs() {
        let l = Link::new(0.1, 1000.0, 0.5);
        assert!((l.exchange_cost(0, 0).value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cost_is_monotone_in_bytes() {
        let l = LinkProfile::Wan.link();
        let a = l.exchange_cost(10, 10);
        let b = l.exchange_cost(10, 1000);
        let c = l.exchange_cost(5000, 1000);
        assert!(a < b && b < c);
    }

    #[test]
    fn profiles_are_ordered_by_cost() {
        let bytes = (4096, 4096);
        let costs: Vec<f64> = LinkProfile::all()
            .iter()
            .map(|p| p.link().exchange_cost(bytes.0, bytes.1).value())
            .collect();
        for w in costs.windows(2) {
            assert!(w[0] < w[1], "profiles should be fastest→slowest");
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0.0, 0.0, 0.0);
    }
}
