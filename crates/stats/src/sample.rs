//! Deterministic sampling utilities.

/// SplitMix64: a tiny, high-quality, deterministic PRNG.
///
/// Statistics construction must be reproducible and must not pull the
/// workspace's workload-generation RNG into scope, so this crate carries
/// its own generator (Steele et al., "Fast splittable pseudorandom number
/// generators", OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the bounds used here and determinism is what matters.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform integer in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn next_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_below(hi - lo)
    }

    /// Uniform `i64` in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn next_i64_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_below((hi - lo) as usize) as i64
    }

    /// Uniform float in the half-open range `[lo, hi)`.
    pub fn next_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniformly chooses one element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_below(items.len())]
    }
}

/// Reservoir-samples up to `k` elements from `iter`, deterministically
/// under `seed` (Algorithm R).
pub(crate) fn reservoir_sample<T: Clone, I: IntoIterator<Item = T>>(
    iter: I,
    k: usize,
    seed: u64,
) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return reservoir;
    }
    for (i, x) in iter.into_iter().enumerate() {
        if i < k {
            reservoir.push(x);
        } else {
            let j = rng.next_below(i + 1);
            if j < k {
                reservoir[j] = x;
            }
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<u64> = (0..5).map(|_| SplitMix64::new(42).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        let mut r1 = SplitMix64::new(7);
        let mut r2 = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn reservoir_full_population_when_small() {
        let mut s = reservoir_sample(0..5, 10, 9);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reservoir_size_and_determinism() {
        let a = reservoir_sample(0..10_000, 100, 11);
        let b = reservoir_sample(0..10_000, 100, 11);
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        let c = reservoir_sample(0..10_000, 100, 12);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Mean of a uniform sample from 0..10_000 should be near 5_000.
        let s = reservoir_sample(0..10_000u64, 500, 5);
        let mean: f64 = s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64;
        assert!((mean - 5_000.0).abs() < 600.0, "mean {mean} too far off");
    }

    #[test]
    fn zero_k_is_empty() {
        assert!(reservoir_sample(0..100, 0, 1).is_empty());
    }
}
