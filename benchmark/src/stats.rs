//! Order statistics the scoreboard reports: a quantile picker, medians,
//! Python's `statistics.quantiles(n=4)` quartiles (the rule the driver
//! uses to judge run-to-run spread, so `agree` prints the same), and the
//! best-of-repeats estimators the timed metrics are built on.
//!
//! Why best-of and not a median: the box is a shared 2-vCPU VM whose
//! neighbours slow *everything* by 5–25 % for tens of seconds at a time.
//! That noise only ever adds time, so the fastest of many repeats of the
//! same deterministic work estimates the work itself; medians over passes
//! moved 12–19 % between identical runs here, best-of 2–4 % (README,
//! "Steadiness").

/// Sorts measurements in place; none of them is ever NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// The value at quantile `q` of an ascending slice, by nearest rank over
/// `0..=len-1` (the rule `ServerReport::latency_quantile` uses). Zero
/// when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// The median (mean of the two middle values for an even count). Zero
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method). A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One timed batch (a pass over the stream, or one `serve` call).
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub queries: usize,
    pub wall_s: f64,
}

impl Batch {
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s.max(1e-12)
    }
}

/// The median over batches of each batch's own queries-per-second.
pub fn batch_median_qps(batches: &[Batch]) -> f64 {
    median(&batches.iter().map(Batch::qps).collect::<Vec<f64>>())
}

/// The fastest batch's queries-per-second. Zero when empty.
pub fn batch_best_qps(batches: &[Batch]) -> f64 {
    batches.iter().map(Batch::qps).fold(0.0, f64::max)
}

/// Position by position, the smallest value any repeat measured:
/// `repeats[r][i]` is repeat `r`'s time for position `i` of the same fixed
/// stream. As long as the shortest repeat.
pub fn floor_per_position(repeats: &[&[f64]]) -> Vec<f64> {
    let len = repeats.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| repeats.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 6.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&v, 1.0), 11.0);
        assert_eq!(quantile(&v, 7.0), 11.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Ties round half away from zero, like the library's picker.
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn batch_median_ignores_one_slow_batch() {
        let b = |queries, wall_s| Batch { queries, wall_s };
        // 1000, 500 and 1000 queries per second: the slow batch is an
        // outlier, not a third of the total.
        let batches = [b(1000, 1.0), b(1000, 2.0), b(500, 0.5)];
        assert_eq!(batch_median_qps(&batches), 1000.0);
        assert_eq!(batch_median_qps(&[b(10, 2.0), b(30, 2.0)]), 10.0);
        assert_eq!(batch_median_qps(&[]), 0.0);
        assert_eq!(batch_best_qps(&batches), 1000.0);
        assert_eq!(batch_best_qps(&[b(10, 2.0), b(30, 2.0)]), 15.0);
        assert_eq!(batch_best_qps(&[]), 0.0);
    }

    #[test]
    fn floor_takes_the_fastest_repeat_of_each_position() {
        let repeats: [&[f64]; 3] = [&[5.0, 9.0, 4.0], &[6.0, 2.0, 4.5], &[7.0, 3.0]];
        assert_eq!(floor_per_position(&repeats), vec![5.0, 2.0]);
        assert_eq!(floor_per_position(&[]), Vec::<f64>::new());
    }
}
