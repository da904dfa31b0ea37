//! A minimal, dependency-free micro-benchmark harness.
//!
//! The deployment environment builds without access to crates.io, so the
//! benches cannot use an external harness. This module provides the small
//! slice of the familiar group/bencher API the bench targets need:
//! warmup, fixed sample counts, and median/mean reporting over
//! wall-clock time.

use crate::json::Json;
use std::time::{Duration, Instant};

/// Root benchmark context; create one per bench binary.
#[derive(Default)]
pub struct Criterion {
    records: Vec<BenchRecord>,
}

/// The timings of one finished benchmark.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// `group/name` (or the bare name of a stand-alone benchmark).
    pub name: String,
    /// Median time per iteration.
    pub median: Duration,
    /// Mean time per iteration.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
}

impl Criterion {
    /// Creates a fresh context.
    pub fn new() -> Criterion {
        Criterion::default()
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            prefix: format!("{name}/"),
            sample_size: 20,
            records: &mut self.records,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        self.records.extend(run_one("", name, 20, &mut f));
    }

    /// Every benchmark finished so far, in run order.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// The records as a `BENCH_*.json` artifact body (all fields are
    /// wall-clock timings; nothing here repeats bit for bit).
    pub fn to_json(&self, experiment: &str) -> Json {
        let ns = |d: Duration| Json::Num(d.as_secs_f64() * 1e9);
        Json::obj([
            ("experiment", Json::Str(experiment.into())),
            (
                "timing",
                Json::Arr(
                    self.records
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("median_ns", ns(r.median)),
                                ("mean_ns", ns(r.mean)),
                                ("min_ns", ns(r.min)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A group of benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    /// `group/`, prepended to the names of the group's records.
    prefix: String,
    sample_size: usize,
    records: &'a mut Vec<BenchRecord>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark records.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs one parameterized benchmark of the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        BenchmarkId(id): BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        self.records
            .extend(run_one(&self.prefix, &id, self.sample_size, &mut |b| {
                f(b, input);
            }));
    }

    /// Runs one named benchmark of the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        self.records
            .extend(run_one(&self.prefix, name, self.sample_size, &mut f));
    }

    /// Ends the group (kept for API familiarity; no-op).
    pub fn finish(self) {}
}

/// A benchmark label, optionally `name/parameter`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter` label.
    pub fn new(name: &str, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// Parameter-only label.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `f`, recording one duration per sample.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        // Warmup + calibration: find an iteration count that runs long
        // enough for the clock to resolve it.
        let mut iters = 1usize;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_millis(1) || iters >= 1 << 20 {
                break;
            }
            iters *= 4;
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            self.samples.push(t.elapsed() / iters as u32);
        }
    }
}

/// Runs one benchmark, prints its line under `name` and returns its record
/// under `prefix` + `name` (`None` if the closure never called
/// [`Bencher::iter`]).
fn run_one(
    prefix: &str,
    name: &str,
    sample_size: usize,
    f: &mut dyn FnMut(&mut Bencher),
) -> Option<BenchRecord> {
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("  {name:<40} (no samples)");
        return None;
    }
    b.samples.sort_unstable();
    let median = b.samples[b.samples.len() / 2];
    let mean: Duration = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    let min = b.samples[0];
    println!("  {name:<40} median {median:>12?}  mean {mean:>12?}  min {min:>12?}");
    Some(BenchRecord {
        name: format!("{prefix}{name}"),
        median,
        mean,
        min,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("t");
        group.sample_size(3);
        let mut ran = 0usize;
        group.bench_with_input(BenchmarkId::new("x", 1), &1usize, |b, _| {
            b.iter(|| {
                ran += 1;
                ran
            });
        });
        group.finish();
        assert!(ran > 0);
        let [record] = c.records() else {
            panic!("one benchmark ran, so one record is kept");
        };
        assert_eq!(record.name, "t/x/1");
        assert!(record.min <= record.median);
        let rendered = c.to_json("b0-demo").render();
        assert!(rendered.contains("\"name\": \"t/x/1\""), "{rendered}");
    }
}
