//! The metric catalogue and the document one run produces.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use fusion::core::analyze::Verdict;
use fusion::core::{analyze_plan, Plan};
use fusion::types::error::{FusionError, Result};
use fusion::types::ItemSet;

use crate::json::Json;
use crate::stats;
use crate::trace::{Recorder, SourceCounters};
use crate::workload::Premise;

/// One metric of the scoreboard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the mediator sees. Failures are not a metric here: a
/// metric must never be zero, so they travel as `attempted` / `failed`
/// beside the metrics and any failure fails the run.
///
/// The bounds are about three times the widest spread (interquartile
/// distance over median) seen over ten seeds on the shared 2-vCPU box the
/// baseline was taken on (README, "Steadiness"): tighter ones would reject
/// the box's neighbours, not a change. `qps` is widest because two busy
/// workers need both vCPUs quiet at once; `peak_rss_mb` is loose because
/// the servers' 16 MiB move by a whole allocator arena now and then.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("qps", "1/s", "higher", 0.25),
    e2e("qps_w1", "1/s", "higher", 0.20),
    e2e("lat_p50_us", "us", "lower", 0.20),
    e2e("lat_p90_us", "us", "lower", 0.25),
    e2e("sim_cost_per_query", "cost", "lower", 0.08),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
];

/// Single layers, measured in the traced phase. `*_us` are µs per query,
/// `*_share` the same as a share of the traced per-query time. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: [MetricDef; 61] = [
    layer("sql.parse_us", "us", "lower"),
    layer("sql.parse_share", "ratio", "lower"),
    layer("net.fresh_us", "us", "lower"),
    layer("net.fresh_share", "ratio", "lower"),
    layer("core.cost.model_us", "us", "lower"),
    layer("core.cost.model_share", "ratio", "lower"),
    layer("core.optimizer.sja_us", "us", "lower"),
    layer("core.optimizer.sja_share", "ratio", "lower"),
    layer("core.optimizer.plan_steps", "count", "lower"),
    layer("core.analyze.proof_us", "us", "lower"),
    layer("core.analyze.proof_share", "ratio", "lower"),
    layer("core.analyze.repeat_ratio", "ratio", "higher"),
    layer("exec.run_us", "us", "lower"),
    layer("exec.self_us", "us", "lower"),
    layer("exec.self_share", "ratio", "lower"),
    layer("exec.round_trips", "count", "lower"),
    layer("exec.lat_p99_us", "us", "lower"),
    layer("source.busy_us", "us", "lower"),
    layer("source.busy_share", "ratio", "lower"),
    layer("source.calls", "count", "lower"),
    layer("source.tuples_examined", "count", "lower"),
    layer("source.rows_returned", "count", "lower"),
    layer("cache.lock_us", "us", "lower"),
    layer("cache.lock_share", "ratio", "lower"),
    layer("cache.snapshot_us", "us", "lower"),
    layer("cache.snapshot_share", "ratio", "lower"),
    layer("cache.resolve_us", "us", "lower"),
    layer("cache.resolve_share", "ratio", "lower"),
    layer("cache.project_us", "us", "lower"),
    layer("cache.project_share", "ratio", "lower"),
    layer("cache.insert_us", "us", "lower"),
    layer("cache.insert_share", "ratio", "lower"),
    layer("cache.bump_us", "us", "lower"),
    layer("cache.bump_share", "ratio", "lower"),
    layer("cache.hit_rate", "ratio", "higher"),
    layer("cache.residual_frac", "ratio", "higher"),
    layer("cache.insertions", "count", "lower"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.rejections", "count", "lower"),
    layer("cache.invalidations", "count", "lower"),
    layer("exec.server.service_us", "us", "lower"),
    layer("exec.server.unattributed_us", "us", "lower"),
    layer("exec.server.unattributed_share", "ratio", "lower"),
    layer("exec.server.tail_us", "us", "lower"),
    layer("exec.server.tail_frac", "ratio", "lower"),
    layer("exec.server.scale_w2", "ratio", "higher"),
    layer("exec.server.cost_ratio_w2", "ratio", "lower"),
    layer("exec.server.shared_frac", "ratio", "higher"),
    layer("exec.server.log_ops_per_query", "count", "lower"),
    layer("exec.server.lat_p99_us", "us", "lower"),
    layer("exec.server.open_qps", "1/s", "higher"),
    layer("exec.replay.replay_us", "us", "lower"),
    layer("exec.replay.parity_us", "us", "lower"),
    layer("trace.attributed_frac", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("run.latency_samples", "count", "higher"),
    layer("run.batches_w1", "count", "higher"),
    layer("run.batches_w2", "count", "higher"),
    layer("run.batches_open", "count", "higher"),
    layer("run.noise_frac", "ratio", "lower"),
];

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one answer into a running fingerprint: every item as printed,
/// then a terminator so `{a},{b}` and `{a,b}` differ.
pub fn fold_answer(mut h: u64, answer: &ItemSet) -> u64 {
    for item in answer.iter() {
        h = fnv1a(h, item.to_string().as_bytes());
        h = fnv1a(h, b",");
    }
    fnv1a(h, b";")
}

/// A plan's fingerprint: the soundness proof depends on nothing else, so
/// queries per distinct shape is how often a proof memo would hit.
pub fn plan_shape(plan: &Plan) -> u64 {
    let text = format!("{}x{} {:?}", plan.n_conditions, plan.n_sources, plan.steps);
    fnv1a(FNV_SEED, text.as_bytes())
}

/// The soundness proof `execute_plan` runs before it executes: the first
/// of its two public halves.
pub fn prove_sound(plan: &Plan) -> Result<()> {
    match analyze_plan(plan)?.verdict() {
        Verdict::Proved => Ok(()),
        Verdict::Refuted(cx) => Err(FusionError::invalid_plan(format!(
            "optimizer produced an unsound plan:\n{cx}"
        ))),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Everything one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Conditions that must hold for the run to count as correct, beside
    /// `failed == 0` (replay parity, exact repeats).
    pub requirements: Vec<(&'static str, bool)>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(String, f64)>,
    /// Fields that repeat bit for bit on the same seed and build.
    pub deterministic: Vec<(&'static str, Json)>,
    /// Per-batch values behind the best-of estimates, for `agree` to print.
    pub distributions: Vec<(&'static str, Vec<f64>)>,
    /// Observations recorded, never asserted (README, Findings).
    pub findings: Vec<(&'static str, Json)>,
    /// Whether the workload still does what it was chosen for.
    pub premise_ok: Vec<(&'static str, bool, f64)>,
    /// The traced phase's spans, written out when the process ends.
    pub recorder: Option<Arc<Recorder>>,
}

impl Outcome {
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn require(&mut self, what: &'static str, holds: bool) {
        self.requirements.push((what, holds));
    }

    /// No query failed, every requirement holds and every end-to-end
    /// metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.requirements.iter().all(|(_, ok)| *ok)
            && END_TO_END
                .iter()
                .all(|d| self.end_to_end.iter().any(|(n, _)| *n == d.name))
    }

    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        self.end_to_end.push((name, value));
    }

    pub fn per_layer(&mut self, name: &str, value: f64) {
        self.per_layer.push((name.to_string(), value));
    }

    /// A layer's time: `<layer>_us` per query and `<layer>_share` of the
    /// traced per-query time.
    pub fn layer_time(&mut self, layer: &str, us: f64, share: f64) {
        self.per_layer(&format!("{layer}_us"), us);
        self.per_layer(&format!("{layer}_share"), share);
    }

    pub fn deterministic(&mut self, name: &'static str, value: Json) {
        self.deterministic.push((name, value));
    }

    pub fn distribution(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.distributions
            .push((name, values.into_iter().collect()));
    }

    pub fn finding(&mut self, name: &'static str, value: Json) {
        self.findings.push((name, value));
    }

    /// The work counted at the source boundary, per query.
    pub fn source_counts(&mut self, counters: &SourceCounters, queries: f64) {
        for (name, counter) in [
            ("source.calls", &counters.calls),
            ("source.tuples_examined", &counters.tuples_examined),
            ("source.rows_returned", &counters.rows_returned),
        ] {
            self.per_layer(name, counter.load(Ordering::Relaxed) as f64 / queries);
        }
    }

    /// Holds what the workload was chosen for against what it did.
    pub fn premise(&mut self, premise: Premise, observed: f64) {
        self.premise_ok
            .push((premise.what(), premise.holds(observed), observed));
    }

    /// The `metrics` object of the driver's result line: every metric of
    /// `defs`, in catalogue order. A metric the run did not produce reads 0:
    /// per layer that is a layer off the workload's path, end to end it is a
    /// run that broke off, which [`Outcome::correct`] reports.
    fn metrics_json<N: AsRef<str>>(defs: &[MetricDef], values: &[(N, f64)]) -> Json {
        Json::obj(defs.iter().map(|d| {
            let value = values
                .iter()
                .find(|(n, _)| n.as_ref() == d.name)
                .map_or(0.0, |(_, v)| *v);
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        }))
    }

    /// The result line the driver reads.
    pub fn result_line(&self, traced: bool) -> Json {
        let metrics = if traced {
            Self::metrics_json(&PER_LAYER, &self.per_layer)
        } else {
            Self::metrics_json(&END_TO_END, &self.end_to_end)
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ])
    }

    /// The full document of one run.
    pub fn document(&self, workload: &str, seed: u64, seconds: f64, traced: bool) -> Json {
        fn pairs<N: AsRef<str>>(values: &[(N, f64)]) -> Json {
            Json::obj(values.iter().map(|(n, v)| (n.as_ref(), Json::Num(*v))))
        }
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed as i64)),
            ("seconds", Json::Num(seconds)),
            ("traced", Json::Bool(traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "failed_frac",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "requirements",
                Json::obj(
                    self.requirements
                        .iter()
                        .map(|(n, ok)| (*n, Json::Bool(*ok))),
                ),
            ),
            ("end_to_end", pairs(&self.end_to_end)),
            ("per_layer", pairs(&self.per_layer)),
            (
                "deterministic",
                Json::obj(self.deterministic.iter().cloned()),
            ),
            (
                "premise_ok",
                Json::obj(self.premise_ok.iter().map(|(n, ok, observed)| {
                    (
                        *n,
                        Json::obj([("ok", Json::Bool(*ok)), ("observed", Json::Num(*observed))]),
                    )
                })),
            ),
            ("findings", Json::obj(self.findings.iter().cloned())),
            (
                "distributions",
                Json::obj(self.distributions.iter().map(|(n, values)| {
                    let (q1, q2, q3) = stats::quartiles(values);
                    (
                        *n,
                        Json::obj([
                            ("batches", Json::Int(values.len() as i64)),
                            ("q1", Json::Num(q1)),
                            ("median", Json::Num(q2)),
                            ("q3", Json::Num(q3)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(d.bound.is_none_or(|b| (0.0..=0.25).contains(&b)));
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).unwrap();
        let listed = |key: &str| -> Vec<MetricDef> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| match m.get(k) {
                        Some(Json::Str(s)) => s.clone(),
                        other => panic!("`{k}` of {m:?} is {other:?}"),
                    };
                    let def = |d: &&MetricDef| d.name == text("name");
                    let known = *END_TO_END
                        .iter()
                        .chain(&PER_LAYER)
                        .find(def)
                        .unwrap_or_else(|| panic!("unknown metric {}", text("name")));
                    assert_eq!(known.unit, text("unit"));
                    assert_eq!(known.better, text("better"));
                    assert_eq!(known.bound, m.get("bound").and_then(Json::as_f64));
                    known
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<Json> = crate::workload::WORKLOADS
            .iter()
            .map(|w| Json::str(w.name))
            .collect();
        let listed_names: Vec<Json> = workloads
            .iter()
            .map(|w| w.get("name").cloned().unwrap_or(Json::Null))
            .collect();
        assert_eq!(listed_names, names);
    }

    #[test]
    fn answer_fingerprint_separates_answers() {
        let a = ItemSet::from_items(["a"]);
        let b = ItemSet::from_items(["b"]);
        let ab = ItemSet::from_items(["a", "b"]);
        let two = fold_answer(fold_answer(FNV_SEED, &a), &b);
        let one = fold_answer(FNV_SEED, &ab);
        assert_ne!(two, one);
        assert_eq!(two, fold_answer(fold_answer(FNV_SEED, &a), &b));
    }
}
