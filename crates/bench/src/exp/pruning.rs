//! E18: optimizer-time interval pruning — the ordering search against
//! the reference enumeration.
//!
//! Figures 3–4 literally price all `m!` condition orderings (every prefix
//! of every ordering); that enumeration is kept as the *reference*
//! ([`reference_enumeration`]). The optimizers themselves
//! (`sj_optimal` / `sja_optimal`, here through the stats-returning
//! [`ordering_search`]) cut an ordering prefix as soon as its cost plus
//! the dataflow module's admissible remaining-cost lower bound already
//! exceeds the incumbent — returning **byte-identical plans** (shared
//! tie-breaking) while expanding strictly fewer prefixes. This experiment
//! measures both effects on the m = 6..8 sweeps where the factorial
//! starts to bite.
//!
//! Besides the printed tables, the run emits `BENCH_e18.json` (to
//! `$BENCH_DIR`, default `.`). The artifact separates the
//! **deterministic** half (prefix counts, plans-identical — stable
//! across machines) from the **machine-dependent timings** (wall-clock
//! times and the derived speedup), so cross-commit diffs can ignore the
//! noisy half. Its keys predate the merge: `exact_*` is the reference,
//! `*_bnb` the search.

use crate::json::{write_artifact, Json};
use crate::table::{fmt3, Table};
use fusion_core::optimizer::{ordering_search, reference_enumeration, BnbStats, RoundRule};
use fusion_core::plan::SimplePlanSpec;
use fusion_core::{CostModel, OptimizedPlan};
use fusion_types::CondId;
use std::time::Instant;

use super::optimality::random_model;

/// The whole-query plan of the reference enumeration (Figures 3–4
/// literally), built the way the optimizers build theirs.
pub fn reference_plan<M: CostModel>(model: &M, rule: RoundRule) -> OptimizedPlan {
    let all: Vec<usize> = (0..model.n_conditions()).collect();
    let best = reference_enumeration(model, rule, &all, None);
    let spec = SimplePlanSpec {
        order: best.order.into_iter().map(CondId).collect(),
        choices: best.choices,
    };
    OptimizedPlan::from_spec(spec, best.cost, best.sizes, model.n_sources())
}

/// Aggregated measurements for one (algorithm, m) cell.
struct Cell {
    exact_time: std::time::Duration,
    bnb_time: std::time::Duration,
    explored: usize,
    full: usize,
    identical: bool,
}

fn measure(m: usize, n: usize, seeds: u64, rule: RoundRule) -> Cell {
    let mut exact_time = std::time::Duration::ZERO;
    let mut bnb_time = std::time::Duration::ZERO;
    let mut explored = 0usize;
    let mut identical = true;
    for seed in 0..seeds {
        let model = random_model(m, n, 1800 + seed);
        let start = Instant::now();
        let exact = reference_plan(&model, rule);
        exact_time += start.elapsed();
        let start = Instant::now();
        let (bnb, stats) = ordering_search(&model, rule);
        bnb_time += start.elapsed();
        explored += stats.prefixes_explored;
        identical &= bnb.plan.listing() == exact.plan.listing();
    }
    Cell {
        exact_time,
        bnb_time,
        explored,
        full: BnbStats::exhaustive_prefixes(m) * seeds as usize,
        identical,
    }
}

/// E18: reference enumeration vs the ordering search, SJ and SJA,
/// m = 6..8 at n = 8.
pub fn e18_pruning() {
    const SEEDS: u64 = 10;
    let mut json_rows = Vec::new();
    for (name, rule) in [("SJ", RoundRule::Uniform), ("SJA", RoundRule::PerSource)] {
        let mut t = Table::new(
            format!(
                "E18: {name} search vs reference enumeration (n=8, {SEEDS} random models per m)"
            ),
            &[
                "m",
                "prefixes (reference)",
                "prefixes (search)",
                "expanded",
                "reference time",
                "search time",
                "speedup",
                "plans identical",
            ],
        );
        for m in 6..=8 {
            let c = measure(m, 8, SEEDS, rule);
            json_rows.push(Json::obj([
                ("algorithm", Json::Str(name.into())),
                ("m", Json::Int(m as i64)),
                (
                    "deterministic",
                    Json::obj([
                        ("prefixes_exhaustive", Json::Int(c.full as i64)),
                        ("prefixes_bnb", Json::Int(c.explored as i64)),
                        (
                            "expanded_fraction",
                            Json::Num(c.explored as f64 / c.full as f64),
                        ),
                        ("plans_identical", Json::Bool(c.identical)),
                    ]),
                ),
                (
                    "timing",
                    Json::obj([
                        ("exact_s", Json::Num(c.exact_time.as_secs_f64())),
                        ("bnb_s", Json::Num(c.bnb_time.as_secs_f64())),
                        (
                            "speedup",
                            Json::Num(
                                c.exact_time.as_secs_f64() / c.bnb_time.as_secs_f64().max(1e-12),
                            ),
                        ),
                    ]),
                ),
            ]));
            t.row(vec![
                m.to_string(),
                c.full.to_string(),
                c.explored.to_string(),
                format!("{:.1}%", 100.0 * c.explored as f64 / c.full as f64),
                format!("{:.2?}", c.exact_time),
                format!("{:.2?}", c.bnb_time),
                fmt3(c.exact_time.as_secs_f64() / c.bnb_time.as_secs_f64().max(1e-12)),
                c.identical.to_string(),
            ]);
        }
        t.print();
        println!();
    }
    let artifact = Json::obj([
        ("experiment", Json::Str("e18-pruning".into())),
        ("seeds_per_cell", Json::Int(SEEDS as i64)),
        ("n", Json::Int(8)),
        ("rows", Json::Arr(json_rows)),
    ]);
    let path = write_artifact("BENCH_e18.json", &artifact).expect("write BENCH_e18.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bnb_expands_fewer_prefixes_and_matches_exact() {
        for rule in [RoundRule::Uniform, RoundRule::PerSource] {
            let c = measure(6, 8, 3, rule);
            assert!(c.identical, "{rule:?}: plans diverged");
            assert!(
                c.explored < c.full,
                "{rule:?}: {} !< {}",
                c.explored,
                c.full
            );
        }
    }
}
