//! E23: runtime adaptive re-optimization under misestimated statistics.
//!
//! The optimizer is handed per-cell cardinality estimates inflated by a
//! sweep factor while the data underneath stays fixed, and three worlds
//! are measured at every distortion level:
//!
//! * **locked-in** — the misestimate-priced SJA plan executed as
//!   committed, violations and all;
//! * **reopt** — the same plan started, but with the adaptive executor
//!   watching round boundaries: observations that escape their believed
//!   intervals re-open the exact search over the suffix, and certified
//!   switches splice in mid-flight;
//! * **oracle** — the plan SJA would have picked with exact statistics,
//!   the floor any adaptation scheme is chasing.
//!
//! A fourth **warm** column re-plans the same query from the run's
//! harvested feedback (the persistent-state half of the design): once
//! the truths are observed, the very next optimization lands on the
//! oracle plan without any mid-flight machinery.
//!
//! Correctness is asserted at every point: answers are byte-compared
//! across all four worlds, every adaptive run replays bit-for-bit from
//! its switch records, and the undistorted (factor-1) run is required
//! to be byte-identical to the reopt-off executor — adaptation must be
//! invisible when the estimates are right.
//!
//! The module also carries the `ItemSet::union_all` microbench: the
//! k-way merge vs the old pairwise fold it replaced, byte-compared for
//! identity and timed on unions of 8+ sets.

use crate::json::{write_artifact, Json};
use crate::table::{fmt3, fmtx, Table};
use fusion_core::cost::{FeedbackCostModel, TableCostModel};
use fusion_core::optimizer::sja_optimal;
use fusion_core::query::FusionQuery;
use fusion_exec::{execute_plan, run, ReoptConfig, ReoptRule, RunOptions, Target};
use fusion_net::{LinkProfile, Network};
use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
use fusion_stats::CardinalityFeedback;
use fusion_types::schema::dmv_schema;
use fusion_types::{tuple, CondId, ItemSet, Predicate, Relation, SourceId};
use std::time::Instant;

/// Distortion factors swept; 1 is the accuracy anchor.
pub const FACTORS: [f64; 4] = [1.0, 8.0, 32.0, 128.0];

/// Entities matching the first condition, per source (the true cell).
const DUI_PER: usize = 2;

/// Entities matching the second condition, per source (the true cell).
/// Large enough that a locked-in selection sweep over "sp" ships real
/// volume — the cost a certified semijoin switch recovers.
const SP_PER: usize = 400;

/// One measured distortion level.
#[derive(Debug, Clone, Copy)]
pub struct ReoptRow {
    /// Estimate inflation factor.
    pub factor: f64,
    /// Executed cost of the misestimate-locked plan.
    pub locked: f64,
    /// Executed cost with adaptive re-optimization on.
    pub reopt: f64,
    /// Executed cost of the exact-statistics plan.
    pub oracle: f64,
    /// Executed cost of a second query planned from the run's feedback.
    pub warm: f64,
    /// Interval violations observed by the adaptive run.
    pub violations: usize,
    /// Certified switches spliced in.
    pub switches: usize,
    /// Fraction of the locked-vs-oracle gap the adaptive run closed
    /// (`None` when the misestimate never changed the plan).
    pub recovered: Option<f64>,
}

/// The `union_all` fold-vs-k-way microbench result.
#[derive(Debug, Clone, Copy)]
pub struct UnionMicro {
    /// Number of sets unioned.
    pub sets: usize,
    /// Items per input set.
    pub items_per_set: usize,
    /// Median pairwise-fold time, nanoseconds.
    pub fold_ns: f64,
    /// Median k-way-merge time, nanoseconds.
    pub kway_ns: f64,
    /// Both strategies produced byte-identical sets.
    pub identical: bool,
}

/// The E23 query: two equality conditions over the DMV schema.
fn query() -> FusionQuery {
    FusionQuery::new(
        dmv_schema(),
        vec![
            Predicate::eq("V", "dui").into(),
            Predicate::eq("V", "sp").into(),
        ],
    )
    .expect("e23 query is well-formed")
}

/// Three skewed sources: per source, `DUI_PER` entities match "dui"
/// while `SP_PER` match "sp" — a locked-in selection sweep over the
/// second condition is genuinely expensive, so mispricing it is a cost
/// the adaptive executor can actually recover.
fn sources() -> SourceSet {
    let s = dmv_schema();
    SourceSet::new(
        (0..3usize)
            .map(|j| {
                let mut rows = vec![tuple![format!("D{j}0"), "sp", 1995i64]];
                for k in 0..DUI_PER {
                    rows.push(tuple![format!("D{j}{k}"), "dui", 1993i64]);
                }
                for k in 0..SP_PER - 1 {
                    rows.push(tuple![format!("S{j}x{k:02}"), "sp", 1996i64]);
                }
                Box::new(InMemoryWrapper::new(
                    format!("R{}", j + 1),
                    Relation::from_rows(s.clone(), rows),
                    Capabilities::full(),
                    ProcessingProfile::indexed_db(),
                    j as u64,
                )) as Box<dyn Wrapper>
            })
            .collect(),
    )
}

/// The cost model at distortion `factor`: every per-cell cardinality
/// estimate is the truth multiplied by `factor`; factor 1 is exact.
fn model_with_factor(factor: f64) -> TableCostModel {
    let mut m = TableCostModel::uniform(2, 3, 50.0, 1.0, 0.5, 1e9, 0.0, 4000.0);
    for j in 0..3 {
        m.set_est_sq_items(CondId(0), SourceId(j), DUI_PER as f64 * factor);
        m.set_est_sq_items(CondId(1), SourceId(j), SP_PER as f64 * factor);
    }
    m
}

fn wan() -> Network {
    Network::uniform(3, LinkProfile::Wan.link())
}

/// Measures one distortion level, asserting answer parity across all
/// four worlds, bit-for-bit replay of the adaptive run, and (at factor
/// 1) byte-identity with the reopt-off executor.
pub fn run_point(factor: f64) -> ReoptRow {
    let q = query();
    let srcs = sources();
    let distorted = model_with_factor(factor);
    let truth = model_with_factor(1.0);

    let opt = sja_optimal(&distorted);
    let mut net = wan();
    let locked = execute_plan(&opt.plan, &q, &srcs, &mut net).expect("locked run");

    let oracle_opt = sja_optimal(&truth);
    let mut net = wan();
    let oracle = execute_plan(&oracle_opt.plan, &q, &srcs, &mut net).expect("oracle run");
    assert_eq!(oracle.answer, locked.answer, "plans disagree on the answer");

    let mut feedback = CardinalityFeedback::new(2, 3);
    let mut net_on = wan();
    let rule = ReoptRule::Live {
        model: &distorted,
        feedback: &mut feedback,
        config: &ReoptConfig::default(),
    };
    let spec_run = |rule, net: &mut Network, what: &str| {
        let ran = run(
            Target::Spec(&opt.spec, rule),
            &q,
            &srcs,
            net,
            RunOptions::default(),
        );
        let ran = ran.expect(what);
        (ran.outcome, ran.reopt.expect(what))
    };
    let (out, report) = spec_run(rule, &mut net_on, "adaptive run");
    assert_eq!(
        out.answer, locked.answer,
        "adaptation changed the answer at factor {factor}"
    );

    // Every adaptive run must reproduce bit-for-bit from its switch
    // records, with each switch independently re-certified.
    let mut net_r = wan();
    let replay = ReoptRule::Replay(&report.switches);
    let (replayed, _) = spec_run(replay, &mut net_r, "switch replay");
    assert_eq!(replayed.ledger, out.ledger, "replay diverged");
    assert_eq!(replayed.answer, out.answer);
    assert_eq!(net_r.trace(), net_on.trace(), "replay trace diverged");

    if (factor - 1.0).abs() < f64::EPSILON {
        // Accuracy anchor: with exact estimates adaptation is invisible.
        assert!(report.switches.is_empty(), "switch under exact statistics");
        assert_eq!(report.violations, 0, "violation under exact statistics");
        assert_eq!(
            out.ledger, locked.ledger,
            "factor-1 run is not byte-identical to reopt-off"
        );
    }

    // The persistent half: re-plan the same query from the harvested
    // feedback — the store now holds the truths the run observed.
    let fb = FeedbackCostModel::new(&distorted, &feedback);
    let warm_opt = sja_optimal(&fb);
    let mut net_w = wan();
    let warm = execute_plan(&warm_opt.plan, &q, &srcs, &mut net_w).expect("warm run");
    assert_eq!(
        warm.answer, locked.answer,
        "feedback re-plan changed the answer"
    );

    let locked_cost = locked.total_cost().value();
    let reopt_cost = out.total_cost().value();
    let oracle_cost = oracle.total_cost().value();
    let gap = locked_cost - oracle_cost;
    ReoptRow {
        factor,
        locked: locked_cost,
        reopt: reopt_cost,
        oracle: oracle_cost,
        warm: warm.total_cost().value(),
        violations: report.violations,
        switches: report.switches.len(),
        recovered: (gap > 1e-9).then(|| (locked_cost - reopt_cost) / gap),
    }
}

/// The full sweep.
pub fn sweep() -> Vec<ReoptRow> {
    FACTORS.iter().map(|&f| run_point(f)).collect()
}

/// Builds `k` sorted sets of `items` entities each, ~90% disjoint with
/// ~10% overlap between neighbors — the shape of per-source result
/// sets from autonomous sources holding mostly-distinct entities.
fn union_inputs(k: usize, items: usize) -> Vec<ItemSet> {
    (0..k)
        .map(|j| {
            let base = j * items * 9 / 10;
            ItemSet::from_items((0..items).map(|i| format!("e{:07}", base + i)))
        })
        .collect()
}

fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

/// Times the old pairwise union fold against the k-way merge on the
/// same inputs and byte-compares the results.
pub fn union_micro(k: usize, items: usize) -> UnionMicro {
    let sets = union_inputs(k, items);
    let fold = |sets: &[ItemSet]| {
        sets.iter()
            .skip(1)
            .fold(sets[0].clone(), |acc, s| acc.union(s))
    };
    let folded = fold(&sets);
    let merged = ItemSet::union_all(&sets);
    UnionMicro {
        sets: k,
        items_per_set: items,
        fold_ns: median_ns(21, || fold(&sets)),
        kway_ns: median_ns(21, || ItemSet::union_all(&sets)),
        identical: folded == merged,
    }
}

fn row_json(r: &ReoptRow) -> Json {
    Json::obj([
        ("factor", Json::Num(r.factor)),
        ("locked_cost", Json::Num(r.locked)),
        ("reopt_cost", Json::Num(r.reopt)),
        ("oracle_cost", Json::Num(r.oracle)),
        ("warm_cost", Json::Num(r.warm)),
        ("violations", Json::Int(r.violations as i64)),
        ("switches", Json::Int(r.switches as i64)),
        (
            "recovered",
            r.recovered.map_or(Json::Str("n/a".into()), Json::Num),
        ),
    ])
}

fn micro_json(m: &UnionMicro) -> Json {
    Json::obj([
        ("sets", Json::Int(m.sets as i64)),
        ("items_per_set", Json::Int(m.items_per_set as i64)),
        ("fold_ns", Json::Num(m.fold_ns)),
        ("kway_ns", Json::Num(m.kway_ns)),
        (
            "speedup",
            Json::Num(m.fold_ns / m.kway_ns.max(f64::MIN_POSITIVE)),
        ),
        ("identical", Json::Bool(m.identical)),
    ])
}

fn artifact(rows: &[ReoptRow], micros: &[UnionMicro]) -> Json {
    Json::obj([
        ("experiment", Json::Str("e23-reopt".into())),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
        (
            "union_all_micro",
            Json::Arr(micros.iter().map(micro_json).collect()),
        ),
    ])
}

/// E23: misestimated-statistics sweep — locked-in vs adaptive reopt vs
/// oracle — plus the `union_all` microbench. Emits `BENCH_e23.json`.
pub fn e23_reopt() {
    let rows = sweep();
    let mut t = Table::new(
        "E23: adaptive re-optimization under misestimated statistics".to_string(),
        &[
            "factor",
            "locked",
            "reopt",
            "oracle",
            "warm",
            "viol",
            "switch",
            "recovered",
        ],
    );
    for r in &rows {
        t.row(vec![
            format!("x{:.0}", r.factor),
            fmt3(r.locked),
            fmt3(r.reopt),
            fmt3(r.oracle),
            fmt3(r.warm),
            r.violations.to_string(),
            r.switches.to_string(),
            r.recovered.map_or("n/a (plan unchanged)".to_string(), |g| {
                format!("{:.0}%", g * 100.0)
            }),
        ]);
    }
    t.print();
    println!(
        "every adaptive run replayed bit-for-bit from its switch records; \
         answers byte-compared across locked/reopt/oracle/warm; \
         factor-1 byte-identical to the reopt-off executor"
    );

    let micros: Vec<UnionMicro> = [(8, 256), (16, 1024), (64, 1024)]
        .into_iter()
        .map(|(k, n)| union_micro(k, n))
        .collect();
    let mut t = Table::new(
        "union_all: pairwise fold vs k-way merge".to_string(),
        &["sets", "items/set", "fold", "k-way", "speedup", "identical"],
    );
    for m in &micros {
        t.row(vec![
            m.sets.to_string(),
            m.items_per_set.to_string(),
            format!("{:.1}us", m.fold_ns / 1e3),
            format!("{:.1}us", m.kway_ns / 1e3),
            fmtx(m.fold_ns / m.kway_ns.max(f64::MIN_POSITIVE)),
            m.identical.to_string(),
        ]);
    }
    t.print();

    let path =
        write_artifact("BENCH_e23.json", &artifact(&rows, &micros)).expect("write BENCH_e23");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: at no fewer than two sweep points the
    /// misestimate actually changes the committed plan (gap > 0), and
    /// at each such point the adaptive run closes at least half the
    /// locked-vs-oracle cost gap. `run_point` itself asserts the
    /// correctness half — answer parity everywhere, bit-for-bit replay,
    /// and factor-1 byte-identity with the reopt-off executor.
    #[test]
    fn reopt_recovers_at_least_half_the_gap_at_two_sweep_points() {
        let rows = sweep();
        let hurt: Vec<&ReoptRow> = rows.iter().filter(|r| r.recovered.is_some()).collect();
        assert!(
            hurt.len() >= 2,
            "fewer than two sweep points misprice the plan: {rows:?}"
        );
        for r in &hurt {
            let rec = r.recovered.expect("filtered on Some");
            assert!(
                rec >= 0.5,
                "factor {} recovered only {:.0}% of the gap: {r:?}",
                r.factor,
                rec * 100.0
            );
            assert!(
                r.switches > 0,
                "gap closed without a certified switch? {r:?}"
            );
        }
        for r in &rows {
            assert!(
                r.reopt <= r.locked + 1e-9,
                "adaptation made factor {} worse: {r:?}",
                r.factor
            );
            assert!(
                r.warm <= r.locked + 1e-9,
                "feedback re-plan worse than locked at factor {}: {r:?}",
                r.factor
            );
        }
    }

    /// The anchor row alone (fast): exact estimates → no violations,
    /// no switches, byte-identical ledger (asserted inside
    /// `run_point`), and all four worlds cost the same.
    #[test]
    fn exact_statistics_leave_nothing_to_recover() {
        let r = run_point(1.0);
        assert_eq!(r.switches, 0);
        assert_eq!(r.violations, 0);
        assert!((r.locked - r.oracle).abs() < 1e-9);
        assert!((r.locked - r.reopt).abs() < 1e-9);
    }

    /// Both union strategies must agree byte-for-byte on overlapping
    /// inputs — the microbench is only meaningful if the k-way merge is
    /// a pure performance change.
    #[test]
    fn union_strategies_are_byte_identical() {
        for (k, n) in [(2, 64), (8, 256), (33, 100)] {
            let m = union_micro(k, n);
            assert!(m.identical, "{k} sets x {n} items diverged");
        }
    }
}
