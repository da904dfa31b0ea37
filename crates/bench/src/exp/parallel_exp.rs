//! E19: measured wall-clock speedup of true parallel execution.
//!
//! The parallel executor runs the certified stage schedule on real
//! threads; with a *pace* (wall-clock seconds per simulated cost unit)
//! each worker physically sleeps its step's simulated cost, making the
//! cost model's parallelism claims measurable. This experiment sweeps
//! scenarios and thread counts and reports, per run:
//!
//! * the sequential **total work** (sum of all step costs),
//! * the **predicted makespan** (barrier-synchronous stage schedule of
//!   the executed ledger) and the speedup it promises,
//! * the **measured wall clock** and the speedup actually obtained over
//!   the single-threaded paced run,
//! * the relative **model error** |measured − predicted·pace| /
//!   (predicted·pace) at full thread width.
//!
//! Ledger identity across thread counts is asserted on every run — the
//! experiment doubles as a parity check at bench scale.
//!
//! Besides the printed table, the run emits `BENCH_e19.json` (to
//! `$BENCH_DIR`, default `.`) so the perf trajectory can be diffed
//! across commits.

use crate::json::{write_artifact, Json};
use crate::table::{fmt3, Table};
use fusion_core::filter_plan;
use fusion_core::postopt::sja_plus;
use fusion_exec::{execute_plan, run, CostLedger, RunOptions, Schedule, StageReport, Target};
use fusion_workload::synth::{synth_scenario, SynthSpec};
use fusion_workload::{dmv, Scenario};

/// Wall-clock budget for one paced sequential run. Small enough to keep
/// `all` fast, large enough to dominate thread-spawn noise.
const TARGET_SECS: f64 = 0.25;

struct Sweep {
    label: String,
    scenario: Scenario,
}

fn sweeps() -> Vec<Sweep> {
    let mut v = vec![Sweep {
        label: "dmv n=3".into(),
        scenario: dmv::figure1_scenario(),
    }];
    for n in [4usize, 8] {
        v.push(Sweep {
            label: format!("synth n={n} m=3"),
            scenario: synth_scenario(&SynthSpec::default_with(n, 17), &[0.05, 0.4, 0.6]),
        });
    }
    v
}

fn paced_run(
    s: &Sweep,
    plan: &fusion_core::plan::Plan,
    pace: f64,
    threads: usize,
) -> (CostLedger, StageReport) {
    let mut network = s.scenario.network();
    let options = RunOptions {
        schedule: Schedule::Stages {
            threads,
            pace: Some(pace),
        },
        ..RunOptions::default()
    };
    let (q, sources) = (&s.scenario.query, &s.scenario.sources);
    let out = run(Target::Plan(plan), q, sources, &mut network, options)
        .expect("experiment plans execute");
    (
        out.outcome.ledger,
        out.stages.expect("a staged run reports"),
    )
}

/// One measured (scenario, plan shape, thread count) cell of the E19
/// sweep.
pub struct ParallelRow {
    /// Scenario label.
    pub scenario: String,
    /// Plan shape (`FILTER` or `SJA+`).
    pub plan: String,
    /// Worker threads used.
    pub threads: usize,
    /// Sequential total work (sum of all step costs).
    pub total_work: f64,
    /// Predicted makespan of the certified stage schedule (cost units).
    pub pred_makespan: f64,
    /// Wall-clock seconds of sleep per simulated cost unit.
    pub pace: f64,
    /// Measured wall clock of this run, seconds.
    pub wall_secs: f64,
    /// Measured wall clock of the single-threaded paced run, seconds.
    pub solo_wall_secs: f64,
}

impl ParallelRow {
    /// Speedup the stage schedule promises: total work / makespan.
    #[must_use]
    pub fn pred_speedup(&self) -> f64 {
        self.total_work / self.pred_makespan
    }

    /// Speedup actually measured over the single-threaded paced run.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.solo_wall_secs / self.wall_secs
    }

    /// Relative |measured − predicted·pace| / (predicted·pace).
    #[must_use]
    pub fn model_err(&self) -> f64 {
        let pred_wall = self.pred_makespan * self.pace;
        (self.wall_secs - pred_wall).abs() / pred_wall
    }
}

/// Runs the full E19 sweep and returns one row per cell. Ledger parity
/// against the sequential executor is asserted on every run.
pub fn sweep_rows() -> Vec<ParallelRow> {
    let mut rows = Vec::new();
    for s in sweeps() {
        let model = s.scenario.cost_model();
        for (shape, plan) in [
            ("FILTER", filter_plan(&model).plan),
            ("SJA+", sja_plus(&model).plan),
        ] {
            let mut seq_net = s.scenario.network();
            let seq = execute_plan(&plan, &s.scenario.query, &s.scenario.sources, &mut seq_net)
                .expect("experiment plans execute");
            let work = seq.total_cost().value();
            let pace = TARGET_SECS / work;
            let (solo_ledger, solo) = paced_run(&s, &plan, pace, 1);
            assert_eq!(solo_ledger, seq.ledger, "paced parity broke");
            let predicted = solo.makespan;
            for threads in [1usize, 2, 8] {
                let wall = if threads == 1 {
                    solo.wall
                } else {
                    let (ledger, run) = paced_run(&s, &plan, pace, threads);
                    assert_eq!(ledger, seq.ledger, "paced parity broke");
                    run.wall
                };
                rows.push(ParallelRow {
                    scenario: s.label.clone(),
                    plan: shape.to_string(),
                    threads,
                    total_work: work,
                    pred_makespan: predicted,
                    pace,
                    wall_secs: wall.as_secs_f64(),
                    solo_wall_secs: solo.wall.as_secs_f64(),
                });
            }
        }
    }
    rows
}

fn artifact(rows: &[ParallelRow]) -> Json {
    Json::obj([
        ("experiment", Json::Str("e19-parallel".into())),
        ("pace_target_secs", Json::Num(TARGET_SECS)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("scenario", Json::Str(r.scenario.clone())),
                            ("plan", Json::Str(r.plan.clone())),
                            ("threads", Json::Int(r.threads as i64)),
                            ("total_work", Json::Num(r.total_work)),
                            ("pred_makespan", Json::Num(r.pred_makespan)),
                            ("pred_speedup", Json::Num(r.pred_speedup())),
                            ("wall_secs", Json::Num(r.wall_secs)),
                            ("speedup", Json::Num(r.speedup())),
                            ("model_err", Json::Num(r.model_err())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// E19: predicted vs measured parallel speedup across scenarios, plan
/// shapes, and thread counts. Also emits `BENCH_e19.json`.
pub fn e19_parallel() {
    let rows = sweep_rows();
    let mut t = Table::new(
        "E19: parallel execution — predicted vs measured makespan (paced wall clock)".to_string(),
        &[
            "scenario",
            "plan",
            "threads",
            "total work",
            "pred makespan",
            "pred speedup",
            "wall",
            "speedup",
            "model err",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.scenario.clone(),
            r.plan.clone(),
            r.threads.to_string(),
            fmt3(r.total_work),
            fmt3(r.pred_makespan),
            fmt3(r.pred_speedup()),
            format!("{:.0} ms", r.wall_secs * 1e3),
            fmt3(r.speedup()),
            format!("{:.0}%", r.model_err() * 100.0),
        ]);
    }
    t.print();
    println!();
    println!(
        "pace = {TARGET_SECS} s of sleep per sequential run; `pred speedup` is total \
         work / stage-schedule makespan; `model err` compares measured wall \
         against predicted makespan × pace (meaningful at full thread width)."
    );
    let path = write_artifact("BENCH_e19.json", &artifact(&rows)).expect("write BENCH_e19.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bench-scale smoke: on the widest synthetic scenario, 8 paced
    /// threads must finish measurably faster than 1, with identical
    /// ledgers, and land within a loose band of the predicted makespan.
    #[test]
    fn paced_speedup_is_real_and_predicted() {
        let s = Sweep {
            label: "synth n=8".into(),
            scenario: synth_scenario(&SynthSpec::default_with(8, 17), &[0.05, 0.4, 0.6]),
        };
        let model = s.scenario.cost_model();
        let plan = filter_plan(&model).plan;
        let mut seq_net = s.scenario.network();
        let seq =
            execute_plan(&plan, &s.scenario.query, &s.scenario.sources, &mut seq_net).unwrap();
        let pace = 0.2 / seq.total_cost().value();
        let (solo_ledger, solo) = paced_run(&s, &plan, pace, 1);
        let (wide_ledger, wide) = paced_run(&s, &plan, pace, 8);
        assert_eq!(solo_ledger, wide_ledger);
        assert_eq!(wide_ledger, seq.ledger);
        assert!(
            wide.wall < solo.wall,
            "8 threads {:?} !< 1 thread {:?}",
            wide.wall,
            solo.wall
        );
        // Predicted physical makespan, with generous CI headroom: the
        // wide run must sit between it and twice it plus scheduling slack.
        let pred_wall = wide.makespan * pace;
        let measured = wide.wall.as_secs_f64();
        assert!(
            measured >= pred_wall * 0.9,
            "measured {measured} below prediction {pred_wall}"
        );
        assert!(
            measured <= pred_wall * 2.0 + 0.1,
            "measured {measured} far above prediction {pred_wall}"
        );
    }
}
