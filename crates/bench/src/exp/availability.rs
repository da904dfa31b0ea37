//! E17: fault tolerance — answer quality and cost overhead as source
//! availability degrades.
//!
//! Besides the printed table, the run emits `BENCH_e17.json` (to
//! `$BENCH_DIR`, default `.`). Everything in it is deterministic: the
//! fault plans are seeded, so attempts, costs, and recall are stable
//! across machines and commits.

use crate::json::{write_artifact, Json};
use crate::table::{fmt3, Table};
use fusion_core::postopt::sja_plus;
use fusion_exec::{run, Completeness, ExecutionOutcome, RetryPolicy, RunOptions, Target};
use fusion_net::{FaultPlan, FaultSpec};
use fusion_types::{ItemSet, SourceId};
use fusion_workload::synth::{synth_scenario, SynthSpec};
use fusion_workload::Scenario;

const SEED: u64 = 0xFA17;

fn scenario() -> Scenario {
    synth_scenario(&SynthSpec::default_with(6, 1234), &[0.05, 0.4])
}

/// Executes the scenario's SJA+ plan under the given fault plan with the
/// default retry policy.
fn run_under(scenario: &Scenario, faults: FaultPlan) -> ExecutionOutcome {
    let model = scenario.cost_model();
    let plus = sja_plus(&model);
    let mut network = scenario.network();
    network.set_fault_plan(faults);
    let options = RunOptions {
        retry: Some(&RetryPolicy::default()),
        ..RunOptions::default()
    };
    let (query, sources) = (&scenario.query, &scenario.sources);
    run(
        Target::Plan(&plus.plan),
        query,
        sources,
        &mut network,
        options,
    )
    .expect("fault-tolerant execution degrades instead of failing")
    .outcome
}

/// Fraction of the exact answer a (subset) answer retains.
fn recall(answer: &ItemSet, exact: &ItemSet) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    answer.intersect(exact).len() as f64 / exact.len() as f64
}

/// E17: sweep the per-attempt transient failure rate from 0 to 0.9, plus
/// a permanent single-source outage, and report retry overhead and
/// answer completeness.
///
/// Expectation: moderate fault rates are absorbed by retries — extra
/// failed-attempt cost, same exact answer. Past the circuit breaker's
/// patience sources start getting dropped and the answer degrades to a
/// reported subset whose recall falls gracefully; it is always a sound
/// subset of the fault-free answer (never a false positive). A permanent
/// outage of one source costs only that source's contributions.
pub fn e17_availability() {
    let scenario = scenario();
    let n = scenario.n();
    let exact = run_under(&scenario, FaultPlan::none(n)).answer;
    let mut t = Table::new(
        "E17: availability sweep (n=6, m=2, SJA+, default retry policy)",
        &[
            "fault rate",
            "attempts",
            "failed",
            "failed cost",
            "total cost",
            "|answer|",
            "recall",
            "completeness",
        ],
    );
    let mut rows: Vec<(String, FaultPlan)> = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .map(|rate| {
            let spec = if rate == 0.0 {
                FaultSpec::none()
            } else {
                FaultSpec::transient(rate)
            };
            (
                format!("transient {rate:.1}"),
                FaultPlan::uniform(n, SEED, spec),
            )
        })
        .collect();
    rows.push((
        format!("outage R{n}"),
        FaultPlan::none(n).with_outage(SourceId(n - 1), 0),
    ));
    let mut json_rows = Vec::new();
    for (label, faults) in rows {
        let out = run_under(&scenario, faults);
        let completeness = match &out.completeness {
            Completeness::Exact => "exact".to_string(),
            Completeness::Subset {
                missing_sources, ..
            } => format!("subset (-{} src)", missing_sources.len()),
        };
        let failed = out.ledger.attempts_total() - out.ledger.round_trips();
        json_rows.push(Json::obj([
            ("label", Json::Str(label.clone())),
            ("attempts", Json::Int(out.ledger.attempts_total() as i64)),
            ("failed_attempts", Json::Int(failed as i64)),
            ("failed_cost", Json::Num(out.ledger.failed_total().value())),
            ("total_cost", Json::Num(out.total_cost().value())),
            ("answer_size", Json::Int(out.answer.len() as i64)),
            ("recall", Json::Num(recall(&out.answer, &exact))),
            ("completeness", Json::Str(completeness.clone())),
        ]));
        t.row(vec![
            label,
            out.ledger.attempts_total().to_string(),
            failed.to_string(),
            fmt3(out.ledger.failed_total().value()),
            fmt3(out.total_cost().value()),
            out.answer.len().to_string(),
            format!("{:.2}", recall(&out.answer, &exact)),
            completeness,
        ]);
    }
    t.print();
    let artifact = Json::obj([
        ("experiment", Json::Str("e17-availability".into())),
        ("seed", Json::Int(SEED as i64)),
        ("rows", Json::Arr(json_rows)),
    ]);
    let path = write_artifact("BENCH_e17.json", &artifact).expect("write BENCH_e17.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_degrade_to_sound_subsets() {
        let sc = scenario();
        let n = sc.n();
        let exact = run_under(&sc, FaultPlan::none(n)).answer;
        assert_eq!(exact, sc.ground_truth().unwrap());
        for rate in [0.1, 0.5, 0.9] {
            let out = run_under(&sc, FaultPlan::uniform(n, SEED, FaultSpec::transient(rate)));
            // Soundness: every surviving item is in the exact answer.
            assert_eq!(out.answer.intersect(&exact), out.answer, "rate {rate}");
            if out.completeness.is_exact() {
                assert_eq!(out.answer, exact, "rate {rate}");
            }
        }
    }

    #[test]
    fn retries_cost_extra_but_keep_the_answer() {
        let sc = scenario();
        let n = sc.n();
        let clean = run_under(&sc, FaultPlan::none(n));
        let faulty = run_under(&sc, FaultPlan::uniform(n, SEED, FaultSpec::transient(0.1)));
        assert!(faulty.ledger.attempts_total() >= faulty.ledger.round_trips());
        if faulty.completeness.is_exact() {
            assert_eq!(faulty.answer, clean.answer);
            assert!(faulty.total_cost() >= clean.total_cost());
        }
    }

    #[test]
    fn single_source_outage_reports_the_source() {
        let sc = scenario();
        let n = sc.n();
        let out = run_under(&sc, FaultPlan::none(n).with_outage(SourceId(0), 0));
        let Completeness::Subset {
            missing_sources, ..
        } = &out.completeness
        else {
            panic!("expected a subset answer");
        };
        assert_eq!(missing_sources.as_slice(), &[SourceId(0)]);
    }
}
