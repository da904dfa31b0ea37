//! Response time under a parallel execution model (§6 future work).
//!
//! The paper minimizes *total work*; its conclusion names response-time
//! optimization in a parallel execution model as future work. This module
//! supplies the measurement side: given an executed plan and its ledger,
//! it replays the steps under list scheduling where
//!
//! * a step becomes ready the moment every variable it reads is available;
//! * each source serves one query at a time (autonomous sources do not
//!   parallelize a single mediator's requests internally);
//! * distinct sources serve queries concurrently;
//! * local mediator operations are free and instantaneous (§2.4).
//!
//! The response time is the completion time of the step defining the
//! result variable — the critical path through data dependencies and
//! per-source queues.

use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use fusion_core::dataflow::stage_decomposition;
use fusion_core::plan::{Plan, Step};
use fusion_types::error::{FusionError, Result};

/// One remote step's placement in the parallel schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledStep {
    /// Index of the step in the plan.
    pub step: usize,
    /// The source serving it.
    pub source: fusion_types::SourceId,
    /// Start time.
    pub start: f64,
    /// Finish time.
    pub finish: f64,
}

/// Replays an executed plan under list scheduling and returns every
/// remote step's `(start, finish)` placement plus the overall response
/// time.
///
/// The ledger must come from executing this very plan: it is checked
/// entry by entry — length, step indices, step/entry kind agreement, and
/// source agreement — and any mismatch is an error, not a panic.
///
/// # Errors
/// Fails if the ledger does not match the plan step for step.
pub fn schedule(plan: &Plan, ledger: &CostLedger) -> Result<(Vec<ScheduledStep>, f64)> {
    let entries = validate_ledger(plan, ledger)?;
    let mut var_avail: Vec<f64> = vec![0.0; plan.var_names.len()];
    let mut rel_avail: Vec<f64> = vec![0.0; plan.rel_names.len()];
    let mut source_free: Vec<f64> = vec![0.0; plan.n_sources];
    let mut result_time = 0.0f64;
    let mut placements = Vec::new();
    for (idx, (step, entry)) in plan.steps.iter().zip(entries).enumerate() {
        let mut ready = 0.0f64;
        for v in step.used_vars() {
            ready = ready.max(var_avail[v.0]);
        }
        if let Step::LocalSq { rel, .. } = step {
            ready = ready.max(rel_avail[rel.0]);
        }
        let duration = entry.total().value();
        let finish = match step.source() {
            Some(src) => {
                let start = ready.max(source_free[src.0]);
                let finish = start + duration;
                source_free[src.0] = finish;
                placements.push(ScheduledStep {
                    step: idx,
                    source: src,
                    start,
                    finish,
                });
                finish
            }
            None => ready, // local ops are free
        };
        if let Some(out) = step.defined_var() {
            var_avail[out.0] = finish;
            if out == plan.result {
                result_time = finish;
            }
        }
        if let Step::Lq { out, .. } = step {
            rel_avail[out.0] = finish;
        }
    }
    Ok((placements, result_time))
}

/// Checks that `ledger` replays `plan`: one entry per step, in order,
/// with agreeing kinds and sources. Free `reopt` marker entries (recorded
/// by the adaptive executor at certified switch points) carry no step
/// work and are filtered out; the surviving entries are returned for the
/// schedulers to zip against the plan.
fn validate_ledger<'a>(plan: &Plan, ledger: &'a CostLedger) -> Result<Vec<&'a LedgerEntry>> {
    let entries: Vec<&LedgerEntry> = ledger
        .entries()
        .iter()
        .filter(|e| e.kind != StepKind::Reopt)
        .collect();
    if entries.len() != plan.steps.len() {
        return Err(FusionError::execution(format!(
            "ledger does not match plan: {} entries for {} steps",
            entries.len(),
            plan.steps.len()
        )));
    }
    for (idx, (step, entry)) in plan.steps.iter().zip(&entries).enumerate() {
        if entry.step != idx {
            return Err(FusionError::execution(format!(
                "ledger does not match plan: entry {idx} records step {}",
                entry.step
            )));
        }
        let (expected, kind_ok) = match step {
            Step::Sq { .. } => (
                "sq",
                matches!(
                    entry.kind,
                    StepKind::Selection | StepKind::CacheHit | StepKind::CacheResidual
                ),
            ),
            Step::Sjq { .. } => (
                "sjq",
                entry.kind == StepKind::Semijoin || entry.kind == StepKind::EmulatedSemijoin,
            ),
            Step::SjqBloom { .. } => ("sjq(bloom)", entry.kind == StepKind::BloomSemijoin),
            Step::Lq { .. } => ("lq", entry.kind == StepKind::Load),
            Step::LocalSq { .. }
            | Step::Union { .. }
            | Step::Intersect { .. }
            | Step::Diff { .. } => ("local", entry.kind == StepKind::Local),
        };
        if !kind_ok {
            return Err(FusionError::execution(format!(
                "ledger does not match plan: step {idx} is a `{expected}` \
                 step but the entry records `{}`",
                entry.kind
            )));
        }
        if entry.source != step.source() {
            return Err(FusionError::execution(format!(
                "ledger does not match plan: step {idx} touches {:?} but the \
                 entry records {:?}",
                step.source(),
                entry.source
            )));
        }
    }
    Ok(entries)
}

/// One wavefront of the certified stage schedule: the steps that ran
/// concurrently, and when the wavefront started and finished.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTraceEntry {
    /// Stage index (0-based).
    pub stage: usize,
    /// Plan step indices executed in this stage, ascending.
    pub steps: Vec<usize>,
    /// Stage start time (the previous stage's finish).
    pub start: f64,
    /// Stage finish time: `start` plus the longest step in the stage.
    pub finish: f64,
}

impl std::fmt::Display for StageTraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let steps: Vec<String> = self.steps.iter().map(|t| (t + 1).to_string()).collect();
        write!(
            f,
            "stage {}: steps [{}] @ {:.2}..{:.2}",
            self.stage,
            steps.join(", "),
            self.start,
            self.finish
        )
    }
}

/// Replays an executed plan under its *certified* stage schedule
/// ([`stage_decomposition`]) and returns the stage trace plus the
/// barrier-synchronous makespan.
///
/// Unlike [`schedule`], which greedily list-schedules individual steps,
/// this execution model runs stage wavefronts with a barrier between
/// them: stage `s` starts when stage `s − 1` finishes, and lasts as long
/// as its slowest step. Within a stage, concurrency is safe by the
/// machine-checked certificate — no two steps of a stage touch the same
/// source or exchange data. These are the stages
/// [`crate::Schedule::Stages`] runs. The trace is deterministic and
/// replayable: re-deriving it from the same plan and ledger reproduces
/// it bit for bit ([`verify_stage_trace`]).
///
/// # Errors
/// Fails if the ledger does not match the plan, or if the certificate
/// check fails.
pub fn stage_schedule(plan: &Plan, ledger: &CostLedger) -> Result<(Vec<StageTraceEntry>, f64)> {
    barrier_trace(plan, ledger, &stage_decomposition(plan)?.stages)
}

/// The barrier-synchronous trace and makespan of `ledger` over
/// `stages`, a certified stage schedule of `plan`.
pub(crate) fn barrier_trace(
    plan: &Plan,
    ledger: &CostLedger,
    stages: &[Vec<usize>],
) -> Result<(Vec<StageTraceEntry>, f64)> {
    let entries = validate_ledger(plan, ledger)?;
    let mut trace = Vec::with_capacity(stages.len());
    let mut clock = 0.0f64;
    for (s, steps) in stages.iter().enumerate() {
        let duration = steps
            .iter()
            .map(|&t| entries[t].total().value())
            .fold(0.0, f64::max);
        trace.push(StageTraceEntry {
            stage: s,
            steps: steps.clone(),
            start: clock,
            finish: clock + duration,
        });
        clock += duration;
    }
    Ok((trace, clock))
}

/// Re-derives the stage trace from the same plan and ledger and checks
/// it is identical to `trace` — the replayability guarantee consumers
/// (e.g. the CLI's stage view) rely on.
///
/// # Errors
/// Fails if the ledger mismatches the plan or the trace is not the one
/// this plan and ledger produce.
pub fn verify_stage_trace(
    plan: &Plan,
    ledger: &CostLedger,
    trace: &[StageTraceEntry],
) -> Result<()> {
    let (expected, _) = stage_schedule(plan, ledger)?;
    if expected != trace {
        return Err(FusionError::execution(
            "stage trace does not replay: recorded and re-derived traces differ".to_string(),
        ));
    }
    Ok(())
}

/// Computes the parallel response time of an executed plan, in the same
/// units as the ledger's costs.
///
/// Steps are considered in plan order (list scheduling), which is optimal
/// for the fork-join round structure optimizer plans have and a good
/// heuristic for arbitrary shapes.
///
/// # Errors
/// Fails if the ledger does not match the plan step for step.
pub fn response_time(plan: &Plan, ledger: &CostLedger) -> Result<f64> {
    Ok(schedule(plan, ledger)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute_plan;
    use fusion_core::plan::{SimplePlanSpec, SourceChoice};
    use fusion_core::query::FusionQuery;
    use fusion_net::{LinkProfile, Network};
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, CondId, Predicate, Relation};

    fn setup(n: usize) -> (FusionQuery, SourceSet, Network) {
        let s = dmv_schema();
        let sources = SourceSet::new(
            (0..n)
                .map(|j| {
                    let rel = Relation::from_rows(
                        s.clone(),
                        vec![
                            tuple![format!("A{j}"), "dui", 1990i64],
                            tuple![format!("A{j}"), "sp", 1991i64],
                        ],
                    );
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", j + 1),
                        rel,
                        Capabilities::full(),
                        ProcessingProfile::free(),
                        j as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        );
        let q = FusionQuery::new(
            s,
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap();
        let net = Network::uniform(n, LinkProfile::Wan.link());
        (q, sources, net)
    }

    #[test]
    fn parallel_round_is_faster_than_total_work() {
        let (q, sources, mut net) = setup(4);
        let plan = SimplePlanSpec::filter(2, 4).build(4).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        let rt = response_time(&plan, &out.ledger).unwrap();
        let total = out.total_cost().value();
        // 4 sources work in parallel: response time must be well below
        // total work but at least the two sequential rounds at one source.
        assert!(rt < total * 0.6, "rt {rt} vs total {total}");
        assert!(rt > total / 4.0 - 1e-9);
    }

    #[test]
    fn single_source_response_equals_total_work() {
        let (q, sources, mut net) = setup(1);
        let plan = SimplePlanSpec::filter(2, 1).build(1).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        let rt = response_time(&plan, &out.ledger).unwrap();
        assert!((rt - out.total_cost().value()).abs() < 1e-9);
    }

    #[test]
    fn semijoin_rounds_serialize_on_dependencies() {
        let (q, sources, mut net) = setup(2);
        let spec = SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection; 2],
                vec![SourceChoice::Semijoin; 2],
            ],
        };
        let plan = spec.build(2).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        let rt = response_time(&plan, &out.ledger).unwrap();
        // Round 2 cannot start before the slowest round-1 query finishes:
        // response time ≥ max round-1 entry + max round-2 entry.
        let entries = out.ledger.entries();
        let r1 = entries[0].total().value().max(entries[1].total().value());
        let r2 = entries[3].total().value().max(entries[4].total().value());
        assert!(rt >= r1 + r2 - 1e-9, "rt {rt} < {r1} + {r2}");
    }

    #[test]
    fn stage_schedule_bounds_and_replays() {
        let (q, sources, mut net) = setup(4);
        let plan = SimplePlanSpec::filter(2, 4).build(4).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        let (trace, makespan) = stage_schedule(&plan, &out.ledger).unwrap();
        // Each source appears at most once per stage, so the barrier
        // makespan is at most total work and at least any single source's
        // serial share of it.
        let total = out.total_cost().value();
        assert!(makespan <= total + 1e-9, "makespan {makespan} > {total}");
        let mut per_source = [0.0f64; 4];
        for e in out.ledger.entries() {
            if let Some(src) = e.source {
                per_source[src.0] += e.total().value();
            }
        }
        let busiest = per_source.iter().copied().fold(0.0, f64::max);
        assert!(
            makespan >= busiest - 1e-9,
            "makespan {makespan} < {busiest}"
        );
        // Stages are contiguous in time and cover every step once.
        let mut all: Vec<usize> = trace.iter().flat_map(|e| e.steps.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..plan.steps.len()).collect::<Vec<_>>());
        for w in trace.windows(2) {
            assert!((w[0].finish - w[1].start).abs() < 1e-12);
        }
        // The trace replays bit for bit.
        verify_stage_trace(&plan, &out.ledger, &trace).unwrap();
        let (again, m2) = stage_schedule(&plan, &out.ledger).unwrap();
        assert_eq!(trace, again);
        assert!((makespan - m2).abs() < 1e-12);
    }

    #[test]
    fn stage_schedule_parallelizes_filter_rounds() {
        // 4 sources, filter plan: the selections of one condition land in
        // one stage each, so the barrier makespan beats total work by
        // roughly the source count.
        let (q, sources, mut net) = setup(4);
        let plan = SimplePlanSpec::filter(2, 4).build(4).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        let (_, makespan) = stage_schedule(&plan, &out.ledger).unwrap();
        let total = out.total_cost().value();
        assert!(makespan < total * 0.6, "makespan {makespan} vs {total}");
    }

    #[test]
    fn tampered_stage_trace_is_rejected() {
        let (q, sources, mut net) = setup(2);
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        let (mut trace, _) = stage_schedule(&plan, &out.ledger).unwrap();
        trace[0].finish += 1.0;
        let err = verify_stage_trace(&plan, &out.ledger, &trace).unwrap_err();
        assert!(err.to_string().contains("does not replay"), "{err}");
        // A mismatched ledger fails before the trace is even compared.
        let other = SimplePlanSpec::filter(1, 2).build(2).unwrap();
        assert!(stage_schedule(&other, &out.ledger).is_err());
    }

    #[test]
    fn stage_trace_entries_render_for_replay_logs() {
        let (q, sources, mut net) = setup(2);
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        let (trace, _) = stage_schedule(&plan, &out.ledger).unwrap();
        let line = trace[0].to_string();
        assert!(line.starts_with("stage 0: steps ["), "{line}");
        assert!(line.contains(".."), "{line}");
    }

    #[test]
    fn mismatched_ledger_is_an_error() {
        let (q, sources, mut net) = setup(2);
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        // Wrong length: a smaller plan's step count.
        let other = SimplePlanSpec::filter(1, 2).build(2).unwrap();
        let err = response_time(&other, &out.ledger).unwrap_err();
        assert!(err.to_string().contains("ledger does not match"), "{err}");
    }

    #[test]
    fn entry_level_mismatches_are_errors() {
        use crate::ledger::{LedgerEntry, StepKind};
        let (q, sources, mut net) = setup(2);
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();

        // Same length, wrong step index.
        let mut shifted = CostLedger::new();
        for e in out.ledger.entries() {
            let mut e = e.clone();
            e.step = e.step.wrapping_add(1);
            shifted.push(e);
        }
        let err = response_time(&plan, &shifted).unwrap_err();
        assert!(err.to_string().contains("records step"), "{err}");

        // Right indices, wrong kind on a remote step.
        let mut rekinded = CostLedger::new();
        for e in out.ledger.entries() {
            let mut e = e.clone();
            if e.kind == StepKind::Selection {
                e.kind = StepKind::Load;
            }
            rekinded.push(e);
        }
        let err = response_time(&plan, &rekinded).unwrap_err();
        assert!(err.to_string().contains("`sq`"), "{err}");

        // Right kinds, wrong source.
        let mut resourced = CostLedger::new();
        for e in out.ledger.entries() {
            let mut e: LedgerEntry = e.clone();
            if let Some(src) = e.source {
                e.source = Some(fusion_types::SourceId((src.0 + 1) % 2));
            }
            resourced.push(e);
        }
        let err = response_time(&plan, &resourced).unwrap_err();
        assert!(err.to_string().contains("touches"), "{err}");
    }
}
