//! True multi-threaded execution of certified stage schedules.
//!
//! [`execute_plan_parallel`] turns the simulated parallel execution
//! model of [`crate::schedule()`] into real concurrency: the plan's
//! certified stage schedule
//! ([`fusion_core::dataflow::stage_decomposition`]) — dependency levels
//! with one *serial queue per source*, because autonomous Internet
//! sources answer one mediator request at a time (§6) — is run stage by
//! stage, each stage's remote steps on [`std::thread::scope`] workers.
//!
//! # Determinism contract
//!
//! Parallel execution is **byte-identical** to sequential execution:
//!
//! * The ledger has one entry per plan step in step order, each entry
//!   equal to the one [`crate::execute_plan_with`] would have produced
//!   under the same retry policy and cache, so [`crate::schedule::schedule`] replays and
//!   [`crate::schedule::stage_schedule`] verification work unchanged.
//! * Workers exchange through shared [`fusion_net::SourceHandle`]s that
//!   buffer per-source trace segments; one [`fusion_net::Network::commit`]
//!   at the end merges them sorted by step index, reproducing the
//!   sequential exchange trace exactly.
//! * Fault injection stays deterministic under concurrency: the fault
//!   schedule is positional per source, and the per-source serial queues
//!   guarantee each source's steps consume schedule slots in plan order —
//!   the same-seed replay property survives any thread interleaving.
//!
//! Why this is sound: the stage certificate proves that within a stage no
//! two steps exchange data or share a source, and that every data
//! dependency lands in a strictly earlier stage. Workers therefore read
//! earlier-stage variables immutably, write disjoint outputs, and never
//! contend on a source's fault schedule. The serial queues add the
//! per-source total order on top, which is what makes the *accounting*
//! (not just the answers) order-independent.
//!
//! One deliberate divergence: the retry deadline
//! ([`RetryPolicy::deadline`]) is checked against the cost committed at
//! the last stage *barrier*, not the running per-step total — mid-stage
//! there is no meaningful global "cost so far" when steps overlap. With no
//! deadline set (the default), fault-tolerant parallel execution is
//! byte-identical to sequential; with one, it may retry slightly more.

use crate::interp::ExecutionOutcome;
use crate::retry::RetryPolicy;
use crate::schedule::barrier_trace;
use crate::step::{committing, PlanRun};
use fusion_cache::{AnswerCache, Served};
use fusion_core::plan::Plan;
use fusion_core::query::FusionQuery;
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};
use fusion_types::Cost;
use std::time::{Duration, Instant};

/// Tuning knobs for parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// Worker threads per stage (at least 1; capped per stage by the
    /// number of remote steps in it).
    pub threads: usize,
    /// Wall-clock seconds each worker sleeps per simulated cost unit of
    /// its step. `None` runs at full speed. Pacing makes the simulated
    /// cost model physically real, so measured makespans can be compared
    /// against the predicted [`crate::schedule::stage_schedule`] makespan
    /// (bench E19).
    pub pace: Option<f64>,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            pace: None,
        }
    }
}

impl ParallelConfig {
    /// A config with an explicit thread count.
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            ..ParallelConfig::default()
        }
    }

    /// Sets the pace (wall-clock seconds per cost unit).
    pub fn paced(mut self, pace: f64) -> ParallelConfig {
        self.pace = Some(pace);
        self
    }
}

/// Rejects a `pace` (wall-clock seconds per cost unit) no worker can
/// sleep by; [`crate::ServerConfig::pace`] is held to the same rule.
pub(crate) fn check_pace(pace: Option<f64>) -> Result<()> {
    match pace {
        Some(p) if !(p.is_finite() && p >= 0.0) => Err(FusionError::execution(format!(
            "config: pace must be finite and non-negative, got {p}"
        ))),
        _ => Ok(()),
    }
}

/// The result of a parallel execution: the sequential-identical outcome
/// plus concurrency measurements.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Answer, ledger, and completeness — byte-identical to what the
    /// sequential executor produces for the same inputs.
    pub outcome: ExecutionOutcome,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Stages of the certified schedule the run executed.
    pub stages: usize,
    /// Measured wall-clock time of the stage loop.
    pub wall: Duration,
    /// Simulated barrier-synchronous makespan of the executed ledger over
    /// those stages (what [`crate::schedule::stage_schedule`] returns) —
    /// the model's prediction of what `wall / pace` should be with enough
    /// threads.
    pub makespan: f64,
}

/// Executes `plan` concurrently, producing an outcome byte-identical to
/// [`crate::execute_plan_with`] under the same `retry` policy and
/// `cache` (deadline caveat in the module docs). See the module docs for
/// the contract.
///
/// With a cache, every selection is looked up on the calling thread
/// before any stage dispatches — admissions are deferred until after the
/// run, so the cache is constant while stages execute, and resolving in
/// plan order up front performs exactly the lookup sequence (stats, LRU
/// touches) the sequential executor does. Hits never reach a worker;
/// misses fetch full records through the workers.
///
/// # Errors
/// As [`crate::execute_plan_with`], and on a `config.pace` that is not
/// finite and non-negative or that turns a step's cost into an
/// unrepresentable sleep. When a worker fails, the error of the
/// lowest-indexed failing step is reported; exchanges already performed
/// by the stage stay committed to the trace.
pub fn execute_plan_parallel(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    retry: Option<&RetryPolicy>,
    mut cache: Option<&mut AnswerCache>,
    config: &ParallelConfig,
) -> Result<ParallelOutcome> {
    check_pace(config.pace)?;
    fusion_core::analyze::ensure_sound(plan)?;
    let mut run = PlanRun::new(plan, query, sources, network, retry, cache.is_some())?;
    // The certificate gate, before any thread spawns and in release
    // builds too: the stages are verified (partition, dependency order,
    // source-disjointness, BDD stage-order replay, interference-freedom
    // of the certified event graph) — an unsound schedule is an error,
    // never a data race.
    let stages = fusion_core::dataflow::stage_decomposition(plan)?.stages;
    let mut served: Vec<Option<Served>> = vec![None; plan.steps.len()];
    if let Some(cache) = cache.as_deref_mut() {
        for (idx, slot) in served.iter_mut().enumerate() {
            *slot = run.lookup(idx, cache)?;
        }
    }
    let threads = config.threads.max(1);
    let start = Instant::now();
    let wall = committing(network, |network| {
        // Ledger cost committed through the last stage barrier — the
        // deadline basis (see module docs).
        let mut spent = Cost::ZERO;
        for stage in &stages {
            for &idx in stage {
                if let Some(hit) = served[idx].take() {
                    run.serve(idx, hit, false);
                }
            }
            run.stage(stage, network, threads, config.pace, spent)?;
            spent = run.spent();
        }
        Ok(start.elapsed())
    })?;
    let outcome = run.finish_committing(network, cache);
    let (_, makespan) = barrier_trace(plan, &outcome.ledger, &stages)?;
    Ok(ParallelOutcome {
        outcome,
        threads,
        stages: stages.len(),
        wall,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute_plan, execute_plan_with};
    use crate::testkit::{dmv_query, dmv_sources};
    use fusion_core::cost::TableCostModel;
    use fusion_core::optimizer::{filter_plan, sja_optimal};
    use fusion_core::plan::{Step, VarId};
    use fusion_net::{FaultPlan, FaultSpec, LinkProfile};
    use fusion_source::Capabilities;
    use fusion_types::{CondId, SourceId};

    #[test]
    fn parallel_matches_sequential_bytes() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let sources = dmv_sources(Capabilities::full());
        for opt in [filter_plan(&model), sja_optimal(&model)] {
            let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
            let seq = execute_plan(&opt.plan, &q, &sources, &mut seq_net).unwrap();
            for threads in [1, 2, 8] {
                let mut par_net = Network::uniform(3, LinkProfile::Wan.link());
                let par = execute_plan_parallel(
                    &opt.plan,
                    &q,
                    &sources,
                    &mut par_net,
                    None,
                    None,
                    &ParallelConfig::with_threads(threads),
                )
                .unwrap();
                assert_eq!(par.outcome.answer, seq.answer);
                assert_eq!(par.outcome.ledger, seq.ledger);
                assert_eq!(par.outcome.completeness, seq.completeness);
                assert_eq!(par_net.trace(), seq_net.trace());
                assert_eq!(par_net.total_cost(), seq_net.total_cost());
                assert!(par.stages >= 1);
                assert!(par.makespan > 0.0);
            }
        }
    }

    #[test]
    fn parallel_ft_matches_sequential_under_faults() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = sja_optimal(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        let policy = RetryPolicy::default();
        for seed in 0..16u64 {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.45));
            let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
            seq_net.set_fault_plan(faults.clone());
            let seq =
                execute_plan_with(&plan, &q, &sources, &mut seq_net, Some(&policy), None).unwrap();
            for threads in [2, 8] {
                let mut par_net = Network::uniform(3, LinkProfile::Wan.link());
                par_net.set_fault_plan(faults.clone());
                let par = execute_plan_parallel(
                    &plan,
                    &q,
                    &sources,
                    &mut par_net,
                    Some(&policy),
                    None,
                    &ParallelConfig::with_threads(threads),
                )
                .unwrap();
                assert_eq!(par.outcome.answer, seq.answer, "seed {seed}");
                assert_eq!(par.outcome.ledger, seq.ledger, "seed {seed}");
                assert_eq!(par.outcome.completeness, seq.completeness, "seed {seed}");
                assert_eq!(par_net.trace(), seq_net.trace(), "seed {seed}");
            }
        }
    }

    #[test]
    fn serial_queues_preserve_per_source_step_order() {
        // A sound plan where a later step has a *smaller* dependency
        // level than an earlier step on the same source: step 6 below
        // (`sq(c2, R3)`, level 0 by data deps) follows step 2
        // (`sq(c1, R3)`, also level 0). Without the serial-queue edges
        // both would land in stage 0 and race for R3's fault-schedule
        // slots; the refinement must push step 6 to a later stage.
        //
        //   result = sjq(c2,R1,U1) ∪ sjq(c2,R2,U1) ∪ (U1 ∩ sq(c2,R3))
        // with U1 the condition-1 union — equal to the fusion answer.
        let q = dmv_query();
        let mut plan = Plan::new(vec![], VarId(0), 2, 3);
        let x0 = plan.fresh_var("X0");
        let x1 = plan.fresh_var("X1");
        let x2 = plan.fresh_var("X2");
        let u1 = plan.fresh_var("U1");
        let y0 = plan.fresh_var("Y0");
        let y1 = plan.fresh_var("Y1");
        let y2 = plan.fresh_var("Y2");
        let y2r = plan.fresh_var("Y2R");
        let r = plan.fresh_var("R");
        plan.steps = vec![
            Step::Sq {
                out: x0,
                cond: CondId(0),
                source: SourceId(0),
            },
            Step::Sq {
                out: x1,
                cond: CondId(0),
                source: SourceId(1),
            },
            Step::Sq {
                out: x2,
                cond: CondId(0),
                source: SourceId(2),
            },
            Step::Union {
                out: u1,
                inputs: vec![x0, x1, x2],
            },
            Step::Sjq {
                out: y0,
                cond: CondId(1),
                source: SourceId(0),
                input: u1,
            },
            Step::Sjq {
                out: y1,
                cond: CondId(1),
                source: SourceId(1),
                input: u1,
            },
            // Data-dependency level 0, but R3's serial queue must order
            // it after step 2.
            Step::Sq {
                out: y2,
                cond: CondId(1),
                source: SourceId(2),
            },
            Step::Intersect {
                out: y2r,
                inputs: vec![u1, y2],
            },
            Step::Union {
                out: r,
                inputs: vec![y0, y1, y2r],
            },
        ];
        plan.result = r;
        let sources = dmv_sources(Capabilities::full());
        // Per-source order: within each source, step indices ascend with
        // stage index.
        let stage_of = fusion_core::dataflow::stage_decomposition(&plan)
            .unwrap()
            .stage_of;
        for src in 0..3 {
            let steps_of_src: Vec<usize> = (0..plan.steps.len())
                .filter(|&i| plan.steps[i].source() == Some(SourceId(src)))
                .collect();
            for w in steps_of_src.windows(2) {
                assert!(
                    stage_of[w[0]] < stage_of[w[1]],
                    "source {src}: steps {} and {} share or invert stages",
                    w[0],
                    w[1]
                );
            }
        }
        // And execution agrees with sequential, faults on.
        let policy = RetryPolicy::default();
        for seed in [3u64, 11, 19] {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.5));
            let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
            seq_net.set_fault_plan(faults.clone());
            let seq = execute_plan_with(&plan, &q, &sources, &mut seq_net, Some(&policy), None);
            let mut par_net = Network::uniform(3, LinkProfile::Wan.link());
            par_net.set_fault_plan(faults);
            let par = execute_plan_parallel(
                &plan,
                &q,
                &sources,
                &mut par_net,
                Some(&policy),
                None,
                &ParallelConfig::with_threads(4),
            );
            match (seq, par) {
                (Ok(seq), Ok(par)) => {
                    assert_eq!(par.outcome.ledger, seq.ledger, "seed {seed}");
                    assert_eq!(par_net.trace(), seq_net.trace(), "seed {seed}");
                }
                (Err(se), Err(pe)) => {
                    assert_eq!(se.to_string(), pe.to_string(), "seed {seed}")
                }
                (seq, par) => panic!("divergent outcomes at seed {seed}: {seq:?} vs {par:?}"),
            }
        }
    }

    #[test]
    fn paced_parallel_beats_paced_single_thread() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        // Pace so the whole sequential run sleeps ~240 ms: slow enough to
        // dominate scheduling noise, fast enough for CI.
        let mut probe_net = Network::uniform(3, LinkProfile::Wan.link());
        let total = execute_plan(&plan, &q, &sources, &mut probe_net)
            .unwrap()
            .total_cost()
            .value();
        let pace = 0.24 / total;
        let run = |threads: usize| {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            execute_plan_parallel(
                &plan,
                &q,
                &sources,
                &mut net,
                None,
                None,
                &ParallelConfig::with_threads(threads).paced(pace),
            )
            .unwrap()
        };
        let solo = run(1);
        let wide = run(8);
        assert_eq!(solo.outcome.ledger, wide.outcome.ledger);
        assert!(
            wide.wall < solo.wall,
            "8 threads {:?} should beat 1 thread {:?}",
            wide.wall,
            solo.wall
        );
        // The simulated makespan predicts the paced wall under full
        // parallelism: measured must land within a loose factor-2 band.
        let predicted = wide.makespan * pace;
        let measured = wide.wall.as_secs_f64();
        assert!(
            measured < predicted * 2.0 + 0.05,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn parallel_cached_matches_sequential_cached_bytes() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = sja_optimal(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        let policy = RetryPolicy::default();

        // Two consecutive runs: the first populates, the second serves.
        let mut seq_cache = AnswerCache::new(1 << 20);
        let mut par_cache = AnswerCache::new(1 << 20);
        for round in 0..2 {
            let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
            let seq = execute_plan_with(
                &plan,
                &q,
                &sources,
                &mut seq_net,
                None,
                Some(&mut seq_cache),
            )
            .unwrap();
            let mut par_net = Network::uniform(3, LinkProfile::Wan.link());
            let par = execute_plan_parallel(
                &plan,
                &q,
                &sources,
                &mut par_net,
                None,
                Some(&mut par_cache),
                &ParallelConfig::with_threads(4),
            )
            .unwrap();
            assert_eq!(par.outcome.answer, seq.answer, "round {round}");
            assert_eq!(par.outcome.ledger, seq.ledger, "round {round}");
            assert_eq!(par_net.trace(), seq_net.trace(), "round {round}");
            assert_eq!(par_cache.stats(), seq_cache.stats(), "round {round}");
        }

        // And under faults, the ft-cached pair agrees too.
        for seed in 0..8u64 {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.4));
            let mut seq_cache = AnswerCache::new(1 << 20);
            let mut par_cache = AnswerCache::new(1 << 20);
            for round in 0..2 {
                let mut seq_net = Network::uniform(3, LinkProfile::Wan.link());
                seq_net.set_fault_plan(faults.clone());
                let seq = execute_plan_with(
                    &plan,
                    &q,
                    &sources,
                    &mut seq_net,
                    Some(&policy),
                    Some(&mut seq_cache),
                )
                .unwrap();
                let mut par_net = Network::uniform(3, LinkProfile::Wan.link());
                par_net.set_fault_plan(faults.clone());
                let par = execute_plan_parallel(
                    &plan,
                    &q,
                    &sources,
                    &mut par_net,
                    Some(&policy),
                    Some(&mut par_cache),
                    &ParallelConfig::with_threads(4),
                )
                .unwrap();
                assert_eq!(par.outcome.answer, seq.answer, "seed {seed} round {round}");
                assert_eq!(par.outcome.ledger, seq.ledger, "seed {seed} round {round}");
                assert_eq!(
                    par.outcome.completeness, seq.completeness,
                    "seed {seed} round {round}"
                );
                assert_eq!(
                    par_net.trace(),
                    seq_net.trace(),
                    "seed {seed} round {round}"
                );
                assert_eq!(
                    par_cache.stats(),
                    seq_cache.stats(),
                    "seed {seed} round {round}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_configs_are_rejected_not_panicked() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = sja_optimal(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        let run = |pace: f64| {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let config = ParallelConfig::with_threads(2).paced(pace);
            execute_plan_parallel(&plan, &q, &sources, &mut net, None, None, &config)
        };
        // 1e300 is in range, but no step's cost times it is a duration.
        for pace in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let err = run(pace).unwrap_err();
            assert!(err.to_string().contains("pace"), "pace {pace}: {err}");
        }
        run(0.0).unwrap();
    }

    #[test]
    fn guard_refuses_unsound_plans() {
        use fusion_core::plan::SimplePlanSpec;
        let q = dmv_query();
        let mut plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        for step in plan.steps.iter_mut().rev() {
            if let Step::Union { inputs, .. } = step {
                inputs.truncate(2);
                break;
            }
        }
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan_parallel(
            &plan,
            &q,
            &sources,
            &mut net,
            None,
            None,
            &ParallelConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("refusing to execute"), "{err}");
    }
}
