//! Plan execution: [`run`] interprets a plan — or a reopt spec, round by
//! round — through the step core ([`crate::step`]) in one loop over
//! *segments* (the whole plan, or one round under a [`ReoptRule`]). The
//! [`Schedule`] decides how a segment runs; the rule decides what happens
//! at a segment boundary. [`Schedule::Stages`] is byte-identical to
//! [`Schedule::Sequential`] (DESIGN.md §9) but for one divergence: the
//! retry deadline's `spent` is sampled at the last stage barrier, so under
//! a [`RetryPolicy::deadline`] a staged run may retry slightly more. A
//! reopt round runs as one stage: no worker sees a half-switched plan.

use crate::ledger::CostLedger;
use crate::reopt::{ReoptReport, ReoptRule, Rounds};
use crate::replay::replay_events;
use crate::retry::{Completeness, RetryPolicy};
use crate::schedule::barrier_trace;
use crate::step::PlanRun;
use fusion_cache::AnswerCache;
use fusion_core::dataflow::{stage_decomposition, Event};
use fusion_core::plan::{Plan, SimplePlanSpec};
use fusion_core::query::FusionQuery;
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};
use fusion_types::{Cost, ItemSet};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The query answer.
    pub answer: ItemSet,
    /// Per-step executed costs.
    pub ledger: CostLedger,
    /// Whether the answer is exact or a sound subset (steps were dropped
    /// after a source was given up on). Always [`Completeness::Exact`]
    /// outside fault-tolerant execution.
    pub completeness: Completeness,
}

impl ExecutionOutcome {
    /// Total executed cost.
    pub fn total_cost(&self) -> Cost {
        self.ledger.total()
    }
}

/// What [`run`] interprets.
pub enum Target<'a> {
    /// A plan, as written.
    Plan(&'a Plan),
    /// A simple plan spec, built and run round by round under a rule.
    Spec(&'a SimplePlanSpec, ReoptRule<'a>),
}

/// In which order, and on which threads, a run's steps execute.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Schedule<'a> {
    /// In plan order on the calling thread.
    #[default]
    Sequential,
    /// The certified stages on up to `threads` (at least 1) workers, a
    /// segment's cache lookups first on the calling thread in step order.
    Stages {
        /// Worker threads per stage.
        threads: usize,
        /// Wall-clock seconds each worker sleeps per cost unit of its
        /// step (finite, ≥ 0), so a measured makespan can be held
        /// against the predicted one (bench E19); `None`: full speed.
        pace: Option<f64>,
    },
    /// One event at a time in the caller's order — the semantics
    /// `fusion-check` explores (`replay.rs` has the contract).
    Order {
        /// Every step executed exactly once; cache events need a cache.
        events: &'a [Event],
        /// `false` replays the mutant in which an admission races its
        /// source's fault-recovery epoch bump.
        guard_commits: bool,
    },
}

/// How [`run`] runs: the schedule, and what is orthogonal to it.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// In which order, and on which threads, steps execute.
    pub schedule: Schedule<'a>,
    /// Fault tolerance: failed exchanges are retried under the policy, and
    /// a source given up on has its steps dropped (∅ and a zero-cost
    /// entry) once the plan's BDD analysis proves the degraded plan still
    /// computes a subset of the answer — else the run errors. Without
    /// faults, byte-identical to `None`.
    pub retry: Option<&'a RetryPolicy>,
    /// A semantic answer cache serving and admitting selections (the
    /// contract is in `cached.rs`); answer and completeness are
    /// byte-identical to `None`.
    pub cache: Option<&'a mut AnswerCache>,
}

/// What a [`Schedule::Stages`] run of a plan ran.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Worker threads per stage.
    pub threads: usize,
    /// Stages of the certified schedule.
    pub stages: usize,
    /// Measured wall-clock time of the stage loop.
    pub wall: Duration,
    /// The ledger's barrier-synchronous makespan over those stages
    /// ([`crate::stage_schedule`]): what `wall / pace` should approach.
    pub makespan: f64,
}

/// The result of [`run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Answer, ledger (with a switched run's reopt markers), completeness.
    pub outcome: ExecutionOutcome,
    /// What a [`Schedule::Stages`] run of a [`Target::Plan`] ran.
    pub stages: Option<StageReport>,
    /// What a [`Target::Spec`] run's rule decided.
    pub reopt: Option<ReoptReport>,
}

/// Executes `target` for `query` against `sources` over `network`.
///
/// Remote steps are charged the network's communication cost plus each
/// wrapper's processing cost; a semijoin at a source without native
/// support is emulated by batched passed-binding probes (§2.3). Before
/// any exchange, [`fusion_core::analyze::ensure_sound`] refuses a plan
/// that provably does not compute the fusion query, with a counterexample.
///
/// # Errors
/// Fails on invalid or unsound plans, capability violations, predicate
/// errors and undroppable source failures; on a bad `pace` or event
/// order; on a reopt rule whose shapes or config disagree or whose
/// schedule it does not run on (a live rule runs sequentially or on
/// unpaced stages, a replayed one sequentially). A failing stage reports
/// its lowest-indexed failing step; exchanges made stay in the trace.
pub fn run(
    target: Target<'_>,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    options: RunOptions<'_>,
) -> Result<RunOutcome> {
    drive(target, query, sources, network, options, true)
}

/// [`run`] of `plan` in plan order, with neither retry nor cache.
///
/// # Errors
/// As [`run`].
pub fn execute_plan(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    run(
        Target::Plan(plan),
        query,
        sources,
        network,
        Default::default(),
    )
    .map(|r| r.outcome)
}

/// [`execute_plan`] without the soundness guard: the plan is only
/// validated, so it may compute something other than the fusion answer
/// (a partial plan, say).
///
/// # Errors
/// As [`run`], bar unsoundness.
pub fn execute_plan_unchecked(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    let target = Target::Plan(plan);
    drive(target, query, sources, network, Default::default(), false).map(|r| r.outcome)
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

/// [`run`], with the soundness proof (`sound`) or bare validation.
fn drive(
    target: Target<'_>,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    options: RunOptions<'_>,
    sound: bool,
) -> Result<RunOutcome> {
    let RunOptions {
        schedule,
        retry,
        mut cache,
    } = options;
    if let Schedule::Stages { pace, .. } = schedule {
        check_pace(pace)?;
    }
    let (plan, mut rounds) = match target {
        Target::Plan(plan) => (Cow::Borrowed(plan), None),
        Target::Spec(spec, rule) => {
            let (rounds, plan) = Rounds::new(spec, rule, schedule, query, sources)?;
            (Cow::Owned(plan), Some(rounds))
        }
    };
    if sound {
        fusion_core::analyze::ensure_sound(&plan)?;
    } else {
        plan.validate()?;
    }
    let mut run = PlanRun::new(&plan, query, sources, network, retry, cache.is_some())?;
    // The certificate gate, before any thread spawns and in release builds
    // too: an unsound stage schedule is an error, never a data race.
    let certified = match schedule {
        Schedule::Stages { .. } => stage_decomposition(&plan)?.stages,
        _ => Vec::new(),
    };
    let start = Instant::now();
    // The segment loop; a failed stage's buffered exchanges are committed
    // to the trace like a finished run's.
    let wall = (|| {
        for r in 0.. {
            let segment = rounds
                .as_ref()
                .map_or(0..run.plan().steps.len(), |rounds| rounds.segment(r));
            match schedule {
                Schedule::Sequential => {
                    for idx in segment {
                        run.step(idx, network, cache.as_deref_mut())?;
                    }
                }
                Schedule::Stages { threads, pace } => {
                    // Lookups resolve on the calling thread in step order:
                    // the lookup sequence (stats, LRU touches) of the
                    // sequential schedule. Hits never reach a worker.
                    if let Some(cache) = cache.as_deref_mut() {
                        for idx in segment.clone() {
                            if let Some(hit) = run.lookup(idx, cache)? {
                                run.serve(idx, hit, false);
                            }
                        }
                    }
                    let round = [segment.collect::<Vec<_>>()];
                    let stages = if rounds.is_some() {
                        &round
                    } else {
                        &certified[..]
                    };
                    for stage in stages {
                        run.stage(stage, network, threads.max(1), pace, run.spent())?;
                    }
                }
                Schedule::Order {
                    events,
                    guard_commits,
                } => {
                    let cache = cache.as_deref_mut();
                    replay_events(&plan, &mut run, network, cache, events, guard_commits)?;
                }
            }
            if !rounds
                .as_mut()
                .map_or(Ok(false), |rounds| rounds.boundary(r, &mut run))?
            {
                break;
            }
        }
        Ok(start.elapsed())
    })();
    network.commit();
    let wall = wall?;
    let outcome = match schedule {
        // Admissions without a `Commit` event stay uncommitted.
        Schedule::Order { .. } => run.finish().0,
        _ => run.finish_committing(network, cache),
    };
    let stages = match schedule {
        Schedule::Stages { threads, .. } if rounds.is_none() => Some(StageReport {
            threads: threads.max(1),
            stages: certified.len(),
            wall,
            makespan: barrier_trace(&plan, &outcome.ledger, &certified)?.1,
        }),
        _ => None,
    };
    Ok(RunOutcome {
        outcome,
        stages,
        reopt: rounds.map(Rounds::finish),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::StepKind;
    use crate::testkit::{dmv_query, dmv_sources};
    use fusion_core::cost::TableCostModel;
    use fusion_core::optimizer::{filter_plan, sja_optimal};
    use fusion_core::plan::{SimplePlanSpec, SourceChoice, Step, VarId};
    use fusion_net::{ExchangeKind, FaultPlan, FaultSpec, LinkProfile};
    use fusion_source::Capabilities;
    use fusion_types::error::FusionError;
    use fusion_types::{CondId, SourceId};
    use fusion_workload::dmv::figure1_relations;

    fn semijoin_spec() -> SimplePlanSpec {
        SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection; 3],
                vec![SourceChoice::Semijoin; 3],
            ],
        }
    }

    #[test]
    fn filter_plan_computes_figure1_answer_with_costs() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        assert_eq!(out.answer, ItemSet::from_items(["J55", "T21"]));
        assert!(out.total_cost() > Cost::ZERO);
        assert_eq!(out.ledger.count_kind(StepKind::Selection), 6);
        assert_eq!(net.trace().len(), 6);
    }

    #[test]
    fn native_and_emulated_semijoins_agree_on_answers() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let mut answers = Vec::new();
        let mut costs = Vec::new();
        for caps in [
            Capabilities::full(),
            Capabilities::emulated(2),
            Capabilities::emulated(1),
        ] {
            let sources = dmv_sources(caps);
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
            answers.push(out.answer.clone());
            costs.push(out.total_cost());
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(answers[0], ItemSet::from_items(["J55", "T21"]));
        // Emulation costs strictly more, and smaller batches cost more.
        assert!(
            costs[1] > costs[0],
            "emulated {} <= native {}",
            costs[1],
            costs[0]
        );
        assert!(costs[2] > costs[1]);
    }

    #[test]
    fn emulated_semijoin_batches_round_trips() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::emulated(1));
        let mut net = Network::uniform(3, LinkProfile::Lan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        // X1 = {J55, T80, T21}: three bindings probed one at a time at
        // each of the three sources.
        let emulated: Vec<_> = out
            .ledger
            .entries()
            .iter()
            .filter(|e| e.kind == StepKind::EmulatedSemijoin)
            .collect();
        assert_eq!(emulated.len(), 3);
        for e in emulated {
            assert_eq!(e.round_trips, 3);
        }
        assert_eq!(net.count_kind(ExchangeKind::BindingProbe), 9);
    }

    #[test]
    fn selection_only_source_fails_semijoin_execution() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::selection_only());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(matches!(err, FusionError::Unsupported { .. }));
    }

    #[test]
    fn executed_answer_matches_naive_for_optimizer_plans() {
        let q = dmv_query();
        let truth = q.naive_answer(&figure1_relations()).unwrap();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let sources = dmv_sources(Capabilities::full());
        for opt in [filter_plan(&model), sja_optimal(&model)] {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&opt.plan, &q, &sources, &mut net).unwrap();
            assert_eq!(out.answer, truth);
        }
    }

    #[test]
    fn lq_and_local_steps_execute() {
        use fusion_core::plan::{Plan, Step, VarId};
        let q = dmv_query();
        // T1 := lq(R1); X0 := sq(c1, T1); X1 := sq(c2, R2); X2 := X0 ∩ X1.
        let mut plan = Plan::new(vec![], VarId(0), 2, 3);
        let t = plan.fresh_rel("T1");
        let x0 = plan.fresh_var("X0");
        let x1 = plan.fresh_var("X1");
        let x2 = plan.fresh_var("X2");
        plan.steps = vec![
            Step::Lq {
                out: t,
                source: SourceId(0),
            },
            Step::LocalSq {
                out: x0,
                cond: CondId(0),
                rel: t,
            },
            Step::Sq {
                out: x1,
                cond: CondId(1),
                source: SourceId(1),
            },
            Step::Intersect {
                out: x2,
                inputs: vec![x0, x1],
            },
        ];
        plan.result = x2;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        // The plan is a deliberate partial probe (it ignores R3), so the
        // guarded entry point refuses it...
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(err.to_string().contains("semantically unsound"), "{err}");
        // ...and the unchecked one runs it.
        let out = execute_plan_unchecked(&plan, &q, &sources, &mut net).unwrap();
        // dui at R1 = {J55, T80}; sp at R2 = {J55, T11} → {J55}.
        assert_eq!(out.answer, ItemSet::from_items(["J55"]));
        assert_eq!(out.ledger.count_kind(StepKind::Load), 1);
        assert_eq!(out.ledger.count_kind(StepKind::Local), 2);
    }

    #[test]
    fn guard_refuses_unsound_plan_with_counterexample() {
        let q = dmv_query();
        // A filter plan whose final union forgets R3.
        let mut plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        for step in plan.steps.iter_mut().rev() {
            if let Step::Union { inputs, .. } = step {
                inputs.truncate(2);
                break;
            }
        }
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("refusing to execute"), "{msg}");
        assert!(msg.contains("counterexample world"), "{msg}");
        assert!(msg.contains("step trace"), "{msg}");
    }

    #[test]
    fn arity_mismatches_rejected() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 2, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan; // 2 sources
        let sources = dmv_sources(Capabilities::full()); // 3 sources
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        assert!(execute_plan(&plan, &q, &sources, &mut net).is_err());
    }

    /// `plan` over the DMV sources under `schedule`, `retry` and `cache`.
    fn exec(
        plan: &Plan,
        net: &mut Network,
        schedule: Schedule<'_>,
        retry: Option<&RetryPolicy>,
        cache: Option<&mut AnswerCache>,
    ) -> Result<RunOutcome> {
        let (q, sources) = (dmv_query(), dmv_sources(Capabilities::full()));
        let options = RunOptions {
            schedule,
            retry,
            cache,
        };
        run(Target::Plan(plan), &q, &sources, net, options)
    }

    fn stages(threads: usize, pace: Option<f64>) -> Schedule<'static> {
        Schedule::Stages { threads, pace }
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
            let seq = exec(
                &plan,
                &mut seq_net,
                Schedule::Sequential,
                Some(&policy),
                None,
            );
            let mut par_net = Network::uniform(3, LinkProfile::Wan.link());
            par_net.set_fault_plan(faults);
            let par = exec(&plan, &mut par_net, stages(4, None), Some(&policy), None);
            match (seq, par) {
                (Ok(seq), Ok(par)) => {
                    assert_eq!(par.outcome.ledger, seq.outcome.ledger, "seed {seed}");
                    assert_eq!(par_net.trace(), seq_net.trace(), "seed {seed}");
                }
                (Err(se), Err(pe)) => {
                    assert_eq!(se.to_string(), pe.to_string(), "seed {seed}");
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
        let paced = |threads: usize| {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = exec(&plan, &mut net, stages(threads, Some(pace)), None, None).unwrap();
            (out.outcome.ledger, out.stages.unwrap())
        };
        let (solo_ledger, solo) = paced(1);
        let (wide_ledger, wide) = paced(8);
        assert_eq!(solo_ledger, wide_ledger);
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
    fn out_of_range_configs_are_rejected_not_panicked() {
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = sja_optimal(&model).plan;
        let run = |pace: f64| {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            exec(&plan, &mut net, stages(2, Some(pace)), None, None)
        };
        // 1e300 is in range, but no step's cost times it is a duration.
        for pace in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let err = run(pace).unwrap_err();
            assert!(err.to_string().contains("pace"), "pace {pace}: {err}");
        }
        run(0.0).unwrap();
    }
}
