//! Runtime adaptive re-optimization fed by observed cardinalities
//! (DESIGN.md §15): run the *optimized* spec round by round, and only
//! when an observation **leaves its believed interval** re-open the
//! search over the undone suffix ([`suffix_search`]) and splice the
//! winner in, gated by [`certify_switch`].
//!
//! * Executed, not dropped steps calibrate a [`CardinalityFeedback`]
//!   store that persists across queries.
//! * Believed bounds ([`SourceBounds::believed_from_model`]) propagate
//!   soundly through the dataflow; a round also arms a re-plan when the
//!   running set leaves `[x̂/slack, x̂·slack]`, `x̂` the size the committed
//!   suffix was priced to leave (every cell can be exact while correlated
//!   conditions break the `·gsel` chain). While nothing arms, the run is
//!   **byte-identical** to the spec's plan.
//! * An armed boundary re-searches from the observed `|X|` under the
//!   calibrated model ([`FeedbackCostModel`]); a winner that differs,
//!   saves at least `min_gain` and certifies is spliced in behind a free
//!   [`StepKind::Reopt`] marker, so [`ReoptRule::Replay`] reproduces it.

use crate::interp::Schedule;
use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use crate::step::PlanRun;
use fusion_core::cost::FeedbackCostModel;
use fusion_core::dataflow::{
    analyze_dataflow, certify_switch, Dataflow, Interval, SourceBounds, SwitchCertificate,
};
use fusion_core::optimizer::{price_suffix, suffix_search};
use fusion_core::plan::{Plan, SimplePlanSpec, SourceChoice, Step, VarId};
use fusion_core::query::FusionQuery;
use fusion_core::CostModel;
use fusion_source::SourceSet;
use fusion_stats::{CardObservation, CardinalityFeedback};
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Condition, Cost, SourceId};
use std::ops::Range;

/// Tuning knobs for adaptive re-optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct ReoptConfig {
    /// Multiplicative trust region around each estimated cell
    /// cardinality (at least 1): the believed interval is
    /// `[est/slack, est*slack]`. Wider slack tolerates more drift
    /// before re-optimizing.
    pub slack: f64,
    /// Minimum relative gain a candidate suffix must show over the
    /// committed one before a switch is attempted (0.05 = 5% cheaper).
    /// Guards against churn on estimate noise.
    pub min_gain: f64,
}

impl Default for ReoptConfig {
    fn default() -> ReoptConfig {
        ReoptConfig {
            slack: 4.0,
            min_gain: 0.05,
        }
    }
}

impl ReoptConfig {
    /// Point trust regions and no gain threshold: per-round re-planning
    /// from the observed running set, as a certified, replayable run —
    /// for a model known to be wrong in shape (correlated conditions).
    pub fn every_round() -> ReoptConfig {
        ReoptConfig {
            slack: 1.0,
            min_gain: 0.0,
        }
    }
}

/// One certified mid-flight plan switch, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    /// Steps executed when the switch fired — the index of the first
    /// spliced step and the ledger marker's `step` field.
    pub at_step: usize,
    /// Rounds fully executed before the switch (the shared prefix).
    pub rounds_done: usize,
    /// The step whose observation violated its believed interval: the
    /// round's closing set operation when the running set escaped.
    pub violating_step: usize,
    /// The observed cardinality that escaped.
    pub observed: usize,
    /// The believed interval it escaped from.
    pub expected: Interval,
    /// The observed running-set size the suffix was re-planned from.
    pub x0: f64,
    /// What the committed suffix would have cost under the recalibrated
    /// model.
    pub old_suffix_cost: Cost,
    /// What the spliced suffix is estimated to cost.
    pub new_suffix_cost: Cost,
    /// The spliced suffix: condition order and per-source choices.
    pub suffix_order: Vec<CondId>,
    /// Per-round source choices of the spliced suffix.
    pub suffix_choices: Vec<Vec<SourceChoice>>,
    /// The proof the splice was sound.
    pub certificate: SwitchCertificate,
}

/// One executed round, for post-mortem analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// The condition processed.
    pub cond: CondId,
    /// Per-source strategies used.
    pub choices: Vec<SourceChoice>,
    /// `x̂`: the `|X|` the committed plan was priced to leave here.
    pub predicted_size: f64,
    /// What it actually left.
    pub actual_size: usize,
}

/// What decides a reopt run's round boundaries.
pub enum ReoptRule<'a> {
    /// The feedback loop of the module docs; `feedback` is updated when
    /// the run succeeds, and a dropped step is not an observation.
    Live {
        /// The model the spec was planned under.
        model: &'a dyn CostModel,
        /// Observed cardinalities, across queries.
        feedback: &'a mut CardinalityFeedback,
        /// Trust region and gain threshold.
        config: &'a ReoptConfig,
    },
    /// A live run's switches spliced in at their `at_step`, each
    /// re-proved by [`certify_switch`] (a tampered record fails the run):
    /// no interval, feedback or search is consulted, and the outcome is
    /// the live run's bit for bit on the same inputs and fault plan.
    Replay(&'a [SwitchRecord]),
}

/// What a reopt run's rule decided.
#[derive(Debug, Clone)]
pub struct ReoptReport {
    /// The spec actually executed after all switches.
    pub final_spec: SimplePlanSpec,
    /// Certified switches, in execution order.
    pub switches: Vec<SwitchRecord>,
    /// The rounds, in execution order; empty under
    /// [`ReoptRule::Replay`], which prices nothing.
    pub rounds: Vec<RoundRecord>,
    /// Interval violations observed (a violation without a worthwhile
    /// certified alternative does not switch).
    pub violations: usize,
}

/// The free ledger marker recording a certified switch fired before
/// step `step`; `observed` is the violating cardinality.
fn reopt_marker(step: usize, observed: usize) -> LedgerEntry {
    LedgerEntry {
        step,
        kind: StepKind::Reopt,
        source: None,
        comm: Cost::ZERO,
        proc: Cost::ZERO,
        round_trips: 0,
        items_out: observed,
        attempts: 0,
        failed_cost: Cost::ZERO,
    }
}

/// Step ranges `[start, end)` of each round of a simple plan, in round
/// order. Mirrors [`SimplePlanSpec::build`]'s emission: round 0 is `n`
/// remote steps plus a union; later rounds add an intersect unless the
/// round is all-semijoin (whose outputs are already subsets).
fn round_layout(spec: &SimplePlanSpec, n: usize) -> Vec<(usize, usize)> {
    let mut rounds = Vec::with_capacity(spec.order.len());
    let mut start = 0usize;
    for (r, row) in spec.choices.iter().enumerate() {
        let all_semijoin = row.iter().all(|c| *c == SourceChoice::Semijoin);
        let len = n + 1 + usize::from(r > 0 && !all_semijoin);
        rounds.push((start, start + len));
        start += len;
    }
    rounds
}

/// Derives the believed dataflow intervals of `plan` under the
/// feedback-calibrated model.
fn derive_df(
    plan: &Plan,
    model: &dyn CostModel,
    feedback: &CardinalityFeedback,
    slack: f64,
) -> Result<Dataflow> {
    let fbm = FeedbackCostModel::new(model, feedback);
    let bounds = SourceBounds::believed_from_model(&fbm, slack);
    analyze_dataflow(plan, &fbm, &bounds)
}

/// The `|X|` each round of `order` is priced to leave, chained from `x`
/// (`None` before a query's first round) as [`suffix_search`] chains it:
/// the condition's union, then `·gsel`.
fn size_chain<M: CostModel>(model: &M, order: &[CondId], mut x: Option<f64>) -> Vec<f64> {
    let mut chain = |&c| {
        let next = x.map_or_else(|| model.est_condition_union(c), |k| k * model.gsel(c));
        *x.insert(next)
    };
    order.iter().map(&mut chain).collect()
}

/// The cardinality observation one executed step's ledger entry
/// carries: selections (fetched, or served from the cache or a shared
/// fetch) count a cell exactly, semijoins over a non-empty input
/// variable (sized by `var_len`) sample its selectivity. Bloom semijoins carry none (their
/// output overcounts by the false-positive rate), nor do loads, local
/// steps and [`StepKind::Reopt`] markers.
///
/// The entry of a *dropped* step is not an observation — its
/// `items_out = 0` says the source was given up on, not that nothing
/// matches — and the ledger alone cannot tell the two apart: callers
/// must not pass one in.
fn observation(
    step: &Step,
    entry: &LedgerEntry,
    var_len: impl Fn(VarId) -> Option<usize>,
) -> Option<(CondId, SourceId, CardObservation)> {
    match (step, entry.kind) {
        (
            Step::Sq { cond, source, .. },
            StepKind::Selection
            | StepKind::CacheHit
            | StepKind::CacheResidual
            | StepKind::ShareHit
            | StepKind::ShareResidual,
        ) => Some((
            *cond,
            *source,
            CardObservation::Exact(entry.items_out as f64),
        )),
        (
            Step::Sjq {
                cond,
                source,
                input,
                ..
            },
            StepKind::Semijoin | StepKind::EmulatedSemijoin,
        ) => {
            let input_items = var_len(*input).filter(|&k| k > 0)?;
            let sel = (entry.items_out as f64 / input_items as f64).clamp(0.0, 1.0);
            Some((*cond, *source, CardObservation::Selectivity(sel)))
        }
        _ => None,
    }
}

/// Folds one executed, not dropped step's [`observation`] into the
/// feedback store.
fn record_observation(feedback: &mut CardinalityFeedback, run: &PlanRun<'_>, entry: &LedgerEntry) {
    let step = &run.plan().steps[entry.step];
    if let Some((cond, source, obs)) = observation(step, entry, |v| run.var_len(v)) {
        feedback.record(cond, source, obs);
    }
}

/// Extracts every cardinality observation an executed ledger carries,
/// in plan order — the cross-query harvest the multi-tenant server
/// folds into its shared feedback store at commit time. Semijoin
/// observations reconstruct their input size from the ledger entry of
/// the step that defined the input variable. The ledger must come from
/// a run that dropped no step (the server delivers plainly).
pub(crate) fn harvest_observations(
    plan: &Plan,
    conditions: &[Condition],
    ledger: &CostLedger,
) -> Vec<(Condition, SourceId, CardObservation)> {
    let mut var_items: Vec<Option<usize>> = vec![None; plan.var_names.len()];
    let mut out = Vec::new();
    for entry in ledger.entries() {
        if entry.kind == StepKind::Reopt {
            continue;
        }
        let step = &plan.steps[entry.step];
        if let Some((cond, source, obs)) = observation(step, entry, |v| var_items[v.0]) {
            out.push((conditions[cond.0].clone(), source, obs));
        }
        if let Some(v) = step.defined_var() {
            var_items[v.0] = Some(entry.items_out);
        }
    }
    out
}

fn check_shapes(
    spec: &SimplePlanSpec,
    query: &FusionQuery,
    sources: &SourceSet,
    model: &dyn CostModel,
    feedback: &CardinalityFeedback,
) -> Result<()> {
    let m = spec.order.len();
    let n = sources.len();
    if query.m() != m || model.n_conditions() != m || model.n_sources() != n {
        return Err(FusionError::invalid_plan(format!(
            "reopt shapes disagree: spec {}x?, query {} conditions, model {}x{}, {} sources",
            m,
            query.m(),
            model.n_conditions(),
            model.n_sources(),
            n
        )));
    }
    if feedback.n_conditions() != m || feedback.n_sources() != n {
        return Err(FusionError::invalid_plan(format!(
            "reopt feedback is calibrated for {}x{} queries, not {}x{}",
            feedback.n_conditions(),
            feedback.n_sources(),
            m,
            n
        )));
    }
    Ok(())
}

/// Rejects a config the believed-interval derivation or the gain test
/// cannot work with.
fn check_config(config: &ReoptConfig) -> Result<()> {
    if !(config.slack.is_finite() && config.slack >= 1.0) {
        return Err(FusionError::execution(format!(
            "reopt config: slack must be finite and at least 1, got {}",
            config.slack
        )));
    }
    if !(0.0..1.0).contains(&config.min_gain) {
        return Err(FusionError::execution(format!(
            "reopt config: min_gain must be in [0, 1), got {}",
            config.min_gain
        )));
    }
    Ok(())
}

/// A live rule's calibrated store, believed step intervals and `x̂`s.
struct Belief {
    calibrated: CardinalityFeedback,
    df: Dataflow,
    xhat: Vec<f64>,
}

/// `spec`'s first `done` rounds, then `order` with `choices`.
fn respec(
    spec: &SimplePlanSpec,
    done: usize,
    order: &[CondId],
    choices: &[Vec<SourceChoice>],
) -> SimplePlanSpec {
    SimplePlanSpec {
        order: [&spec.order[..done], order].concat(),
        choices: [&spec.choices[..done], choices].concat(),
    }
}

/// The segments and boundaries of [`crate::run`] under a [`ReoptRule`].
pub(crate) struct Rounds<'a> {
    /// The spec being run, and each of its rounds' steps `[start, end)`.
    spec: SimplePlanSpec,
    layout: Vec<(usize, usize)>,
    rule: ReoptRule<'a>,
    /// `Some` under a live rule.
    belief: Option<Belief>,
    switches: Vec<SwitchRecord>,
    log: Vec<RoundRecord>,
    violations: usize,
}

impl<'a> Rounds<'a> {
    /// Builds `spec`'s plan, checking `rule` against `schedule` and the
    /// run's shapes.
    ///
    /// # Errors
    /// On a schedule the rule does not run on, a bad live config, and
    /// shape mismatches.
    pub(crate) fn new(
        spec: &SimplePlanSpec,
        rule: ReoptRule<'a>,
        schedule: Schedule<'_>,
        query: &FusionQuery,
        sources: &SourceSet,
    ) -> Result<(Rounds<'a>, Plan)> {
        match (&rule, schedule) {
            (_, Schedule::Sequential)
            | (ReoptRule::Live { .. }, Schedule::Stages { pace: None, .. }) => {}
            _ => {
                return Err(FusionError::execution(
                    "reopt: a live rule runs sequentially or on unpaced stages, \
                     a replayed one sequentially",
                ))
            }
        }
        let plan = spec.build(sources.len())?;
        let belief = match &rule {
            ReoptRule::Live {
                model,
                feedback,
                config,
            } => {
                check_config(config)?;
                check_shapes(spec, query, sources, *model, feedback)?;
                Some(Belief {
                    calibrated: CardinalityFeedback::clone(feedback),
                    df: derive_df(&plan, *model, feedback, config.slack)?,
                    xhat: size_chain(&FeedbackCostModel::new(*model, feedback), &spec.order, None),
                })
            }
            ReoptRule::Replay(_) if query.m() != spec.order.len() => {
                return Err(FusionError::invalid_plan(format!(
                    "spec has {} rounds, query {} conditions",
                    spec.order.len(),
                    query.m()
                )));
            }
            ReoptRule::Replay(_) => None,
        };
        let rounds = Rounds {
            spec: spec.clone(),
            layout: round_layout(spec, sources.len()),
            rule,
            belief,
            switches: Vec::new(),
            log: Vec::new(),
            violations: 0,
        };
        Ok((rounds, plan))
    }

    /// The steps of round `r`.
    pub(crate) fn segment(&self, r: usize) -> Range<usize> {
        let (start, end) = self.layout[r];
        start..end
    }

    /// The boundary after round `r`: what the rule decides, and whether a
    /// round follows.
    ///
    /// # Errors
    /// On a switch that cannot be built or analysed, and on a replayed
    /// record that is malformed, does not certify, or is left over.
    pub(crate) fn boundary(&mut self, r: usize, run: &mut PlanRun<'_>) -> Result<bool> {
        let more = r + 1 < self.spec.order.len();
        let end = self.layout[r].1;
        let switch = match &mut self.rule {
            ReoptRule::Live { model, config, .. } => {
                let (model, config) = (*model, *config);
                self.observe(r, run, model, config)?
            }
            ReoptRule::Replay(pending) => {
                let all: &'a [SwitchRecord] = pending;
                match all.split_first() {
                    Some(_) if !more => {
                        return Err(FusionError::invalid_plan(
                            "switch record points past the end of the plan",
                        ));
                    }
                    Some((sw, rest)) if sw.at_step == end => {
                        *pending = rest;
                        Some(self.recorded(sw, run)?)
                    }
                    _ => None,
                }
            }
        };
        if let Some((spec, plan, record)) = switch {
            run.splice(plan, reopt_marker(end, record.observed));
            self.layout = round_layout(&spec, run.plan().n_sources);
            self.spec = spec;
            self.switches.push(record);
        }
        Ok(more)
    }

    /// A replayed switch record's spec and plan, re-certified.
    fn recorded(
        &mut self,
        sw: &SwitchRecord,
        run: &PlanRun<'_>,
    ) -> Result<(SimplePlanSpec, Plan, SwitchRecord)> {
        let m = self.spec.order.len();
        if sw.rounds_done == 0 || sw.rounds_done > m {
            return Err(FusionError::invalid_plan(format!(
                "switch record splices after {} of {m} rounds",
                sw.rounds_done
            )));
        }
        if sw.suffix_order.len() != m - sw.rounds_done {
            return Err(FusionError::invalid_plan(format!(
                "switch record's suffix covers {} rounds, {} remain",
                sw.suffix_order.len(),
                m - sw.rounds_done
            )));
        }
        let (order, choices) = (&sw.suffix_order, &sw.suffix_choices);
        let spec = respec(&self.spec, sw.rounds_done, order, choices);
        let plan = spec.build(run.plan().n_sources)?;
        let certificate = certify_switch(run.plan(), &plan, sw.at_step)?;
        self.violations += 1;
        let record = SwitchRecord {
            certificate,
            ..sw.clone()
        };
        Ok((spec, plan, record))
    }

    /// A live rule after round `r`: calibrate, record the round, and —
    /// before another — the certified re-plan of the suffix, if an
    /// observation escaped its believed interval.
    fn observe(
        &mut self,
        r: usize,
        run: &PlanRun<'_>,
        model: &dyn CostModel,
        config: &ReoptConfig,
    ) -> Result<Option<(SimplePlanSpec, Plan, SwitchRecord)>> {
        let Belief {
            calibrated,
            df,
            xhat,
        } = self.belief.as_mut().expect("a live rule has beliefs");
        let (spec, (start, end)) = (&self.spec, self.layout[r]);
        // A dropped step observed nothing: its entry neither calibrates
        // the store nor is tested against its interval.
        let entries = (start..end)
            .filter(|&idx| !run.was_dropped(idx))
            .map(|idx| run.entry(idx).expect("round executed"));
        for entry in entries.clone() {
            record_observation(calibrated, run, entry);
        }
        let closing = run.plan().steps[end - 1].defined_var();
        let x = closing.and_then(|v| run.var_len(v)).unwrap_or(0);
        self.log.push(RoundRecord {
            cond: spec.order[r],
            choices: spec.choices[r].clone(),
            predicted_size: xhat[r],
            actual_size: x,
        });
        if r + 1 >= spec.order.len() {
            return Ok(None);
        }
        // Did any observation escape its believed interval? Every step
        // (the intersect could mask a cell), then the running set without
        // propagated bounds' slop: at slack 1 any `|X| ≠ x̂` re-plans.
        let drift = Interval::new(xhat[r] / config.slack, xhat[r] * config.slack);
        let Some((violating_step, observed, expected)) = entries
            .map(|e| (e.step, e.items_out, df.step_bounds[e.step]))
            .find(|(_, items, believed)| !believed.contains(*items as f64))
            .or_else(|| {
                let within = (drift.lo..=drift.hi).contains(&(x as f64));
                (!within).then_some((end - 1, x, drift))
            })
        else {
            return Ok(None);
        };
        self.violations += 1;
        let x0 = x as f64;
        let remaining: Vec<usize> = spec.order[r + 1..].iter().map(|c| c.0).collect();
        let fbm = FeedbackCostModel::new(model, calibrated);
        let old_suffix_cost = price_suffix(&fbm, &remaining, &spec.choices[r + 1..], x0);
        let cand = suffix_search(&fbm, &remaining, Some(x0));
        let differs = cand.order != remaining || cand.choices[..] != spec.choices[r + 1..];
        let mut switch = None;
        if differs && cand.cost.value() <= old_suffix_cost.value() * (1.0 - config.min_gain) {
            let suffix_order: Vec<CondId> = cand.order.iter().map(|&c| CondId(c)).collect();
            let new_spec = respec(spec, r + 1, &suffix_order, &cand.choices);
            let plan = new_spec.build(run.plan().n_sources)?;
            // Certification may refuse the splice: the plan stays.
            if let Ok(certificate) = certify_switch(run.plan(), &plan, end) {
                *df = derive_df(&plan, model, calibrated, config.slack)?;
                let record = SwitchRecord {
                    at_step: end,
                    rounds_done: r + 1,
                    violating_step,
                    observed,
                    expected,
                    x0,
                    old_suffix_cost,
                    new_suffix_cost: cand.cost,
                    suffix_order,
                    suffix_choices: cand.choices,
                    certificate,
                };
                switch = Some((new_spec, plan, record));
            }
        }
        // Switched or not, `x̂` re-chains from `x0` along the committed order.
        let order = &switch.as_ref().map_or(spec, |s| &s.0).order[r + 1..];
        xhat.truncate(r + 1);
        xhat.extend(size_chain(&fbm, order, Some(x0)));
        Ok(switch)
    }

    /// What the rule decided; a live rule's calibration becomes the
    /// caller's feedback store.
    pub(crate) fn finish(self) -> ReoptReport {
        if let (ReoptRule::Live { feedback, .. }, Some(belief)) = (self.rule, self.belief) {
            *feedback = belief.calibrated;
        }
        ReoptReport {
            final_spec: self.spec,
            switches: self.switches,
            rounds: self.log,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute_plan, ExecutionOutcome};
    use crate::testkit::{dmv_query, dmv_sources};
    use crate::{run, RetryPolicy, RunOptions, Target};
    use fusion_core::cost::TableCostModel;
    use fusion_core::optimizer::sja_optimal;
    use fusion_net::LinkProfile;
    use fusion_net::Network;
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, ItemSet, Predicate, Relation};
    use fusion_workload::dmv::figure1_relations;

    /// `spec` under `rule` with `options`: the outcome and the report.
    fn reopt(
        spec: &SimplePlanSpec,
        rule: ReoptRule<'_>,
        (q, sources): (&FusionQuery, &SourceSet),
        net: &mut Network,
        options: RunOptions<'_>,
    ) -> Result<(ExecutionOutcome, ReoptReport)> {
        let out = run(Target::Spec(spec, rule), q, sources, net, options)?;
        Ok((out.outcome, out.reopt.expect("a spec run reports its rule")))
    }

    fn live_rule<'a>(
        model: &'a dyn CostModel,
        feedback: &'a mut CardinalityFeedback,
        config: &'a ReoptConfig,
    ) -> ReoptRule<'a> {
        ReoptRule::Live {
            model,
            feedback,
            config,
        }
    }

    /// A skewed instance: per source, "dui" matches 2 entities while
    /// "sp" matches 31 — so a locked-in round-1 selection sweep is
    /// genuinely expensive and the semijoin switch wins on executed
    /// cost, not just on estimates.
    fn skewed_sources() -> SourceSet {
        let s = dmv_schema();
        SourceSet::new(
            (0..3usize)
                .map(|j| {
                    let mut rows = vec![
                        tuple![format!("D{j}0"), "dui", 1993i64],
                        tuple![format!("D{j}1"), "dui", 1994i64],
                        tuple![format!("D{j}0"), "sp", 1995i64],
                    ];
                    for k in 0..30 {
                        rows.push(tuple![format!("S{j}x{k}"), "sp", 1996i64]);
                    }
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", j + 1),
                        Relation::from_rows(s.clone(), rows),
                        Capabilities::full(),
                        ProcessingProfile::indexed_db(),
                        j as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        )
    }

    /// The per-cell truth of the Figure 1 instance, as a cost model.
    fn accurate_model() -> TableCostModel {
        let mut model = TableCostModel::uniform(2, 3, 50.0, 1.0, 0.5, 1e9, 0.0, 8.0);
        // dui: R1 {J55, T80}, R2 {T21}, R3 {}.
        for (j, items) in [2.0, 1.0, 0.0].into_iter().enumerate() {
            model.set_est_sq_items(CondId(0), SourceId(j), items);
        }
        // sp: R1 {T21}, R2 {J55, T11}, R3 {T21, S07}.
        for (j, items) in [1.0, 2.0, 2.0].into_iter().enumerate() {
            model.set_est_sq_items(CondId(1), SourceId(j), items);
        }
        model
    }

    /// A model whose estimates are inflated ~500x: the optimizer locks
    /// in selections everywhere, but the observed round-0 cardinalities
    /// escape their believed intervals and semijoins win the re-search.
    fn misestimated_model() -> TableCostModel {
        TableCostModel::uniform(2, 3, 50.0, 1.0, 0.5, 1e9, 1000.0, 4000.0)
    }

    #[test]
    fn accurate_stats_are_byte_identical_to_reopt_off() {
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let model = accurate_model();
        let opt = sja_optimal(&model);
        let mut net_off = Network::uniform(3, LinkProfile::Wan.link());
        let off = execute_plan(&opt.plan, &q, &sources, &mut net_off).unwrap();
        let mut feedback = CardinalityFeedback::new(2, 3);
        let mut net_on = Network::uniform(3, LinkProfile::Wan.link());
        let (on_out, on) = reopt(
            &opt.spec,
            live_rule(&model, &mut feedback, &ReoptConfig::default()),
            (&q, &sources),
            &mut net_on,
            RunOptions::default(),
        )
        .unwrap();
        assert!(on.switches.is_empty(), "spurious switch: {:?}", on.switches);
        assert_eq!(on.violations, 0);
        assert_eq!(on_out.answer, off.answer);
        assert_eq!(on_out.ledger, off.ledger);
        assert_eq!(net_on.trace(), net_off.trace());
        // The store learned the true cardinalities.
        assert!(!feedback.is_empty());
        assert_eq!(
            feedback.observed(CondId(0), SourceId(2)),
            Some(CardObservation::Exact(0.0))
        );
    }

    #[test]
    fn misestimates_trigger_a_certified_switch_that_wins() {
        let q = dmv_query();
        let sources = skewed_sources();
        let model = misestimated_model();
        let opt = sja_optimal(&model);
        // Under the inflated estimates SJA locks in selections for
        // round 1 — semijoins look hopeless against a huge running set.
        assert!(opt.spec.choices[1]
            .iter()
            .all(|c| *c == SourceChoice::Selection));
        let mut net_locked = Network::uniform(3, LinkProfile::Wan.link());
        let locked = execute_plan(&opt.plan, &q, &sources, &mut net_locked).unwrap();
        let mut feedback = CardinalityFeedback::new(2, 3);
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let (ran, out) = reopt(
            &opt.spec,
            live_rule(&model, &mut feedback, &ReoptConfig::default()),
            (&q, &sources),
            &mut net,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(ran.answer, locked.answer);
        assert_eq!(out.switches.len(), 1, "violations={}", out.violations);
        let sw = &out.switches[0];
        assert_eq!(sw.rounds_done, 1);
        assert!(sw
            .suffix_choices
            .iter()
            .flatten()
            .all(|c| *c == SourceChoice::Semijoin));
        assert!(sw.new_suffix_cost < sw.old_suffix_cost);
        assert_eq!(sw.certificate.shared_prefix, sw.at_step);
        // The switched run beats the locked-in plan on executed cost.
        assert!(
            ran.total_cost() < locked.ledger.total(),
            "reopt {} >= locked {}",
            ran.total_cost(),
            locked.ledger.total()
        );
        assert_eq!(ran.ledger.count_kind(StepKind::Reopt), 1);
    }

    #[test]
    fn switched_runs_replay_bit_for_bit() {
        let q = dmv_query();
        let sources = skewed_sources();
        let model = misestimated_model();
        let opt = sja_optimal(&model);
        let mut feedback = CardinalityFeedback::new(2, 3);
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let (live_out, live) = reopt(
            &opt.spec,
            live_rule(&model, &mut feedback, &ReoptConfig::default()),
            (&q, &sources),
            &mut net,
            RunOptions::default(),
        )
        .unwrap();
        assert!(!live.switches.is_empty());
        let mut replay_net = Network::uniform(3, LinkProfile::Wan.link());
        let (replayed_out, replayed) = reopt(
            &opt.spec,
            ReoptRule::Replay(&live.switches),
            (&q, &sources),
            &mut replay_net,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(replayed_out.answer, live_out.answer);
        assert_eq!(replayed_out.ledger, live_out.ledger);
        assert_eq!(replayed.final_spec, live.final_spec);
        assert_eq!(replay_net.trace(), net.trace());
        // A tampered switch record fails validation instead of
        // executing: splicing a done condition back in is no longer a
        // permutation of the query's conditions.
        let done = opt.spec.order[0];
        let mut forged = live.switches.clone();
        forged[0].suffix_order = vec![done];
        let mut forged_net = Network::uniform(3, LinkProfile::Wan.link());
        let err = reopt(
            &opt.spec,
            ReoptRule::Replay(&forged),
            (&q, &sources),
            &mut forged_net,
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("permutation"), "{err}");
    }

    #[test]
    fn session_feedback_preplans_the_second_query() {
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let model = misestimated_model();
        let opt = sja_optimal(&model);
        let mut feedback = CardinalityFeedback::new(2, 3);
        let mut net1 = Network::uniform(3, LinkProfile::Wan.link());
        let (first_out, first) = reopt(
            &opt.spec,
            live_rule(&model, &mut feedback, &ReoptConfig::default()),
            (&q, &sources),
            &mut net1,
            RunOptions::default(),
        )
        .unwrap();
        assert!(!first.switches.is_empty());
        // Second run of the same query: plan directly under the
        // calibrated model — the fed-back optimum needs no mid-flight
        // switch at all.
        let fbm = FeedbackCostModel::new(&model, &feedback);
        let opt2 = sja_optimal(&fbm);
        let mut net2 = Network::uniform(3, LinkProfile::Wan.link());
        let (second_out, second) = reopt(
            &opt2.spec,
            live_rule(&model, &mut feedback, &ReoptConfig::default()),
            (&q, &sources),
            &mut net2,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(second_out.answer, first_out.answer);
        assert!(second.switches.is_empty(), "{:?}", second.switches);
        // The calibrated plan costs no more than the first, adapted run.
        assert!(second_out.total_cost() <= first_out.total_cost());
    }

    #[test]
    fn harvest_reconstructs_observations_from_the_ledger() {
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let model = accurate_model();
        let opt = sja_optimal(&model);
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let out = execute_plan(&opt.plan, &q, &sources, &mut net).unwrap();
        let obs = harvest_observations(&opt.plan, q.conditions(), &out.ledger);
        assert!(!obs.is_empty());
        for (cond, source, o) in &obs {
            match o {
                CardObservation::Exact(k) => {
                    // Exact observations match the true selection size.
                    let truth = figure1_relations()[source.0]
                        .select_items(cond)
                        .unwrap()
                        .items
                        .len() as f64;
                    assert_eq!(*k, truth);
                }
                CardObservation::Selectivity(s) => assert!((0.0..=1.0).contains(s)),
            }
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let model = accurate_model();
        let opt = sja_optimal(&model);
        // Feedback calibrated for a different shape.
        let mut feedback = CardinalityFeedback::new(3, 3);
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = reopt(
            &opt.spec,
            live_rule(&model, &mut feedback, &ReoptConfig::default()),
            (&q, &sources),
            &mut net,
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("feedback is calibrated"), "{err}");
        // A model priced for another query.
        let wide = TableCostModel::uniform(5, 3, 1.0, 1.0, 0.1, 1e9, 2.0, 10.0);
        let mut feedback = CardinalityFeedback::new(2, 3);
        let err = reopt(
            &opt.spec,
            live_rule(&wide, &mut feedback, &ReoptConfig::every_round()),
            (&q, &sources),
            &mut net,
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("reopt shapes disagree"), "{err}");
    }

    /// Runs `spec` sequentially, uncached and without retries, on a fresh
    /// uniform WAN with a fresh feedback store.
    fn run_fresh<M: CostModel>(
        spec: &SimplePlanSpec,
        q: &FusionQuery,
        sources: &SourceSet,
        model: &M,
        config: &ReoptConfig,
    ) -> (ExecutionOutcome, ReoptReport) {
        let mut feedback = CardinalityFeedback::new(q.m(), sources.len());
        let mut net = Network::uniform(sources.len(), LinkProfile::Wan.link());
        let (fb, n) = (&mut feedback, &mut net);
        reopt(
            spec,
            live_rule(model, fb, config),
            (q, sources),
            n,
            RunOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn empty_bindings_semijoin_costs_zero_and_estimator_agrees() {
        // Conditions that match nothing: round 1's selections leave an
        // empty running set, so round 2 — re-planned from it — semijoins
        // and ships nothing; the executor's no-op must cost zero, and the
        // static estimator must price the same shape identically.
        let sources = dmv_sources(Capabilities::full());
        let conds = ["nosuch-a", "nosuch-b"].map(|v| Predicate::eq("V", v).into());
        let q = FusionQuery::new(dmv_schema(), conds.to_vec()).unwrap();
        let model = fusion_core::NetworkCostModel::new(&sources, &crate::testkit::net(), &q, None);
        let spec = sja_optimal(&model).spec;
        let (ran, out) = run_fresh(&spec, &q, &sources, &model, &ReoptConfig::every_round());
        assert!(ran.answer.is_empty());
        assert_eq!(out.rounds[0].actual_size, 0);
        let round2 = &out.rounds[1];
        assert!(
            round2.choices.iter().all(|c| *c == SourceChoice::Semijoin),
            "{:?}",
            round2.choices
        );
        let remote: Vec<_> = (ran.ledger.entries().iter())
            .filter(|e| e.source.is_some())
            .collect();
        for entry in &remote[3..] {
            assert_eq!(entry.kind, StepKind::Semijoin);
            assert_eq!(entry.total(), Cost::ZERO, "entry {entry:?}");
        }
        // The estimator prices the same shape the same way: with the
        // running set estimated empty, every semijoin step is free.
        let mut est_model = TableCostModel::uniform(2, 3, 10.0, 1.0, 0.1, 1e9, 5.0, 1000.0);
        for i in 0..2 {
            for j in 0..3 {
                est_model.set_est_sq_items(CondId(i), SourceId(j), 0.0);
            }
        }
        let plan = out.final_spec.build(3).unwrap();
        let est = fusion_core::estimate_plan_cost(&plan, &est_model);
        for (step, cost) in plan.steps.iter().zip(&est.step_costs) {
            if matches!(step, Step::Sjq { .. }) {
                assert_eq!(*cost, Cost::ZERO, "estimator charges for the no-op");
            }
        }
        // Both sides agree: everything after round 1 is free.
        assert_eq!(est.cost, Cost::new(30.0)); // round 1's three selections only
    }

    #[test]
    fn running_set_drift_alone_replans_at_the_default_config() {
        // Five identical sources, each holding the same five licenses with
        // both violations. Every cell estimate is exact (5 items), but the
        // union chain assumes the sources independent and prices round 1
        // to leave ~25 — five times the 5 it leaves, beyond slack 4 — so
        // round 2 was committed to selections (a semijoin of 25 bindings
        // pays 101 > 50) that the observed set makes a bad deal.
        let s = dmv_schema();
        let rows: Vec<_> = (0..5)
            .flat_map(|k| {
                let l = format!("L{k}");
                [tuple![l.clone(), "dui", 1993i64], tuple![l, "sp", 1994i64]]
            })
            .collect();
        let sources = SourceSet::new(
            (0..5u64)
                .map(|j| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", j + 1),
                        Relation::from_rows(s.clone(), rows.clone()),
                        Capabilities::full(),
                        ProcessingProfile::indexed_db(),
                        j,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        );
        let model = TableCostModel::uniform(2, 5, 50.0, 1.0, 4.0, 1e9, 5.0, 1e6);
        let opt = sja_optimal(&model);
        assert!(opt.spec.choices[1]
            .iter()
            .all(|c| *c == SourceChoice::Selection));
        let (ran, out) = run_fresh(
            &opt.spec,
            &dmv_query(),
            &sources,
            &model,
            &ReoptConfig::default(),
        );
        // Every cell observation matched its estimate exactly ...
        for entry in ran.ledger.entries() {
            if entry.kind == StepKind::Selection {
                assert_eq!(entry.items_out, 5, "{entry:?}");
            }
        }
        // ... and the running set alone re-planned round 2, violating at
        // round 1's closing union (step #5).
        let x_hat = out.rounds[0].predicted_size;
        assert!(x_hat > 4.0 * 5.0, "{x_hat}");
        assert_eq!(out.rounds[0].actual_size, 5);
        assert_eq!(out.violations, 1);
        assert_eq!(out.switches.len(), 1, "{:?}", out.rounds);
        let sw = &out.switches[0];
        assert_eq!((sw.rounds_done, sw.violating_step, sw.observed), (1, 5, 5));
        assert_eq!(sw.expected, Interval::new(x_hat / 4.0, x_hat * 4.0));
        assert!(sw.suffix_choices[0]
            .iter()
            .all(|c| *c == SourceChoice::Semijoin));
        assert!(sw.new_suffix_cost < sw.old_suffix_cost);
        let licenses: Vec<String> = (0..5).map(|k| format!("L{k}")).collect();
        assert_eq!(ran.answer, ItemSet::from_items(licenses));
    }

    #[test]
    fn out_of_range_configs_are_rejected_not_panicked() {
        let q = dmv_query();
        let sources = dmv_sources(Capabilities::full());
        let model = accurate_model();
        let opt = sja_optimal(&model);
        let run = |slack: f64, min_gain: f64| {
            let mut feedback = CardinalityFeedback::new(2, 3);
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let config = ReoptConfig { slack, min_gain };
            let rule = live_rule(&model, &mut feedback, &config);
            reopt(
                &opt.spec,
                rule,
                (&q, &sources),
                &mut net,
                RunOptions::default(),
            )
        };
        for slack in [0.5, 0.0, -4.0, f64::NAN, f64::INFINITY] {
            let err = run(slack, 0.05).unwrap_err();
            assert!(err.to_string().contains("slack"), "slack {slack}: {err}");
        }
        for min_gain in [-0.1, 1.0, 2.0, f64::NAN, f64::NEG_INFINITY] {
            let err = run(4.0, min_gain).unwrap_err();
            assert!(
                err.to_string().contains("min_gain"),
                "min_gain {min_gain}: {err}"
            );
        }
        // The tightest legal corner: point trust regions, any gain.
        let ReoptConfig { slack, min_gain } = ReoptConfig::every_round();
        run(slack, min_gain).unwrap();
    }

    #[test]
    fn a_switch_between_two_drops_keeps_the_run_sound_and_replayable() {
        use crate::retry::Completeness;
        use fusion_net::FaultPlan;
        let q = dmv_query();
        let sources = skewed_sources();
        let model = misestimated_model();
        let opt = sja_optimal(&model);
        let policy = RetryPolicy::default();
        // Step #0's source: its dropped entry is the first a violation
        // scan meets.
        let dead = SourceId(0);
        let faulty = || {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            net.set_fault_plan(FaultPlan::none(3).with_outage(dead, 0));
            net
        };
        let mut feedback = CardinalityFeedback::new(2, 3);
        let mut net = faulty();
        let (live_out, live) = reopt(
            &opt.spec,
            live_rule(&model, &mut feedback, &ReoptConfig::default()),
            (&q, &sources),
            &mut net,
            RunOptions {
                retry: Some(&policy),
                ..RunOptions::default()
            },
        )
        .unwrap();
        // R1's round-0 selection is dropped, the live sources' round-0
        // observations force the switch to semijoins, and R1's spliced
        // semijoin is dropped against the *new* plan.
        assert_eq!(live.switches.len(), 1);
        let violating = &live_out.ledger.entries()[live.switches[0].violating_step];
        assert_ne!(violating.source, Some(dead));
        assert_eq!(
            live_out.completeness,
            Completeness::Subset {
                missing_sources: vec![dead],
                missing_conditions: vec![CondId(0), CondId(1)],
            }
        );
        for cond in [CondId(0), CondId(1)] {
            assert_eq!(feedback.observed(cond, dead), None);
        }
        // Each live source holds one entity with both violations.
        assert_eq!(live_out.answer, ItemSet::from_items(["D10", "D20"]));
        let mut replay_net = faulty();
        let (replayed_out, _) = reopt(
            &opt.spec,
            ReoptRule::Replay(&live.switches),
            (&q, &sources),
            &mut replay_net,
            RunOptions {
                retry: Some(&policy),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(replayed_out.answer, live_out.answer);
        assert_eq!(replayed_out.ledger, live_out.ledger);
        assert_eq!(replayed_out.completeness, live_out.completeness);
        assert_eq!(replay_net.trace(), net.trace());
    }
}
