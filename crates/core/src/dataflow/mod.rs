//! Static dataflow and cost-bound analysis over the step IR.
//!
//! Where [`analyze`](crate::analyze) proves *what* a plan computes, this
//! pass bounds *how much it can cost* and *which steps may run
//! concurrently* — the static side of the response-time future work the
//! paper names in its conclusion. For any plan it derives:
//!
//! * a **def-use graph** with per-step liveness (which steps can reach
//!   the result at all);
//! * a **happens-before DAG** and, on request, the plan's one *stage
//!   schedule* ([`stage_decomposition`]): wavefronts of steps touching
//!   disjoint sources and variables, each source's steps in plan order,
//!   machine-checked against the BDD analyzer's semantics and for
//!   interference-freedom ([`verify_stage_decomposition`]);
//! * sound per-step **cardinality intervals** `[lo, hi]`, seeded from
//!   source statistics ([`SourceBounds`]) and propagated through the
//!   `sq`/`sjq`/`∪`/`∩`/`−`/Bloom algebra;
//! * plan-level **cost intervals** and a critical-path **response-time
//!   lower bound**.
//!
//! # Interval algebra
//!
//! All sets a plan manipulates live in a universe of at most `domain`
//! merge items. Given sound seeds `[lo_ij, hi_ij] ∋ |sq(c_i, R_j)|`,
//! each step's output interval is:
//!
//! | step                | `lo`                          | `hi`              |
//! |---------------------|-------------------------------|-------------------|
//! | `sq` / local `sq`   | `lo_ij`                       | `hi_ij`           |
//! | `sjq(c,R,Y)`        | `max(0, lo_Y + lo_ij − domain)` | `min(hi_Y, hi_ij)` |
//! | `sjq(c,R,bloom(Y))` | same as `sjq`                 | `hi_ij`           |
//! | `∪`                 | `max_i lo_i`                  | `min(Σ hi_i, Σ_{j∈src(∪)} item̂_j, domain)` |
//! | `∩`                 | `max(0, Σ lo_i − (k−1)·domain)` | `min_i hi_i`    |
//! | `Y − Z`             | `max(0, lo_Y − hi_Z)`         | `hi_Y`            |
//!
//! Every rule is the tight inclusion–exclusion bound for arbitrary sets
//! in a `domain`-element universe, so soundness of the seeds implies
//! soundness everywhere (the `tests/dataflow_bounds.rs` battery checks
//! this against the reference interpreter on random worlds).
//!
//! The `∪` rule folds in an SPJU-style key constraint: the analysis
//! tracks, per variable, the *source support* — the set of sources
//! whose rows can contribute items (`sq`/`sjq`/Bloom results live at
//! one source; `∪` unions supports, `∩` keeps its smallest-mass input's
//! support, `−` keeps the left's). A union over variables all drawn
//! from sources `src(∪)` can never exceed `Σ_{j∈src(∪)} item̂_j`
//! distinct merge items, where `item̂_j` bounds source `j`'s distinct
//! items — often far below `Σ hi_i` when conditions overlap at a
//! source.
//!
//! Cost intervals follow from the §2.4 axioms: `sq`/`lq` costs are
//! model constants, and `sjq_cost` is monotone in the shipped-set size,
//! so `[sjq_cost(lo), sjq_cost(hi)]` brackets the true charge. A
//! semijoin whose input is provably empty is priced at zero on the low
//! side — matching the executor's empty-bindings no-op.

mod interference;
mod lint;
mod reopt;
mod sharing;

pub(crate) use interference::plan_footprints;
pub use interference::{
    cache_commit_race_findings, conflicting_footprint_findings, epoch_read_before_bump_findings,
    interference_report, Event, EventGraph, Footprint, Interference, Resource, Witness,
};
pub use lint::dataflow_lint_plan;
pub use reopt::{certify_switch, SwitchCertificate};
pub use sharing::{
    duplicate_inflight_findings, share_schedule, unshared_subsumed_findings,
    unsound_merge_findings, Prover, ShareStep,
};

use crate::analyze::analyze_plan;
use crate::cost::CostModel;
use crate::plan::{Plan, Step};
use fusion_stats::TableStats;
use fusion_types::error::{FusionError, Result};
use fusion_types::{CmpOp, CondId, Condition, Cost, ItemSet, Predicate, Relation, SourceId};

/// A closed interval `[lo, hi]` of set cardinalities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Interval {
    /// `[lo, hi]`, clamped so `lo <= hi` and both are non-negative.
    pub fn new(lo: f64, hi: f64) -> Interval {
        let hi = hi.max(0.0);
        Interval {
            lo: lo.clamp(0.0, hi),
            hi,
        }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Interval {
        Interval::new(x, x)
    }

    /// True when `x` lies inside (with a small tolerance for the float
    /// arithmetic of the propagation rules).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo - 1e-9 && x <= self.hi + 1e-9
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.0}, {:.0}]", self.lo, self.hi)
    }
}

/// A cost interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostInterval {
    /// Guaranteed (lower-bound) cost.
    pub lo: Cost,
    /// Worst-case (upper-bound) cost.
    pub hi: Cost,
}

impl CostInterval {
    /// The zero interval.
    pub(crate) const ZERO: CostInterval = CostInterval {
        lo: Cost::ZERO,
        hi: Cost::ZERO,
    };
}

impl std::fmt::Display for CostInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Sound seeds for the interval propagation: per-cell bounds on
/// `|sq(c_i, R_j)|`, per-source bounds on `|items(R_j)|`, and an upper
/// bound on the size of any set a plan over these sources can hold.
#[derive(Debug, Clone)]
pub struct SourceBounds {
    /// `sq[i][j]` bounds `|sq(c_i, R_j)|`.
    pub sq: Vec<Vec<Interval>>,
    /// `items[j]` bounds the distinct merge items of `R_j`.
    pub items: Vec<Interval>,
    /// Upper bound on any plan set: `|⋃_j items(R_j)| <= domain`.
    pub domain: f64,
}

impl SourceBounds {
    /// The loosest sound seeds a cost model justifies: every selection
    /// result lies in `[0, domain_size]`. Always sound relative to the
    /// model's domain assumption, never tight.
    pub fn from_model<M: CostModel>(model: &M) -> SourceBounds {
        let d = model.domain_size().max(0.0);
        let all = Interval::new(0.0, d);
        SourceBounds {
            sq: vec![vec![all; model.n_sources()]; model.n_conditions()],
            items: vec![all; model.n_sources()],
            domain: d,
        }
    }

    /// *Believed* seeds: a multiplicative trust region of width `slack`
    /// around the model's own estimates, `[est/slack, min(est·slack, d)]`
    /// per cell. Unlike every other seeding these are **not sound** — they
    /// encode how far the optimizer is willing to trust its estimates
    /// before an observation counts as evidence the plan was chosen on
    /// bad numbers. The runtime re-optimizer propagates them through
    /// [`analyze_dataflow`] and treats an observation *outside* its
    /// propagated interval as the trigger to re-search the remaining
    /// plan suffix.
    ///
    /// # Panics
    /// Panics if `slack < 1` (the region must contain the estimate).
    pub fn believed_from_model<M: CostModel>(model: &M, slack: f64) -> SourceBounds {
        assert!(slack >= 1.0, "trust-region slack must be >= 1, got {slack}");
        let d = model.domain_size().max(0.0);
        let sq = (0..model.n_conditions())
            .map(|i| {
                (0..model.n_sources())
                    .map(|j| {
                        let est = model.est_sq_items(CondId(i), SourceId(j)).max(0.0);
                        Interval::new(est / slack, (est * slack).min(d))
                    })
                    .collect()
            })
            .collect();
        SourceBounds {
            sq,
            items: vec![Interval::new(0.0, d); model.n_sources()],
            domain: d,
        }
    }

    /// Seeds derived from per-source [`TableStats`]: exact distinct-item
    /// counts cap every cell, exact MCV counts tighten point predicates,
    /// and exact histogram min/max prove range predicates empty when the
    /// queried range misses the observed one. Only *exact* statistics
    /// are used — estimates never tighten a bound — so the result is
    /// sound whenever the statistics describe the actual relations.
    pub fn from_stats(conditions: &[Condition], stats: &[TableStats]) -> SourceBounds {
        let items: Vec<Interval> = stats
            .iter()
            .map(|ts| Interval::point(ts.distinct_items as f64))
            .collect();
        let domain: f64 = stats.iter().map(|ts| ts.distinct_items as f64).sum();
        let sq = conditions
            .iter()
            .map(|c| {
                stats
                    .iter()
                    .map(|ts| pred_item_bound(&c.pred, ts))
                    .collect()
            })
            .collect();
        SourceBounds { sq, items, domain }
    }

    /// Exact seeds computed by running every selection against the real
    /// relations: each cell is a point interval. Used by the soundness
    /// battery and anywhere ground truth is available.
    ///
    /// # Errors
    /// Propagates predicate evaluation failures.
    pub fn exact_from_relations(
        conditions: &[Condition],
        relations: &[Relation],
    ) -> Result<SourceBounds> {
        let mut sq = Vec::with_capacity(conditions.len());
        for c in conditions {
            let mut row = Vec::with_capacity(relations.len());
            for r in relations {
                let res = r.select_items(c)?;
                row.push(Interval::point(res.items.len() as f64));
            }
            sq.push(row);
        }
        let items: Vec<Interval> = relations
            .iter()
            .map(|r| Interval::point(r.distinct_items().len() as f64))
            .collect();
        let mut all = ItemSet::empty();
        for r in relations {
            all = all.union(&r.distinct_items());
        }
        Ok(SourceBounds {
            sq,
            items,
            domain: all.len() as f64,
        })
    }
}

/// Bounds the number of distinct merge items `sq(pred, R)` returns,
/// using only exact statistics from `ts`.
fn pred_item_bound(pred: &Predicate, ts: &TableStats) -> Interval {
    let d = ts.distinct_items as f64;
    let rows = pred_row_bound(pred, ts);
    // `k` matching rows hold at most `min(k, d)` distinct items and,
    // when `k >= 1`, at least one.
    let lo = if rows.lo >= ts.rows as f64 - 0.5 {
        // Every row matches: the result carries every distinct item.
        d
    } else if rows.lo >= 1.0 {
        1.0
    } else {
        0.0
    };
    Interval::new(lo, rows.hi.min(d))
}

/// Bounds the number of *rows* of the relation matching `pred`, using
/// only exact statistics (MCV counts and histogram min/max are exact in
/// [`fusion_stats`]; everything estimated is ignored).
fn pred_row_bound(pred: &Predicate, ts: &TableStats) -> Interval {
    let rows = ts.rows as f64;
    let loose = Interval::new(0.0, rows);
    match pred {
        Predicate::Const(true) => Interval::point(rows),
        Predicate::Const(false) => Interval::point(0.0),
        Predicate::And(ps) => {
            if ps.is_empty() {
                return Interval::point(rows);
            }
            let hi = ps
                .iter()
                .map(|p| pred_row_bound(p, ts).hi)
                .fold(rows, f64::min);
            // Inclusion–exclusion low side: |∩| >= Σ lo_i − (k−1)·rows.
            let lo_sum: f64 = ps.iter().map(|p| pred_row_bound(p, ts).lo).sum();
            Interval::new(lo_sum - (ps.len() as f64 - 1.0) * rows, hi)
        }
        Predicate::Or(ps) => {
            if ps.is_empty() {
                return Interval::point(0.0);
            }
            let hi = ps
                .iter()
                .map(|p| pred_row_bound(p, ts).hi)
                .sum::<f64>()
                .min(rows);
            let lo = ps
                .iter()
                .map(|p| pred_row_bound(p, ts).lo)
                .fold(0.0, f64::max);
            Interval::new(lo, hi)
        }
        Predicate::Cmp {
            attr,
            op: CmpOp::Eq,
            value,
        } => {
            let Some(col) = ts.column(attr) else {
                return loose;
            };
            match col.mcv.iter().find(|(v, _)| v == value) {
                Some((_, c)) => Interval::point(*c as f64),
                None if col.distinct <= col.mcv.len() => {
                    // The MCV list covers every observed value.
                    Interval::point(0.0)
                }
                None => {
                    // Untracked values occur at most as often as the
                    // rarest tracked one.
                    let cap = col.mcv.last().map_or(rows, |(_, c)| *c as f64);
                    Interval::new(0.0, cap)
                }
            }
        }
        Predicate::Cmp { attr, op, value } => range_row_bound(attr, ts, pred_range(*op, value)),
        Predicate::Between { attr, lo, hi } => match (lo.as_f64(), hi.as_f64()) {
            (Some(l), Some(h)) => range_row_bound(attr, ts, Some((l, h))),
            _ => loose,
        },
        Predicate::InList { attr, values } => {
            let per: Vec<Interval> = values
                .iter()
                .map(|v| pred_row_bound(&Predicate::eq(attr.clone(), v.clone()), ts))
                .collect();
            let hi = per.iter().map(|b| b.hi).sum::<f64>().min(rows);
            let lo = per.iter().map(|b| b.lo).fold(0.0, f64::max);
            Interval::new(lo, hi)
        }
        _ => loose,
    }
}

/// The *closed* numeric range `[lo, hi]` a comparison accepts, if
/// representable. Strict comparisons exclude the boundary, so their
/// endpoint steps to the adjacent representable float — otherwise
/// `D < max` would wrongly count the rows sitting exactly at `max`.
fn pred_range(op: CmpOp, value: &fusion_types::Value) -> Option<(f64, f64)> {
    let v = value.as_f64()?;
    match op {
        CmpOp::Lt => Some((f64::NEG_INFINITY, v.next_down())),
        CmpOp::Le => Some((f64::NEG_INFINITY, v)),
        CmpOp::Gt => Some((v.next_up(), f64::INFINITY)),
        CmpOp::Ge => Some((v, f64::INFINITY)),
        CmpOp::Eq => Some((v, v)),
        CmpOp::Ne => None,
    }
}

/// Row bound for a numeric range predicate: the histogram's min/max are
/// exact, so a query range strictly outside `[min, max]` matches zero
/// rows, and a range covering it matches every non-null row.
fn range_row_bound(attr: &str, ts: &TableStats, range: Option<(f64, f64)>) -> Interval {
    let rows = ts.rows as f64;
    let loose = Interval::new(0.0, rows);
    let (Some(col), Some((qlo, qhi))) = (ts.column(attr), range) else {
        return loose;
    };
    let Some(h) = &col.histogram else {
        return loose;
    };
    if qhi < h.min() || qlo > h.max() {
        return Interval::point(0.0);
    }
    if qlo <= h.min() && qhi >= h.max() && col.nulls == 0 {
        return Interval::point(rows);
    }
    loose
}

/// The stage schedule of a plan: a partition of the step indices into
/// wavefronts such that, within a stage, no two steps touch the same
/// source or exchange data, and each source's steps sit in plan order
/// across stages. Stages execute sequentially; steps inside a stage are
/// free to run concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDecomposition {
    /// Step indices per stage, in ascending order inside each stage.
    pub stages: Vec<Vec<usize>>,
    /// Stage index of each step.
    pub stage_of: Vec<usize>,
}

impl StageDecomposition {
    /// The steps flattened stage by stage — a valid execution order.
    pub fn flattened_order(&self) -> Vec<usize> {
        self.stages.iter().flatten().copied().collect()
    }
}

/// The completed dataflow analysis of one plan.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// Step defining each item-set variable (indexed by `VarId`).
    pub def_of: Vec<Option<usize>>,
    /// Per-step data dependencies: indices of the steps whose outputs
    /// this step reads (variables read, plus the `lq` behind a local
    /// selection).
    pub deps: Vec<Vec<usize>>,
    /// Per-step liveness: does the step's output reach the result?
    pub live: Vec<bool>,
    /// Per-variable liveness: is the variable the result or read by a
    /// live step?
    pub live_vars: Vec<bool>,
    /// Cardinality interval of every item-set variable.
    pub var_bounds: Vec<Interval>,
    /// Cardinality interval of every step's output set (for `lq`, the
    /// loaded relation's distinct items).
    pub step_bounds: Vec<Interval>,
    /// Cost interval of every step (zero for local operations).
    pub step_costs: Vec<CostInterval>,
    /// Plan-level cost interval (sum over steps).
    pub total_cost: CostInterval,
    /// Critical-path response-time lower bound: no schedule respecting
    /// the dependency DAG and per-source serialization finishes the
    /// result sooner than this, even at guaranteed-minimum step costs.
    pub response_lb: f64,
    /// Per-step read/write footprints over the executors' shared state
    /// (see `step_footprint`).
    pub footprints: Vec<Footprint>,
}

/// Def-use structure: the defining step per variable and the data
/// dependencies per step.
pub(crate) fn dependencies(plan: &Plan) -> (Vec<Option<usize>>, Vec<Vec<usize>>) {
    let mut def_of: Vec<Option<usize>> = vec![None; plan.var_names.len()];
    let mut rel_def: Vec<Option<usize>> = vec![None; plan.rel_names.len()];
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(plan.steps.len());
    for (t, s) in plan.steps.iter().enumerate() {
        let mut d: Vec<usize> = s.used_vars().iter().filter_map(|v| def_of[v.0]).collect();
        if let Step::LocalSq { rel, .. } = s {
            if let Some(lq) = rel_def[rel.0] {
                d.push(lq);
            }
        }
        d.sort_unstable();
        d.dedup();
        deps.push(d);
        if let Some(v) = s.defined_var() {
            def_of[v.0] = Some(t);
        }
        if let Step::Lq { out, .. } = s {
            rel_def[out.0] = Some(t);
        }
    }
    (def_of, deps)
}

/// Liveness by a backward walk from the result: per step (does its
/// output reach the result?), per variable (is it the result or read by
/// a live step?) and per loaded relation (does it feed a live local
/// selection? — an `lq` step is live iff its relation is).
pub(crate) fn liveness(plan: &Plan, def_of: &[Option<usize>]) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    let mut live = vec![false; plan.steps.len()];
    let mut live_vars = vec![false; plan.var_names.len()];
    let mut live_rels = vec![false; plan.rel_names.len()];
    let mut stack = vec![plan.result];
    live_vars[plan.result.0] = true;
    while let Some(v) = stack.pop() {
        let Some(t) = def_of.get(v.0).copied().flatten() else {
            continue;
        };
        if live[t] {
            continue;
        }
        live[t] = true;
        for u in plan.steps[t].used_vars() {
            if !live_vars[u.0] {
                live_vars[u.0] = true;
                stack.push(u);
            }
        }
        if let Step::LocalSq { rel, .. } = &plan.steps[t] {
            live_rels[rel.0] = true;
        }
    }
    for (t, s) in plan.steps.iter().enumerate() {
        if let Step::Lq { out, .. } = s {
            live[t] = live_rels[out.0];
        }
    }
    (live, live_vars, live_rels)
}

/// The stage partition before it is certified: each step's stage is one
/// past the deepest stage among its data dependencies *and* its source's
/// previous step — autonomous sources answer one mediator request at a
/// time, so each source's steps must consume its fault-schedule slots in
/// plan order. The lints and [`interference_report`] read it as is: their
/// findings *are* the certificate's failures.
fn stage_levels(plan: &Plan) -> StageDecomposition {
    let (_, deps) = dependencies(plan);
    let mut stage_of = vec![0usize; plan.steps.len()];
    let mut last_of_source: Vec<Option<usize>> = vec![None; plan.n_sources];
    let mut stages: Vec<Vec<usize>> = Vec::new();
    for (t, step) in plan.steps.iter().enumerate() {
        let queued = step
            .source()
            .and_then(|src| last_of_source[src.0].replace(t));
        let s = deps[t]
            .iter()
            .chain(&queued)
            .map(|&d| stage_of[d] + 1)
            .max()
            .unwrap_or(0);
        stage_of[t] = s;
        if s == stages.len() {
            stages.push(Vec::new());
        }
        stages[s].push(t);
    }
    StageDecomposition { stages, stage_of }
}

/// Computes the plan's certified stage schedule — the one partition the
/// parallel executors run, `stage_schedule` prices and `\dataflow` /
/// `\check` show: the serial-queue levels of the dependency DAG, then
/// **checked**, not trusted ([`verify_stage_decomposition`]).
///
/// # Errors
/// Fails on structurally invalid plans, and on any certificate-check
/// failure (which would indicate a bug in this module, never silently).
pub fn stage_decomposition(plan: &Plan) -> Result<StageDecomposition> {
    plan.validate()?;
    let decomposition = stage_levels(plan);
    verify_stage_decomposition(plan, &decomposition.stages)?;
    Ok(decomposition)
}

/// The always-on (release-mode included) certificate check behind
/// [`stage_decomposition`], three checks on the one partition:
///
/// 1. structurally — the stages partition the steps, every data
///    dependency sits in a strictly earlier stage, and no stage queries a
///    source twice;
/// 2. semantically — replaying the steps stage by stage through the BDD
///    analyzer yields a result predicate *identical* to listing-order
///    interpretation, for any world;
/// 3. operationally — the certified event graph over the stages is
///    interference-free: no two unordered events with conflicting
///    footprints, cache events included.
///
/// # Errors
/// Fails with the violated invariant; interference failures carry the
/// witness schedule pair.
pub fn verify_stage_decomposition(plan: &Plan, stages: &[Vec<usize>]) -> Result<()> {
    let fail = |msg: String| {
        Err(FusionError::invalid_plan(format!(
            "serial-queue certificate: {msg}"
        )))
    };
    let (_, deps) = dependencies(plan);
    let mut stage_of = vec![usize::MAX; plan.steps.len()];
    for (s, steps) in stages.iter().enumerate() {
        for &t in steps {
            if t >= plan.steps.len() || stage_of[t] != usize::MAX {
                return fail(format!("step {t} missing, duplicated, or out of range"));
            }
            stage_of[t] = s;
        }
    }
    if stage_of.contains(&usize::MAX) {
        return fail("stages do not cover every step".into());
    }
    for (s, steps) in stages.iter().enumerate() {
        let mut sources: Vec<SourceId> = Vec::new();
        for &t in steps {
            for &dep in &deps[t] {
                if stage_of[dep] >= s {
                    return fail(format!(
                        "step {t} in stage {s} reads step {dep} of stage {}",
                        stage_of[dep]
                    ));
                }
            }
            if let Some(src) = plan.steps[t].source() {
                if sources.contains(&src) {
                    return fail(format!(
                        "stage {s} queries R{} twice — serial queues must keep stages \
                         source-disjoint",
                        src.0 + 1
                    ));
                }
                sources.push(src);
            }
        }
    }
    let mut analysis = analyze_plan(plan)?;
    let order: Vec<usize> = stages.iter().flatten().copied().collect();
    if analysis.result_with_step_order(plan, &order) != analysis.result_value() {
        return fail("stage-order replay changes the plan's semantics".into());
    }
    let graph = EventGraph::certified(plan, stages, true);
    if let Some(i) = graph.interferences().into_iter().next() {
        return fail(format!("interference: {i}"));
    }
    Ok(())
}

/// Runs the full dataflow analysis of `plan` under `model`, seeding the
/// cardinality intervals from `bounds`.
///
/// # Errors
/// Fails on structurally invalid plans and on dimension mismatches
/// between the plan and the seeds.
pub fn analyze_dataflow<M: CostModel>(
    plan: &Plan,
    model: &M,
    bounds: &SourceBounds,
) -> Result<Dataflow> {
    plan.validate()?;
    if bounds.sq.len() != plan.n_conditions
        || bounds.sq.iter().any(|row| row.len() != plan.n_sources)
        || bounds.items.len() != plan.n_sources
    {
        return Err(FusionError::invalid_plan(format!(
            "source bounds are {}x{} but the plan needs {}x{}",
            bounds.sq.len(),
            bounds.sq.first().map_or(0, Vec::len),
            plan.n_conditions,
            plan.n_sources
        )));
    }
    let (def_of, deps) = dependencies(plan);
    let (live, live_vars, _) = liveness(plan, &def_of);
    let domain = bounds.domain.max(0.0);

    // Cardinality interval propagation.
    let mut var_bounds = vec![Interval::point(0.0); plan.var_names.len()];
    let mut rel_bounds = vec![Interval::point(0.0); plan.rel_names.len()];
    let mut rel_source = vec![None; plan.rel_names.len()];
    let mut var_support: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); plan.var_names.len()];
    let mut step_bounds = Vec::with_capacity(plan.steps.len());
    let mut step_costs = Vec::with_capacity(plan.steps.len());
    let support_mass =
        |s: &std::collections::BTreeSet<usize>| s.iter().map(|&j| bounds.items[j].hi).sum::<f64>();
    for step in &plan.steps {
        // Source support: which sources can contribute items to the
        // step's output (the union key-constraint bound's input).
        let support: std::collections::BTreeSet<usize> = match step {
            Step::Sq { source, .. }
            | Step::Sjq { source, .. }
            | Step::SjqBloom { source, .. }
            | Step::Lq { source, .. } => [source.0].into_iter().collect(),
            Step::LocalSq { rel, .. } => rel_source[rel.0]
                .map(|s: SourceId| s.0)
                .into_iter()
                .collect(),
            Step::Union { inputs, .. } => inputs
                .iter()
                .flat_map(|v| var_support[v.0].iter().copied())
                .collect(),
            Step::Intersect { inputs, .. } => inputs
                .iter()
                .map(|v| &var_support[v.0])
                .min_by(|a, b| {
                    support_mass(a)
                        .partial_cmp(&support_mass(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .cloned()
                .unwrap_or_default(),
            Step::Diff { left, .. } => var_support[left.0].clone(),
        };
        let (out_bound, cost) = match step {
            Step::Sq { cond, source, .. } => (
                bounds.sq[cond.0][source.0],
                CostInterval {
                    lo: model.sq_cost(*cond, *source),
                    hi: model.sq_cost(*cond, *source),
                },
            ),
            Step::Sjq {
                cond,
                source,
                input,
                ..
            } => {
                let y = var_bounds[input.0];
                let cell = bounds.sq[cond.0][source.0];
                let b = Interval::new((y.lo + cell.lo - domain).max(0.0), y.hi.min(cell.hi));
                // The executor skips provably empty shipments outright,
                // so the guaranteed cost of an empty-input semijoin is
                // zero; otherwise monotonicity brackets the charge.
                let lo = if y.lo <= 0.0 {
                    Cost::ZERO
                } else {
                    model.sjq_cost(*cond, *source, y.lo)
                };
                (
                    b,
                    CostInterval {
                        lo,
                        hi: model.sjq_cost(*cond, *source, y.hi),
                    },
                )
            }
            Step::SjqBloom {
                cond,
                source,
                input,
                bits,
                ..
            } => {
                let y = var_bounds[input.0];
                let cell = bounds.sq[cond.0][source.0];
                // The raw Bloom result is a superset of the exact
                // semijoin but still a subset of the full selection.
                let b = Interval::new((y.lo + cell.lo - domain).max(0.0), cell.hi);
                (
                    b,
                    CostInterval {
                        lo: model.sjq_bloom_cost(*cond, *source, y.lo, *bits),
                        hi: model.sjq_bloom_cost(*cond, *source, y.hi, *bits),
                    },
                )
            }
            Step::Lq { out, source } => {
                rel_bounds[out.0] = bounds.items[source.0];
                rel_source[out.0] = Some(*source);
                (
                    bounds.items[source.0],
                    CostInterval {
                        lo: model.lq_cost(*source),
                        hi: model.lq_cost(*source),
                    },
                )
            }
            Step::LocalSq { cond, rel, .. } => {
                let j = rel_source[rel.0].expect("validated: loaded before use");
                (bounds.sq[cond.0][j.0], CostInterval::ZERO)
            }
            Step::Union { inputs, .. } => {
                let lo = inputs
                    .iter()
                    .map(|v| var_bounds[v.0].lo)
                    .fold(0.0, f64::max);
                // Key constraint: every item of the union lives at one
                // of the supporting sources, so their distinct-item
                // masses cap the result alongside Σ hi and the domain.
                let hi = inputs
                    .iter()
                    .map(|v| var_bounds[v.0].hi)
                    .sum::<f64>()
                    .min(support_mass(&support))
                    .min(domain);
                (Interval::new(lo, hi.max(lo)), CostInterval::ZERO)
            }
            Step::Intersect { inputs, .. } => {
                let k = inputs.len() as f64;
                let lo =
                    inputs.iter().map(|v| var_bounds[v.0].lo).sum::<f64>() - (k - 1.0) * domain;
                let hi = inputs
                    .iter()
                    .map(|v| var_bounds[v.0].hi)
                    .fold(f64::INFINITY, f64::min);
                (Interval::new(lo.max(0.0), hi), CostInterval::ZERO)
            }
            Step::Diff { left, right, .. } => {
                let l = var_bounds[left.0];
                let r = var_bounds[right.0];
                (
                    Interval::new((l.lo - r.hi).max(0.0), l.hi),
                    CostInterval::ZERO,
                )
            }
        };
        if let Some(out) = step.defined_var() {
            var_bounds[out.0] = out_bound;
            var_support[out.0] = support;
        }
        step_bounds.push(out_bound);
        step_costs.push(cost);
    }
    let total_cost = CostInterval {
        lo: step_costs.iter().map(|c| c.lo).sum(),
        hi: step_costs.iter().map(|c| c.hi).sum(),
    };
    let response_lb = response_lower_bound(plan, &def_of, &deps, &step_costs);
    let footprints = plan_footprints(plan);
    Ok(Dataflow {
        def_of,
        deps,
        live,
        live_vars,
        var_bounds,
        step_bounds,
        step_costs,
        total_cost,
        response_lb,
        footprints,
    })
}

/// Critical-path response-time lower bound: the result cannot appear
/// before (a) the longest dependency chain into its defining step at
/// guaranteed step costs, nor (b) any single source has served all of
/// the result's ancestors it is responsible for (sources are serial).
fn response_lower_bound(
    plan: &Plan,
    def_of: &[Option<usize>],
    deps: &[Vec<usize>],
    step_costs: &[CostInterval],
) -> f64 {
    let Some(result_step) = def_of.get(plan.result.0).copied().flatten() else {
        return 0.0;
    };
    // Longest lo-cost path ending at each step.
    let mut cp = vec![0.0f64; plan.steps.len()];
    for t in 0..plan.steps.len() {
        let into = deps[t].iter().map(|&d| cp[d]).fold(0.0, f64::max);
        cp[t] = into + step_costs[t].lo.value();
    }
    // Ancestors of the result step (inclusive).
    let mut anc = vec![false; plan.steps.len()];
    let mut stack = vec![result_step];
    while let Some(t) = stack.pop() {
        if anc[t] {
            continue;
        }
        anc[t] = true;
        stack.extend(deps[t].iter().copied());
    }
    let mut per_source = vec![0.0f64; plan.n_sources];
    for (t, step) in plan.steps.iter().enumerate() {
        if anc[t] {
            if let Some(src) = step.source() {
                per_source[src.0] += step_costs[t].lo.value();
            }
        }
    }
    per_source.into_iter().fold(cp[result_step], f64::max)
}

/// Admissible lower bound on the cost of completing a partial SJ/SJA
/// ordering: with `used` marking already-placed conditions and `placing`
/// the one being placed, every remaining condition must still pay, per
/// source, at least the cheaper of its selection cost and its semijoin
/// cost at `x_min` — the running-set size after *every* other remaining
/// condition has already shrunk it. By the §2.4 monotonicity axiom on
/// `sjq_cost` this never overestimates, so branch-and-bound pruning on
/// it preserves exactness ([`ordering_search`]).
///
/// [`ordering_search`]: crate::optimizer::ordering_search
pub(crate) fn remaining_cost_lower_bound<M: CostModel>(
    model: &M,
    used: &[bool],
    placing: usize,
    x_after: f64,
) -> Cost {
    let n = model.n_sources();
    // Walked twice rather than collected: this runs at every search node.
    let remaining = || (0..used.len()).filter(|&i| !used[i] && i != placing);
    let mut x_min = x_after;
    for u in remaining() {
        x_min *= model.gsel(fusion_types::CondId(u));
    }
    let mut lb = Cost::ZERO;
    for u in remaining() {
        let cond = fusion_types::CondId(u);
        for j in 0..n {
            let sq = model.sq_cost(cond, SourceId(j));
            let sjq = model.sjq_cost(cond, SourceId(j), x_min);
            lb += sq.min(sjq);
        }
    }
    lb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::evaluate::evaluate_plan_vars;
    use crate::optimizer::{filter_plan, sja_optimal};
    use crate::plan::{SimplePlanSpec, SourceChoice, VarId};
    use crate::postopt::build_with_difference;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, CondId, Value};

    /// True when `c` lies inside `i` (with float tolerance).
    fn cost_within(i: &CostInterval, c: Cost) -> bool {
        let tol = 1e-9 * i.hi.value().abs().max(1.0);
        c.value() >= i.lo.value() - tol && c.value() <= i.hi.value() + tol
    }

    fn model() -> TableCostModel {
        TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0)
    }

    fn sja_spec(m: usize, n: usize) -> SimplePlanSpec {
        SimplePlanSpec {
            order: (0..m).map(CondId).collect(),
            choices: (0..m)
                .map(|r| {
                    (0..n)
                        .map(|j| {
                            if r > 0 && (r + j) % 2 == 0 {
                                SourceChoice::Semijoin
                            } else {
                                SourceChoice::Selection
                            }
                        })
                        .collect()
                })
                .collect(),
        }
    }

    #[test]
    fn interval_arithmetic_clamps() {
        let i = Interval::new(5.0, 3.0);
        assert_eq!(i.lo, 3.0);
        assert!(Interval::new(-2.0, 4.0).lo == 0.0);
        assert!(Interval::point(7.0).contains(7.0));
        assert!(!Interval::point(7.0).contains(8.0));
        assert_eq!(Interval::new(1.0, 9.0).to_string(), "[1, 9]");
    }

    #[test]
    fn stage_decomposition_certifies_optimizer_plans() {
        let m = model();
        for opt in [filter_plan(&m), sja_optimal(&m)] {
            let d = stage_decomposition(&opt.plan).unwrap();
            // Every step appears exactly once.
            let mut all: Vec<usize> = d.flattened_order();
            all.sort_unstable();
            assert_eq!(all, (0..opt.plan.steps.len()).collect::<Vec<_>>());
            // A filter plan's remote steps split into per-source stages;
            // with 2 sources and free locals there must be >= 2 stages.
            assert!(d.stages.len() >= 2);
        }
    }

    #[test]
    fn filter_plan_first_wave_is_fully_parallel() {
        // m=2, n=3: the 6 selections have no dependencies; the serial
        // queues split them into exactly 2 source-disjoint waves of 3
        // (a stage may also hold free local steps: `X1 := ∪` rides with
        // the second wave).
        let m = TableCostModel::uniform(2, 3, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        let plan = filter_plan(&m).plan;
        let d = stage_decomposition(&plan).unwrap();
        let remote_waves: Vec<Vec<SourceId>> = d
            .stages
            .iter()
            .map(|s| s.iter().filter_map(|&t| plan.steps[t].source()).collect())
            .filter(|sources: &Vec<SourceId>| !sources.is_empty())
            .collect();
        assert_eq!(remote_waves.len(), 2);
        for mut sources in remote_waves {
            assert_eq!(sources.len(), 3);
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), 3, "sources not disjoint");
        }
    }

    #[test]
    fn stage_verification_rejects_bad_decompositions() {
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let good = stage_decomposition(&plan).unwrap();
        // Merge everything into one stage: source conflicts + same-stage
        // reads must be caught.
        let bad = vec![(0..plan.steps.len()).collect::<Vec<usize>>()];
        assert!(verify_stage_decomposition(&plan, &bad).is_err());
        // Dropping a step breaks the partition.
        let mut partial = good.clone();
        partial.stages[0].clear();
        assert!(verify_stage_decomposition(&plan, &partial.stages).is_err());
        assert!(verify_stage_decomposition(&plan, &good.stages).is_ok());
    }

    #[test]
    fn exact_bounds_make_point_intervals_on_filter_plans() {
        let s = dmv_schema();
        let relations = vec![
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["J55", "dui", 1993i64],
                    tuple!["T21", "sp", 1994i64],
                    tuple!["T80", "dui", 1993i64],
                ],
            ),
            Relation::from_rows(
                s,
                vec![tuple!["T21", "dui", 1996i64], tuple!["J55", "sp", 1996i64]],
            ),
        ];
        let conditions: Vec<Condition> = vec![
            fusion_types::Predicate::eq("V", "dui").into(),
            fusion_types::Predicate::eq("V", "sp").into(),
        ];
        let bounds = SourceBounds::exact_from_relations(&conditions, &relations).unwrap();
        let m = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 100.0, 5.0, bounds.domain);
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let df = analyze_dataflow(&plan, &m, &bounds).unwrap();
        let vars = evaluate_plan_vars(&plan, &conditions, &relations).unwrap();
        for (v, b) in df.var_bounds.iter().enumerate() {
            if let Some(set) = &vars[v] {
                assert!(
                    b.contains(set.len() as f64),
                    "var {v}: |{}| = {} outside {b}",
                    plan.var_name(VarId(v)),
                    set.len()
                );
            }
        }
    }

    #[test]
    fn intervals_stay_sound_through_difference_and_semijoins() {
        let s = dmv_schema();
        let relations = vec![
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["A1", "dui", 1990i64],
                    tuple!["A2", "dui", 1991i64],
                    tuple!["A3", "sp", 1992i64],
                ],
            ),
            Relation::from_rows(
                s,
                vec![tuple!["A1", "sp", 1993i64], tuple!["A4", "sp", 1994i64]],
            ),
        ];
        let conditions: Vec<Condition> = vec![
            fusion_types::Predicate::eq("V", "dui").into(),
            fusion_types::Predicate::eq("V", "sp").into(),
        ];
        let bounds = SourceBounds::exact_from_relations(&conditions, &relations).unwrap();
        let plan = build_with_difference(&sja_spec(2, 2), 2);
        let m = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 100.0, 5.0, bounds.domain);
        let df = analyze_dataflow(&plan, &m, &bounds).unwrap();
        let vars = evaluate_plan_vars(&plan, &conditions, &relations).unwrap();
        for (v, b) in df.var_bounds.iter().enumerate() {
            if let Some(set) = &vars[v] {
                assert!(b.contains(set.len() as f64), "var {v} outside {b}");
            }
        }
    }

    #[test]
    fn cost_interval_brackets_the_estimate() {
        let m = model();
        let opt = sja_optimal(&m);
        let bounds = SourceBounds::from_model(&m);
        let df = analyze_dataflow(&opt.plan, &m, &bounds).unwrap();
        let est = crate::estimate::estimate_plan_cost(&opt.plan, &m);
        assert!(
            cost_within(&df.total_cost, est.cost),
            "estimate {} outside {}",
            est.cost,
            df.total_cost
        );
        assert!(df.total_cost.lo <= df.total_cost.hi);
        // The response lower bound never exceeds guaranteed total work.
        assert!(df.response_lb <= df.total_cost.lo.value() + 1e-9);
    }

    #[test]
    fn liveness_flags_dead_steps_and_variables() {
        let mut plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let dead = plan.fresh_var("DEAD");
        plan.steps.push(Step::Sq {
            out: dead,
            cond: CondId(0),
            source: SourceId(0),
        });
        let m = TableCostModel::uniform(2, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
        let df = analyze_dataflow(&plan, &m, &SourceBounds::from_model(&m)).unwrap();
        assert!(!df.live[plan.steps.len() - 1]);
        assert!(!df.live_vars[dead.0]);
        assert!(df.live_vars[plan.result.0]);
        assert!(df.live[..plan.steps.len() - 1].iter().all(|&l| l));
    }

    #[test]
    fn stats_seeds_are_sound_and_tighter_than_model_seeds() {
        let s = dmv_schema();
        let rel = Relation::from_rows(
            s,
            (0..100)
                .map(|i| {
                    tuple![
                        format!("L{i}"),
                        if i % 4 == 0 { "dui" } else { "sp" },
                        1990 + (i % 10)
                    ]
                })
                .collect(),
        );
        let stats = vec![TableStats::build(&rel, 7)];
        let conditions: Vec<Condition> = vec![
            fusion_types::Predicate::eq("V", "dui").into(),
            fusion_types::Predicate::cmp("D", CmpOp::Gt, 2050i64).into(),
            fusion_types::Predicate::Const(true).into(),
            fusion_types::Predicate::Between {
                attr: "D".into(),
                lo: Value::Int(0),
                hi: Value::Int(3000),
            }
            .into(),
        ];
        let b = SourceBounds::from_stats(&conditions, &stats);
        // Exact truths per condition.
        let truths: Vec<usize> = conditions
            .iter()
            .map(|c| rel.select_items(c).unwrap().items.len())
            .collect();
        for (i, t) in truths.iter().enumerate() {
            assert!(
                b.sq[i][0].contains(*t as f64),
                "c{i}: truth {t} outside {}",
                b.sq[i][0]
            );
        }
        // The disjoint range is proved empty; the covering range and the
        // trivially-true condition are proved full.
        assert_eq!(b.sq[1][0], Interval::point(0.0));
        assert_eq!(b.sq[2][0], Interval::point(100.0));
        assert_eq!(b.sq[3][0], Interval::point(100.0));
        // The MCV bound caps the equality tighter than the domain.
        assert!(b.sq[0][0].hi <= 25.0 + 1e-9);
    }

    #[test]
    fn mismatched_bounds_are_rejected() {
        let m = model();
        let plan = filter_plan(&m).plan;
        let mut b = SourceBounds::from_model(&m);
        b.sq.pop();
        assert!(analyze_dataflow(&plan, &m, &b).is_err());
    }

    #[test]
    fn remaining_bound_matches_inline_pricing() {
        // The admissible bound must never exceed the true remaining cost
        // of the optimal completion (checked indirectly: bnb equals the
        // exhaustive optimum — see optimizer::bnb tests); here, sanity:
        // with nothing remaining it is zero.
        let m = model();
        let used = vec![true, true, false];
        assert_eq!(remaining_cost_lower_bound(&m, &used, 2, 10.0), Cost::ZERO);
        let none_used = vec![false, false, false];
        assert!(remaining_cost_lower_bound(&m, &none_used, 0, 10.0) > Cost::ZERO);
    }
}
