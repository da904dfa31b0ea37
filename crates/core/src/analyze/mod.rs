//! Semantic plan analysis: a machine-checked proof that a plan computes
//! the fusion query.
//!
//! Every optimizer in this crate emits a step-list plan that is supposed
//! to compute `⋂_i ⋃_j sq(c_i, R_j)` — the fusion answer of §2.2. The
//! structural validator (`Plan::validate`) catches malformed listings,
//! but nothing stopped a *well-formed* plan from computing the wrong
//! set. This module closes that gap with an abstract interpreter over
//! the step IR.
//!
//! # The abstract domain
//!
//! Fix one hypothetical item `x`. Its fate under a plan is fully
//! determined by finitely many independent Boolean atoms:
//!
//! * `r_j`  — `x` appears in source relation `R_j`;
//! * `p_ij` — `x` satisfies condition `c_i` *as recorded at* `R_j`
//!   (kept per-source: the paper's sources are autonomous and may
//!   disagree about attribute values, and `sq(c_i, R_j) ⊆ R_j` is
//!   encoded by construction as `p_ij ∧ r_j`);
//! * `β_t`  — the Bloom filter shipped at step `t` collides on `x`
//!   (fresh per Bloom step; a collision admits `x` into the raw result
//!   even though `x` is absent from the semijoin input).
//!
//! Each item-set variable is interpreted as a Boolean function over
//! these atoms — its *membership predicate* — represented canonically
//! as a hash-consed ROBDD (`bdd.rs`). The transfer function mirrors §2.1/§4
//! exactly:
//!
//! | step                | membership predicate            |
//! |---------------------|---------------------------------|
//! | `sq(c_i, R_j)`      | `p_ij ∧ r_j`                    |
//! | `sjq(c_i, R_j, Y)`  | `p_ij ∧ r_j ∧ Y`                |
//! | `sjq(…, bloom(Y))`  | `p_ij ∧ r_j ∧ (Y ∨ β_t)`        |
//! | `lq(R_j)`           | `r_j` (for the loaded `T`)      |
//! | `sq(c_i, T_j)`      | `p_ij ∧ r_j`                    |
//! | `∪`, `∩`, `−`       | `∨`, `∧`, `∧¬`                  |
//!
//! A plan is **proved** when its result variable's predicate is
//! *identical* (same ROBDD node) to the fusion-query predicate
//! `⋀_i ⋁_j (p_ij ∧ r_j)` — identity of canonical forms is equality of
//! the computed sets in **every** possible world. Otherwise the plan is
//! **refuted**, and a satisfying path through the XOR of the two
//! predicates is decoded into a [`Counterexample`]: a concrete world
//! sketch plus the membership of `x` after every step.
//!
//! Difference pruning (`X − Y`), source loading (`lq` + local
//! selection), and Bloom steps (supersets requiring re-intersection)
//! all fall out of the same transfer function; no special cases.

pub(crate) mod bdd;
mod lint;
mod memo;
mod subsume;

pub(crate) use lint::{
    bloom_not_reintersected_findings, dead_step_findings, duplicate_query_findings,
    loaded_unused_findings, merge_sorted, superset_semijoin_input_findings,
};
pub use lint::{Diagnostic, Severity};
pub(crate) use memo::Table;
pub use memo::{ensure_sound, MemoStats, Memos, ProofMemoStats, PROOF_MEMO_CAPACITY};
pub use subsume::{CONTAINMENT_MEMO_PREDICATES, CONTAINMENT_MEMO_VERDICTS};

use crate::plan::{Plan, Step, VarId};
use bdd::{BVar, BddManager, NodeId, FALSE};
use fusion_types::error::{FusionError, Result};

/// Maps plan atoms to BDD variables.
///
/// World variables are ordered source-major (`r_j` directly above the
/// `p_ij` of the same source) so that the per-source conjunct
/// `p_ij ∧ r_j` stays local in the diagram; Bloom collision variables
/// sit below all world variables.
#[derive(Debug, Clone)]
struct AtomMap {
    m: usize,
    /// BDD variable index of each plan step's Bloom collision atom
    /// (indexed by step, `None` for non-Bloom steps).
    bloom: Vec<Option<BVar>>,
}

impl AtomMap {
    fn new(plan: &Plan, mgr: &mut BddManager) -> AtomMap {
        // World variables first: for j in 0..n, r_j then p_0j..p_{m-1}j.
        for _ in 0..plan.n_sources * (plan.n_conditions + 1) {
            mgr.fresh_var();
        }
        let bloom = plan
            .steps
            .iter()
            .map(|s| matches!(s, Step::SjqBloom { .. }).then(|| mgr.fresh_var()))
            .collect();
        AtomMap {
            m: plan.n_conditions,
            bloom,
        }
    }

    /// The atom `r_j`.
    fn r(&self, j: usize) -> BVar {
        BVar((j * (self.m + 1)) as u32)
    }

    /// The atom `p_ij`.
    fn p(&self, i: usize, j: usize) -> BVar {
        BVar((j * (self.m + 1) + 1 + i) as u32)
    }
}

/// The membership of one hypothetical item after one step, under the
/// counterexample world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepMembership {
    /// 1-based step number.
    pub step: usize,
    /// The step as rendered in the plan listing.
    pub rendering: String,
    /// Whether the item is in the step's output set in this world.
    pub member: bool,
}

/// A concrete refutation of a plan: a possible world (for one
/// hypothetical item) in which the plan's result disagrees with the
/// fusion answer, plus the item's membership after every step.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// `r_j` per source: does the item appear in `R_j`?
    pub in_source: Vec<bool>,
    /// `p_ij` per condition and source: does the item satisfy `c_i` as
    /// recorded at `R_j`? (Indexed `[i][j]`.)
    pub satisfies: Vec<Vec<bool>>,
    /// 1-based numbers of Bloom steps whose filter collides on the item.
    pub bloom_collisions: Vec<usize>,
    /// Is the item in the plan's result set?
    pub in_result: bool,
    /// Is the item in the true fusion answer `⋂_i ⋃_j sq(c_i, R_j)`?
    pub in_answer: bool,
    /// Membership of the item after every step, in execution order.
    pub trace: Vec<StepMembership>,
}

impl Counterexample {
    /// The 1-based number of the step that defines the plan's result
    /// variable — where the wrong value materializes.
    pub fn result_step(&self) -> usize {
        self.trace.last().map_or(0, |t| t.step)
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let srcs: Vec<String> = self
            .in_source
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(j, _)| format!("R{}", j + 1))
            .collect();
        writeln!(
            f,
            "counterexample world for an item x: x ∈ {{{}}}",
            srcs.join(", ")
        )?;
        for (i, row) in self.satisfies.iter().enumerate() {
            let at: Vec<String> = row
                .iter()
                .enumerate()
                .filter(|(j, &b)| b && self.in_source[*j])
                .map(|(j, _)| format!("R{}", j + 1))
                .collect();
            writeln!(
                f,
                "  c{} holds for x at: {}",
                i + 1,
                if at.is_empty() {
                    "no source".to_string()
                } else {
                    at.join(", ")
                }
            )?;
        }
        if !self.bloom_collisions.is_empty() {
            let at: Vec<String> = self
                .bloom_collisions
                .iter()
                .map(|s| format!("step {s}"))
                .collect();
            writeln!(f, "  Bloom filters colliding on x: {}", at.join(", "))?;
        }
        writeln!(
            f,
            "  fusion answer contains x: {}; plan result contains x: {}",
            if self.in_answer { "yes" } else { "NO" },
            if self.in_result { "yes" } else { "NO" },
        )?;
        writeln!(f, "  step trace:")?;
        for t in &self.trace {
            writeln!(
                f,
                "    {:>3}) {:<40} {}",
                t.step,
                t.rendering,
                if t.member { "x ∈ out" } else { "x ∉ out" }
            )?;
        }
        Ok(())
    }
}

/// The outcome of semantic analysis.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The plan computes `⋂_i ⋃_j sq(c_i, R_j)` in every possible world.
    Proved,
    /// The plan computes something else; here is a world showing it.
    Refuted(Box<Counterexample>),
}

impl Verdict {
    /// True when the plan is proved equivalent to the fusion query.
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }
}

/// A completed semantic analysis of one plan: the abstract value of
/// every variable, the fusion-query target, and the verdict.
#[derive(Debug)]
pub struct Analysis {
    mgr: BddManager,
    atoms: AtomMap,
    /// Membership predicate per item-set variable (`FALSE` placeholder
    /// for variables the plan never defines).
    values: Vec<NodeId>,
    /// The source loaded into each relation variable.
    rel_source: Vec<Option<usize>>,
    /// The fusion-query predicate `⋀_i ⋁_j (p_ij ∧ r_j)`.
    target: NodeId,
    /// The result variable's predicate.
    result_value: NodeId,
    verdict: Verdict,
}

/// Analyzes a plan, proving or refuting that it computes the fusion
/// query.
///
/// # Errors
/// Propagates structural validation failure ([`Plan::validate`]); a
/// structurally broken listing has no semantics to analyze.
pub fn analyze_plan(plan: &Plan) -> Result<Analysis> {
    plan.validate()?;
    Ok(analyze_validated(plan))
}

/// [`analyze_plan`] for a plan the caller has already validated.
fn analyze_validated(plan: &Plan) -> Analysis {
    let mut mgr = BddManager::new();
    let atoms = AtomMap::new(plan, &mut mgr);
    let (values, rel_source) = interpret(plan, &mut mgr, &atoms, None, &[], None);
    let target = fusion_target(plan, &mut mgr, &atoms);
    let result_value = values[plan.result.0];
    let verdict = decide(plan, &mut mgr, &atoms, &values, result_value, target);
    Analysis {
        mgr,
        atoms,
        values,
        rel_source,
        target,
        result_value,
        verdict,
    }
}

/// Runs the transfer function over the step list. With
/// `substitute = Some((t, z))`, step `t`'s semijoin input is replaced by
/// variable `z` (used by the superset-input lint to test whether a
/// smaller set provably suffices). Steps listed in `dropped` are modeled
/// as producing the empty set (`FALSE`), which is exactly what the
/// fault-tolerant executor substitutes when a source dies: a dropped `lq`
/// leaves an empty loaded relation, so local selections over it are empty
/// too. With `order = Some(o)`, the steps are interpreted in that order
/// instead of listing order (the dataflow stage certificate uses this to
/// prove a reordering semantics-preserving); Bloom collision atoms stay
/// keyed by *original* step index, so reorderings compare like for like.
fn interpret(
    plan: &Plan,
    mgr: &mut BddManager,
    atoms: &AtomMap,
    substitute: Option<(usize, VarId)>,
    dropped: &[usize],
    order: Option<&[usize]>,
) -> (Vec<NodeId>, Vec<Option<usize>>) {
    let mut values = vec![FALSE; plan.var_names.len()];
    let mut rel_source = vec![None; plan.rel_names.len()];
    let mut rel_dropped = vec![false; plan.rel_names.len()];
    let listing_order: Vec<usize>;
    let indices: &[usize] = match order {
        Some(o) => o,
        None => {
            listing_order = (0..plan.steps.len()).collect();
            &listing_order
        }
    };
    for &t in indices {
        let step = &plan.steps[t];
        if dropped.contains(&t) {
            match step {
                Step::Lq { out, .. } => rel_dropped[out.0] = true,
                _ => {
                    let out = step.defined_var().expect("non-Lq steps define a var");
                    values[out.0] = FALSE;
                }
            }
            continue;
        }
        if let Step::LocalSq { out, rel, .. } = step {
            if rel_dropped[rel.0] {
                values[out.0] = FALSE;
                continue;
            }
        }
        let input_of = |v: VarId| match substitute {
            Some((at, z)) if at == t => z,
            _ => v,
        };
        match step {
            Step::Sq { out, cond, source } => {
                let p = atoms.p(cond.0, source.0);
                let r = atoms.r(source.0);
                let pv = mgr.var(p);
                let rv = mgr.var(r);
                values[out.0] = mgr.and(pv, rv);
            }
            Step::Sjq {
                out,
                cond,
                source,
                input,
            } => {
                let p = atoms.p(cond.0, source.0);
                let r = atoms.r(source.0);
                let pv = mgr.var(p);
                let rv = mgr.var(r);
                let sq = mgr.and(pv, rv);
                let inp = values[input_of(*input).0];
                values[out.0] = mgr.and(sq, inp);
            }
            Step::SjqBloom {
                out,
                cond,
                source,
                input,
                ..
            } => {
                let p = atoms.p(cond.0, source.0);
                let r = atoms.r(source.0);
                let pv = mgr.var(p);
                let rv = mgr.var(r);
                let sq = mgr.and(pv, rv);
                let inp = values[input_of(*input).0];
                let beta = atoms.bloom[t].expect("Bloom step has a collision atom");
                let bv = mgr.var(beta);
                let loose = mgr.or(inp, bv);
                values[out.0] = mgr.and(sq, loose);
            }
            Step::Lq { out, source } => {
                rel_source[out.0] = Some(source.0);
            }
            Step::LocalSq { out, cond, rel } => {
                let j = rel_source[rel.0].expect("validated plan loads before use");
                let p = atoms.p(cond.0, j);
                let r = atoms.r(j);
                let pv = mgr.var(p);
                let rv = mgr.var(r);
                values[out.0] = mgr.and(pv, rv);
            }
            Step::Union { out, inputs } => {
                let mut acc = FALSE;
                for v in inputs {
                    let f = values[input_of(*v).0];
                    acc = mgr.or(acc, f);
                }
                values[out.0] = acc;
            }
            Step::Intersect { out, inputs } => {
                let mut acc = bdd::TRUE;
                for v in inputs {
                    let f = values[input_of(*v).0];
                    acc = mgr.and(acc, f);
                }
                values[out.0] = acc;
            }
            Step::Diff { out, left, right } => {
                let l = values[input_of(*left).0];
                let r = values[input_of(*right).0];
                values[out.0] = mgr.diff(l, r);
            }
        }
    }
    (values, rel_source)
}

/// The fusion-query predicate `⋀_i ⋁_j (p_ij ∧ r_j)`.
fn fusion_target(plan: &Plan, mgr: &mut BddManager, atoms: &AtomMap) -> NodeId {
    let mut conj = bdd::TRUE;
    for i in 0..plan.n_conditions {
        let mut disj = FALSE;
        for j in 0..plan.n_sources {
            let pv = mgr.var(atoms.p(i, j));
            let rv = mgr.var(atoms.r(j));
            let sq = mgr.and(pv, rv);
            disj = mgr.or(disj, sq);
        }
        conj = mgr.and(conj, disj);
    }
    conj
}

fn decide(
    plan: &Plan,
    mgr: &mut BddManager,
    atoms: &AtomMap,
    values: &[NodeId],
    result_value: NodeId,
    target: NodeId,
) -> Verdict {
    if result_value == target {
        return Verdict::Proved;
    }
    let delta = mgr.xor(result_value, target);
    let witness = mgr
        .sat_one(delta)
        .expect("distinct canonical forms differ somewhere");
    // Complete the partial path assignment with `false` for don't-cares.
    let mut assignment = vec![false; mgr.n_vars() as usize];
    for (v, b) in witness {
        assignment[v.0 as usize] = b;
    }
    let in_source: Vec<bool> = (0..plan.n_sources)
        .map(|j| assignment[atoms.r(j).0 as usize])
        .collect();
    let satisfies: Vec<Vec<bool>> = (0..plan.n_conditions)
        .map(|i| {
            (0..plan.n_sources)
                .map(|j| assignment[atoms.p(i, j).0 as usize])
                .collect()
        })
        .collect();
    let bloom_collisions: Vec<usize> = atoms
        .bloom
        .iter()
        .enumerate()
        .filter_map(|(t, v)| v.filter(|v| assignment[v.0 as usize]).map(|_| t + 1))
        .collect();
    let listing = plan.listing();
    let lines: Vec<&str> = listing.lines().collect();
    let trace: Vec<StepMembership> = plan
        .steps
        .iter()
        .enumerate()
        .map(|(t, step)| {
            let member = match step {
                Step::Lq { source, .. } => in_source[source.0],
                _ => {
                    let out = step.defined_var().expect("non-Lq steps define a var");
                    mgr.eval(values[out.0], &assignment)
                }
            };
            // The listing already numbers each line (`3) X := ...`);
            // strip that so Display's own step numbers don't repeat it.
            let line = lines.get(t).copied().unwrap_or("");
            let rendering = line
                .split_once(") ")
                .filter(|(num, _)| num.chars().all(|c| c.is_ascii_digit()))
                .map_or(line, |(_, rest)| rest)
                .to_string();
            StepMembership {
                step: t + 1,
                rendering,
                member,
            }
        })
        .collect();
    Verdict::Refuted(Box::new(Counterexample {
        in_source,
        satisfies,
        bloom_collisions,
        in_result: mgr.eval(result_value, &assignment),
        in_answer: mgr.eval(target, &assignment),
        trace,
    }))
}

impl Analysis {
    /// The verdict: proved equivalent to the fusion query, or refuted.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// `Ok` for a proved plan; for a refuted one, the executors' refusal
    /// with the counterexample rendered into it.
    ///
    /// # Errors
    /// [`FusionError::InvalidPlan`] when the verdict is `Refuted`.
    pub fn require_proved(&self) -> Result<()> {
        match &self.verdict {
            Verdict::Proved => Ok(()),
            Verdict::Refuted(cx) => Err(FusionError::invalid_plan(format!(
                "refusing to execute a semantically unsound plan: it does not \
                 compute the fusion query.\n{cx}"
            ))),
        }
    }

    /// The membership predicate of a variable (`None` for out-of-range
    /// ids; variables the plan never assigns read as the empty set).
    pub(crate) fn value(&self, v: VarId) -> Option<NodeId> {
        self.values.get(v.0).copied()
    }

    /// The source a relation variable was loaded from, if any.
    pub(crate) fn loaded_source(&self, rel: crate::plan::RelVar) -> Option<usize> {
        self.rel_source.get(rel.0).copied().flatten()
    }

    /// True when `a`'s set is contained in `b`'s in every world.
    pub(crate) fn is_subset(&mut self, a: NodeId, b: NodeId) -> bool {
        self.mgr.implies(a, b)
    }

    /// True when the result still depends on the Bloom collision atom of
    /// step `t` (0-based) — i.e. a filter false positive can leak into
    /// the answer because the raw superset was never re-intersected.
    pub(crate) fn result_tainted_by_bloom(&self, t: usize) -> bool {
        match self.atoms.bloom.get(t).copied().flatten() {
            Some(beta) => self.mgr.support(self.result_value).contains(&beta),
            None => false,
        }
    }

    /// Re-interprets the plan with step `t`'s semijoin input replaced by
    /// `z`, returning the new result predicate. Hash-consing makes this
    /// cheap: unchanged prefixes reuse existing nodes.
    pub(crate) fn result_with_semijoin_input(&mut self, plan: &Plan, t: usize, z: VarId) -> NodeId {
        let (values, _) = interpret(plan, &mut self.mgr, &self.atoms, Some((t, z)), &[], None);
        values[plan.result.0]
    }

    /// Re-interprets the plan with its steps executed in `order` (a
    /// permutation of step indices) and returns the result predicate.
    /// Equality with [`result_value`](Analysis::result_value) proves the
    /// reordering semantics-preserving in every possible world — the
    /// machine check behind the dataflow stage certificate.
    pub(crate) fn result_with_step_order(&mut self, plan: &Plan, order: &[usize]) -> NodeId {
        let (values, _) = interpret(plan, &mut self.mgr, &self.atoms, None, &[], Some(order));
        values[plan.result.0]
    }

    /// Re-interprets the plan with the listed steps producing the empty
    /// set — the abstraction of a fault-tolerant executor that drops the
    /// steps of a dead source — and returns the new result predicate.
    pub(crate) fn result_with_steps_empty(&mut self, plan: &Plan, dropped: &[usize]) -> NodeId {
        let (values, _) = interpret(plan, &mut self.mgr, &self.atoms, None, dropped, None);
        values[plan.result.0]
    }

    /// True when executing the plan with the listed steps producing the
    /// empty set yields a *subset* of the fusion answer in every possible
    /// world — i.e. the steps are droppable and the degraded answer is a
    /// sound partial answer. Dropping a union term always passes; dropping
    /// a set that something is subtracted *from* is where this refuses.
    pub fn droppable(&mut self, plan: &Plan, dropped: &[usize]) -> bool {
        let degraded = self.result_with_steps_empty(plan, dropped);
        self.mgr.implies(degraded, self.target)
    }

    /// The result variable's membership predicate.
    pub(crate) fn result_value(&self) -> NodeId {
        self.result_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{SimplePlanSpec, SourceChoice};
    use crate::postopt::build_with_difference;
    use fusion_types::{CondId, SourceId};

    fn sja_spec(m: usize, n: usize) -> SimplePlanSpec {
        // Alternate selection/semijoin per cell for a mixed plan.
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
    fn filter_plans_prove() {
        for (m, n) in [(1, 1), (2, 3), (3, 2), (4, 4)] {
            let plan = SimplePlanSpec::filter(m, n).build(n).unwrap();
            let a = analyze_plan(&plan).unwrap();
            assert!(a.verdict().is_proved(), "filter m={m} n={n}");
        }
    }

    #[test]
    fn semijoin_and_adaptive_plans_prove() {
        for (m, n) in [(2, 2), (3, 3), (4, 2)] {
            let plan = SimplePlanSpec::all_semijoin(m, n).build(n).unwrap();
            assert!(analyze_plan(&plan).unwrap().verdict().is_proved());
            let plan = sja_spec(m, n).build(n).unwrap();
            assert!(analyze_plan(&plan).unwrap().verdict().is_proved());
        }
    }

    #[test]
    fn difference_pruned_plans_prove() {
        for (m, n) in [(2, 2), (3, 3), (4, 2)] {
            let plan = build_with_difference(&sja_spec(m, n), n);
            let a = analyze_plan(&plan).unwrap();
            assert!(a.verdict().is_proved(), "diff-pruned m={m} n={n}");
        }
    }

    #[test]
    fn dropping_a_source_is_refuted_with_witness() {
        // A filter plan that forgets R2 when unioning condition 1.
        let mut plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        for step in &mut plan.steps {
            if let Step::Union { inputs, .. } = step {
                inputs.truncate(1);
                break;
            }
        }
        let a = analyze_plan(&plan).unwrap();
        let Verdict::Refuted(cx) = a.verdict() else {
            panic!("expected refutation");
        };
        // The witness world must actually separate plan from query: the
        // item matches c1 only at the dropped source.
        assert!(cx.in_answer && !cx.in_result);
        assert!(cx.in_source[1]);
        assert!(cx.satisfies[0][1]);
        assert_eq!(cx.trace.len(), plan.steps.len());
        let shown = cx.to_string();
        assert!(shown.contains("fusion answer contains x: yes"));
    }

    #[test]
    fn intersecting_too_much_is_refuted() {
        // Result over-constrained: intersect with an extra sq.
        let mut plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let extra = plan.fresh_var("EXTRA");
        let out = plan.fresh_var("OUT");
        plan.steps.push(Step::Sq {
            out: extra,
            cond: CondId(0),
            source: SourceId(0),
        });
        plan.steps.push(Step::Intersect {
            out,
            inputs: vec![plan.result, extra],
        });
        plan.result = out;
        let a = analyze_plan(&plan).unwrap();
        let Verdict::Refuted(cx) = a.verdict() else {
            panic!("expected refutation");
        };
        assert!(cx.in_answer && !cx.in_result);
    }

    #[test]
    fn bloom_with_reintersection_proves() {
        // Replace one sjq with bloom-sjq + re-intersection with its input.
        let spec = sja_spec(2, 2);
        let mut plan = spec.build(2).unwrap();
        let (idx, cond, source, input) = plan
            .steps
            .iter()
            .enumerate()
            .find_map(|(i, s)| match s {
                Step::Sjq {
                    cond,
                    source,
                    input,
                    ..
                } => Some((i, *cond, *source, *input)),
                _ => None,
            })
            .expect("spec has a semijoin");
        let raw = plan.fresh_var("RAW");
        let tight = plan.fresh_var("TIGHT");
        let old_out = plan.steps[idx].defined_var().unwrap();
        plan.steps[idx] = Step::SjqBloom {
            out: raw,
            cond,
            source,
            input,
            bits: 8,
        };
        plan.steps.insert(
            idx + 1,
            Step::Intersect {
                out: tight,
                inputs: vec![raw, input],
            },
        );
        // Rewire the old output to the tightened set.
        for s in &mut plan.steps[idx + 2..] {
            match s {
                Step::Sjq { input, .. } | Step::SjqBloom { input, .. } if *input == old_out => {
                    *input = tight;
                }
                Step::Union { inputs, .. } | Step::Intersect { inputs, .. } => {
                    for v in inputs {
                        if *v == old_out {
                            *v = tight;
                        }
                    }
                }
                Step::Diff { left, right, .. } => {
                    if *left == old_out {
                        *left = tight;
                    }
                    if *right == old_out {
                        *right = tight;
                    }
                }
                _ => {}
            }
        }
        if plan.result == old_out {
            plan.result = tight;
        }
        let a = analyze_plan(&plan).unwrap();
        assert!(
            a.verdict().is_proved(),
            "re-intersected Bloom semijoin is exact: {}",
            plan.listing()
        );
        assert!(!a.result_tainted_by_bloom(idx));
    }

    #[test]
    fn bloom_without_reintersection_is_refuted() {
        // The final round is all-semijoin, so the builder emits no
        // re-intersection after it: a Bloom collision there leaks
        // straight into the result.
        let spec = SimplePlanSpec::all_semijoin(2, 2);
        let mut plan = spec.build(2).unwrap();
        let idx = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Sjq { .. }))
            .expect("spec has a semijoin");
        if let Step::Sjq {
            out,
            cond,
            source,
            input,
        } = plan.steps[idx]
        {
            plan.steps[idx] = Step::SjqBloom {
                out,
                cond,
                source,
                input,
                bits: 8,
            };
        }
        let a = analyze_plan(&plan).unwrap();
        let Verdict::Refuted(cx) = a.verdict() else {
            panic!("expected refutation: {}", plan.listing())
        };
        // The separating world involves a Bloom collision admitting a
        // non-matching item.
        assert_eq!(cx.bloom_collisions, vec![idx + 1]);
        assert!(cx.in_result && !cx.in_answer);
        assert!(a.result_tainted_by_bloom(idx));
    }

    #[test]
    fn loading_based_plans_prove() {
        // lq(R2) + local selections replacing remote sq's at R2.
        let m = 2;
        let mut plan = Plan::new(vec![], VarId(0), m, 2);
        let t = plan.fresh_rel("T2");
        let mut per_cond = Vec::new();
        plan.steps.push(Step::Lq {
            out: t,
            source: SourceId(1),
        });
        for i in 0..m {
            let remote = plan.fresh_var(format!("X{}1", i + 1));
            let local = plan.fresh_var(format!("X{}2", i + 1));
            let both = plan.fresh_var(format!("X{}", i + 1));
            plan.steps.push(Step::Sq {
                out: remote,
                cond: CondId(i),
                source: SourceId(0),
            });
            plan.steps.push(Step::LocalSq {
                out: local,
                cond: CondId(i),
                rel: t,
            });
            plan.steps.push(Step::Union {
                out: both,
                inputs: vec![remote, local],
            });
            per_cond.push(both);
        }
        let result = plan.fresh_var("X");
        plan.steps.push(Step::Intersect {
            out: result,
            inputs: per_cond,
        });
        plan.result = result;
        let a = analyze_plan(&plan).unwrap();
        assert!(a.verdict().is_proved(), "{}", plan.listing());
    }

    #[test]
    fn self_difference_is_refuted() {
        // X − X = ∅ ≠ the fusion answer (there are worlds with answers).
        let mut plan = SimplePlanSpec::filter(1, 1).build(1).unwrap();
        let out = plan.fresh_var("EMPTY");
        plan.steps.push(Step::Diff {
            out,
            left: plan.result,
            right: plan.result,
        });
        plan.result = out;
        // Structural validation now rejects self-difference outright.
        assert!(analyze_plan(&plan).is_err());
    }

    #[test]
    fn structurally_invalid_plans_error() {
        let mut plan = SimplePlanSpec::filter(1, 2).build(2).unwrap();
        plan.result = VarId(999);
        assert!(analyze_plan(&plan).is_err());
    }

    #[test]
    fn subset_queries_on_analysis() {
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let mut a = analyze_plan(&plan).unwrap();
        let result = a.result_value();
        let target = a.target;
        assert!(a.is_subset(result, target));
        assert!(a.is_subset(target, result));
    }

    /// Step indices of all remote steps touching `source`.
    fn steps_at(plan: &Plan, source: SourceId) -> Vec<usize> {
        plan.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.source() == Some(source))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn dropping_one_source_from_filter_plan_is_droppable() {
        // Each union term loses one operand: a strict but sound subset.
        let plan = SimplePlanSpec::filter(3, 3).build(3).unwrap();
        let mut a = analyze_plan(&plan).unwrap();
        for j in 0..3 {
            let dropped = steps_at(&plan, SourceId(j));
            assert!(!dropped.is_empty());
            assert!(a.droppable(&plan, &dropped), "source {j}");
        }
        // Dropping everything yields the empty answer — still a subset.
        let all: Vec<usize> = (0..plan.steps.len()).collect();
        assert!(a.droppable(&plan, &all));
        // And the degraded result must be strictly below the target.
        let degraded = a.result_with_steps_empty(&plan, &steps_at(&plan, SourceId(0)));
        let target = a.target;
        assert!(a.is_subset(degraded, target));
        assert!(!a.is_subset(target, degraded));
    }

    #[test]
    fn dropping_sources_from_semijoin_and_diff_plans_is_droppable() {
        for (m, n) in [(2, 2), (3, 3)] {
            let sj = sja_spec(m, n).build(n).unwrap();
            let diff = build_with_difference(&sja_spec(m, n), n);
            for plan in [&sj, &diff] {
                let mut a = analyze_plan(plan).unwrap();
                for j in 0..n {
                    let dropped = steps_at(plan, SourceId(j));
                    assert!(a.droppable(plan, &dropped), "m={m} n={n} source {j}");
                }
            }
        }
    }

    #[test]
    fn partial_drop_mid_plan_is_droppable() {
        // A source can die between two of its own steps; only the not-yet
        // executed tail is dropped. Check every suffix of each source's
        // step list on a difference-pruned plan (the hardest algebra:
        // dropped values feed Diff subtrahends).
        let plan = build_with_difference(&sja_spec(3, 2), 2);
        let mut a = analyze_plan(&plan).unwrap();
        for j in 0..2 {
            let at = steps_at(&plan, SourceId(j));
            for start in 0..at.len() {
                assert!(a.droppable(&plan, &at[start..]), "source {j} from {start}");
            }
        }
    }

    #[test]
    fn antitone_use_of_a_dropped_step_is_not_droppable() {
        // result := sq(c1,R1) − sq(c2,R1). Dropping the subtrahend makes
        // the degraded result a *superset*: the BDD check must refuse.
        let steps = vec![
            Step::Sq {
                out: VarId(0),
                cond: CondId(0),
                source: SourceId(0),
            },
            Step::Sq {
                out: VarId(1),
                cond: CondId(1),
                source: SourceId(0),
            },
            Step::Diff {
                out: VarId(2),
                left: VarId(0),
                right: VarId(1),
            },
        ];
        let plan = Plan::new(steps, VarId(2), 2, 2);
        let mut a = analyze_plan(&plan).unwrap();
        assert!(!a.droppable(&plan, &[1]), "dropping the subtrahend");
        // Dropping the minuend (and hence the whole result) is fine: ∅.
        assert!(a.droppable(&plan, &[0, 1]));
    }
}
