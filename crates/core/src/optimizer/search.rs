//! The one ordering search behind every exact optimizer (DESIGN §20).
//!
//! Figures 3 and 4 are one shape — loop A "for every ordering of the
//! conditions", loop B "per round, selection or semijoin" — held once:
//! one round-pricing rule ([`price_round`], a running total in source
//! order, so a prefix priced round by round is bit-equal to
//! [`price_ordering`] pricing it from scratch) and one stateless
//! branch-and-bound depth-first search ([`search`]) with two entry points:
//! [`ordering_search`] over a whole query (behind [`sj_optimal`] /
//! [`sja_optimal`]) and [`suffix_search`] over the conditions a mid-query
//! re-plan still has to run.
//! [`reference_enumeration`] is Figures 3–4 *literally*: the oracle the
//! differential tests and E18 hold the search to, not a product path.
//!
//! [`remaining_cost_lower_bound`]: crate::dataflow::remaining_cost_lower_bound

use super::greedy::selectivity_order;
use super::perm::for_each_permutation;
use super::{improves, ordering_tie_tolerance, OptimizedPlan};
use crate::analyze::Memos;
use crate::cost::CostModel;
use crate::dataflow::remaining_cost_lower_bound;
use crate::plan::SourceChoice;
use fusion_types::{CondId, Cost, SourceId};

/// How a round chooses between selection and semijoin queries — the only
/// difference between the SJ and SJA plan spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundRule {
    /// Figure 3 (SJ): one choice per round, by the `n` queries' summed costs.
    Uniform,
    /// Figure 4 (SJA): the "source loop" — each source chooses alone.
    PerSource,
}

/// What pricing an ordering yields: per-round per-source choices, the
/// total cost, and the estimated `|X|` after each round.
pub(crate) type Priced = (Vec<Vec<SourceChoice>>, Cost, Vec<f64>);

/// Prices one round of `cond` onto the running `cost`; the round's
/// choices go to `row` when asked for. `x` is the running set feeding the
/// round: `None` in a query's first round, where no set exists yet and
/// every source answers a selection (§2.5); with `Some`, `rule` chooses
/// against it — also in the first round of a *suffix*.
pub(crate) fn price_round<M: CostModel>(
    model: &M,
    rule: RoundRule,
    cond: usize,
    x: Option<f64>,
    cost: &mut Cost,
    mut row: Option<&mut Vec<SourceChoice>>,
) {
    let cond = CondId(cond);
    let n = model.n_sources();
    let sq = |j| model.sq_cost(cond, SourceId(j));
    let (choice, round) = match (x, rule) {
        (None, _) => (SourceChoice::Selection, (0..n).map(sq).sum()),
        (Some(k), RoundRule::Uniform) => {
            let sel: Cost = (0..n).map(sq).sum();
            let semi: Cost = (0..n).map(|j| model.sjq_cost(cond, SourceId(j), k)).sum();
            if sel < semi {
                (SourceChoice::Selection, sel)
            } else {
                (SourceChoice::Semijoin, semi)
            }
        }
        (Some(k), RoundRule::PerSource) => {
            for j in 0..n {
                let (sq, sjq) = (sq(j), model.sjq_cost(cond, SourceId(j), k));
                let (choice, query) = if sq < sjq {
                    (SourceChoice::Selection, sq)
                } else {
                    (SourceChoice::Semijoin, sjq)
                };
                *cost += query;
                if let Some(row) = row.as_deref_mut() {
                    row.push(choice);
                }
            }
            return;
        }
    };
    *cost += round;
    if let Some(row) = row {
        row.resize(n, choice);
    }
}

/// The estimated `|X|` after a round of `cond` fed by `x`: the condition's
/// union when it opens the query, else `x` shrunk by its selectivity.
pub(crate) fn size_after<M: CostModel>(model: &M, cond: usize, x: Option<f64>) -> f64 {
    match x {
        None => model.est_condition_union(CondId(cond)),
        Some(k) => k * model.gsel(CondId(cond)),
    }
}

/// Prices `order` round by round from `x0` (see [`price_round`]).
pub(crate) fn price_ordering<M: CostModel>(
    model: &M,
    rule: RoundRule,
    order: &[usize],
    x0: Option<f64>,
) -> Priced {
    let mut choices = Vec::with_capacity(order.len());
    let mut sizes = Vec::with_capacity(order.len());
    let (mut cost, mut x) = (Cost::ZERO, x0);
    for &cond in order {
        let mut row = Vec::with_capacity(model.n_sources());
        price_round(model, rule, cond, x, &mut cost, Some(&mut row));
        choices.push(row);
        let next = size_after(model, cond, x);
        sizes.push(next);
        x = Some(next);
    }
    (choices, cost, sizes)
}

/// Price once per search: the caller's model with the answers a search
/// reads again at every node — `sq_cost` per (candidate, source),
/// `est_condition_union` and `gsel` per candidate — asked for once and
/// kept in dense vectors. Every cell is the model's own return value, so
/// a search over this prices bit for bit what a search over the model
/// would. Rows of conditions outside the candidate set are never read
/// and hold zeros.
struct PricedOnce<'a, M> {
    model: &'a M,
    n: usize,
    sq: Vec<Cost>,
    union: Vec<f64>,
    gsel: Vec<f64>,
}

impl<'a, M: CostModel> PricedOnce<'a, M> {
    fn new(model: &'a M, cands: &[usize]) -> PricedOnce<'a, M> {
        let (m, n) = (model.n_conditions(), model.n_sources());
        let mut priced = PricedOnce {
            model,
            n,
            sq: vec![Cost::ZERO; m * n],
            union: vec![0.0; m],
            gsel: vec![0.0; m],
        };
        for &i in cands {
            for j in 0..n {
                priced.sq[i * n + j] = model.sq_cost(CondId(i), SourceId(j));
            }
            priced.union[i] = model.est_condition_union(CondId(i));
            priced.gsel[i] = model.gsel(CondId(i));
        }
        priced
    }
}

impl<M: CostModel> CostModel for PricedOnce<'_, M> {
    fn n_conditions(&self) -> usize {
        self.union.len()
    }

    fn n_sources(&self) -> usize {
        self.n
    }

    fn sq_cost(&self, cond: CondId, source: SourceId) -> Cost {
        self.sq[cond.0 * self.n + source.0]
    }

    fn sjq_cost(&self, cond: CondId, source: SourceId, est_items: f64) -> Cost {
        self.model.sjq_cost(cond, source, est_items)
    }

    fn lq_cost(&self, source: SourceId) -> Cost {
        self.model.lq_cost(source)
    }

    fn sjq_bloom_cost(&self, cond: CondId, source: SourceId, est_items: f64, bits: u8) -> Cost {
        self.model.sjq_bloom_cost(cond, source, est_items, bits)
    }

    fn est_sq_items(&self, cond: CondId, source: SourceId) -> f64 {
        self.model.est_sq_items(cond, source)
    }

    fn domain_size(&self) -> f64 {
        self.model.domain_size()
    }

    fn est_condition_union(&self, cond: CondId) -> f64 {
        self.union[cond.0]
    }

    fn gsel(&self, cond: CondId) -> f64 {
        self.gsel[cond.0]
    }
}

/// Search statistics, for the E/B benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct BnbStats {
    /// Ordering prefixes priced (each costs `O(n)`), counted before the
    /// bound is tested: leaves and cut prefixes included.
    pub prefixes_explored: usize,
    /// Subtrees cut by the bound.
    pub prunes: usize,
}

impl BnbStats {
    /// Prefixes a full enumeration of `m` conditions prices:
    /// `Σ_{k=1..m} m!/(m−k)!`.
    pub fn exhaustive_prefixes(m: usize) -> usize {
        let falling = (0..m).scan(1, |partial, k| {
            *partial *= m - k;
            Some(*partial)
        });
        falling.sum()
    }
}

/// The best ordering of a candidate set and its pricing: a suffix plan
/// from [`suffix_search`], or the reference's answer for any `x0`.
#[derive(Debug, Clone)]
pub struct SuffixPlan {
    /// Condition order (indices into the query's conditions).
    pub order: Vec<usize>,
    /// Per-round, per-source choices.
    pub choices: Vec<Vec<SourceChoice>>,
    /// Cost under the model the search was given.
    pub cost: Cost,
    /// Estimated `|X|` after each round.
    pub sizes: Vec<f64>,
}

/// The one depth-first search over the orderings of the ascending
/// candidates `cands` from running set `x0` — a prefix tree, children in
/// ascending condition order — starting from the incumbent `seed`, an
/// ordering of all candidates. A subtree is cut only when prefix cost
/// plus the admissible bound ([`remaining_cost_lower_bound`]) is
/// *strictly* worse than the incumbent: one that only ties may hold an
/// ordering the shared tie-break ([`improves`]) prefers. Returns the
/// exact optimum under that tie-break, priced, with the search's counts
/// (every child priced, leaves and cut children included).
fn search<M: CostModel>(
    model: &M,
    rule: RoundRule,
    cands: &[usize],
    x0: Option<f64>,
    seed: Vec<usize>,
) -> (Vec<usize>, Priced, BnbStats) {
    let model = &PricedOnce::new(model, cands);
    let mut best = seed;
    let mut priced = price_ordering(model, rule, &best, x0);
    let (mut best_cost, mut moved) = (priced.1, false);
    let mut used = vec![true; model.n_conditions()];
    cands.iter().for_each(|&c| used[c] = false);
    // The node the search stands on; `cursors[d]` is the position, among
    // the candidates, of the next child to try below `prefix[..d]`, and
    // `path[d]` the cost of, and running set after, `prefix[..d]`.
    let mut prefix = Vec::with_capacity(cands.len());
    let mut cursors = vec![0];
    let mut path = vec![(Cost::ZERO, x0)];
    let mut stats = BnbStats::default();
    while let Some(cursor) = cursors.last_mut() {
        let Some(at) = (*cursor..cands.len()).find(|&i| !used[cands[i]]) else {
            // Every child tried: back to the parent.
            cursors.pop();
            path.pop();
            if let Some(c) = prefix.pop() {
                used[c] = false;
            }
            continue;
        };
        *cursor = at + 1;
        let cand = cands[at];
        stats.prefixes_explored += 1;
        prefix.push(cand);
        // On the incumbent's own path there is nothing to learn: its
        // leaf is the incumbent, and no admissible bound cuts it.
        let on_best = best.starts_with(&prefix);
        let leaf = prefix.len() == cands.len();
        if leaf && on_best {
            prefix.pop();
            continue;
        }
        let (mut cost, x) = path[path.len() - 1];
        price_round(model, rule, cand, x, &mut cost, None);
        if leaf {
            if improves(cost, &prefix, best_cost, &best) {
                best_cost = best_cost.min(cost);
                best.clone_from(&prefix);
                moved = true;
            }
            prefix.pop();
            continue;
        }
        let next = size_after(model, cand, x);
        if !on_best {
            let bound = cost + remaining_cost_lower_bound(model, &used, cand, next);
            if bound.value() > best_cost.value() + ordering_tie_tolerance(best_cost) {
                stats.prunes += 1;
                prefix.pop();
                continue;
            }
        }
        used[cand] = true;
        path.push((cost, Some(next)));
        cursors.push(0);
    }
    if moved {
        priced = price_ordering(model, rule, &best, x0);
    }
    (best, priced, stats)
}

/// The exact optimum over all condition orderings under `rule`, with the
/// search's counts — searched every time; [`sj_optimal`] and
/// [`sja_optimal`] drop the counts and plan once per model.
/// Seeded with the greedy ordering, near-optimal in practice (E7), so
/// pruning is typically drastic while the worst case stays `O(m!·n)`.
///
/// # Panics
/// Panics if the model has no conditions: `FusionQuery::new` refuses an
/// empty list, so that is a caller's bug, not an input.
pub fn ordering_search<M: CostModel>(model: &M, rule: RoundRule) -> (OptimizedPlan, BnbStats) {
    let m = model.n_conditions();
    assert!(m > 0, "a fusion query has at least one condition");
    let all: Vec<usize> = (0..m).collect();
    let (order, priced, stats) = search(model, rule, &all, None, selectivity_order(model));
    let plan = OptimizedPlan::from_ordering(order, priced, model.n_sources());
    (plan, stats)
}

/// The exact SJA optimum over the orderings of `candidates` — the
/// conditions a query still has to run — from a running set of `x0`
/// items (`None` before the first round: selections everywhere), under
/// Figure 4's per-source rule. Every round, a suffix's first included,
/// may semijoin against the set in hand. Mid-query re-planning asks it
/// afresh at every boundary it re-plans; it keeps nothing between calls.
///
/// # Panics
/// Panics if `candidates` is empty or names a condition twice.
pub fn suffix_search<M: CostModel>(model: &M, candidates: &[usize], x0: Option<f64>) -> SuffixPlan {
    let mut cands = candidates.to_vec();
    cands.sort_unstable();
    assert!(!cands.is_empty(), "no conditions to order");
    assert!(
        cands.windows(2).all(|w| w[0] < w[1]),
        "suffix names a condition twice"
    );
    // The ascending seed: pruning has an incumbent from the first child.
    let seed = cands.clone();
    let (order, (choices, cost, sizes), _) = search(model, RoundRule::PerSource, &cands, x0, seed);
    SuffixPlan {
        order,
        choices,
        cost,
        sizes,
    }
}

/// Finds the optimal *semijoin plan* (§2.5 class 2): Figure 3's space —
/// per condition, `n` selection queries or `n` semijoin queries by their
/// summed costs — searched exactly by [`ordering_search`], once per
/// distinct [`CostModel::plan_key`] ([`Memos::optimal`] on
/// [`Memos::shared`]).
///
/// # Panics
/// Panics if the model has no conditions.
pub fn sj_optimal<M: CostModel>(model: &M) -> OptimizedPlan {
    Memos::shared().optimal(model, RoundRule::Uniform)
}

/// Finds the optimal *semijoin-adaptive plan* (§2.5 class 3): Figure 4's
/// space — like [`sj_optimal`], but each source decides alone. The space
/// is exponentially larger (`O(m!·2^{n(m-2)})` plans vs `O(m!·2^{m-2})`),
/// but per-source decisions decompose, so the search costs the same — and
/// its optimum "is always at least as good as, and often much better
/// than, the optimal semijoin plan".
///
/// # Panics
/// Panics if the model has no conditions.
pub fn sja_optimal<M: CostModel>(model: &M) -> OptimizedPlan {
    Memos::shared().optimal(model, RoundRule::PerSource)
}

/// Figures 3–4 literally, `O(m!·m·n)`: prices every ordering of
/// `candidates` from `x0` (`None` for a whole query) and keeps the
/// cheapest under the shared tie-break. The **reference** the search is
/// tested and timed against.
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn reference_enumeration<M: CostModel>(
    model: &M,
    rule: RoundRule,
    candidates: &[usize],
    x0: Option<f64>,
) -> SuffixPlan {
    let mut cands = candidates.to_vec();
    cands.sort_unstable();
    let mut best: Option<(Vec<usize>, Priced)> = None;
    for_each_permutation(cands.len(), |perm| {
        let order: Vec<usize> = perm.iter().map(|&i| cands[i]).collect();
        let priced = price_ordering(model, rule, &order, x0);
        match &best {
            Some((o, p)) if !improves(priced.1, &order, p.1, o) => {}
            _ => best = Some((order, priced)),
        }
    });
    let (order, (choices, cost, sizes)) = best.expect("no conditions to order");
    SuffixPlan {
        order,
        choices,
        cost,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::optimizer::filter_plan;
    use crate::optimizer::testutil::figure2_model;
    use crate::plan::PlanClass;
    use fusion_stats::SplitMix64;

    /// The search's plan is the reference enumeration's, bit for bit.
    fn assert_matches_reference(model: &TableCostModel, rule: RoundRule, got: &OptimizedPlan) {
        let all: Vec<usize> = (0..model.n_conditions()).collect();
        let want = reference_enumeration(model, rule, &all, None);
        let order: Vec<usize> = got.spec.order.iter().map(|c| c.0).collect();
        assert_eq!(order, want.order, "{rule:?}");
        assert_eq!(got.spec.choices, want.choices, "{rule:?}");
        assert_eq!(got.cost.value().to_bits(), want.cost.value().to_bits());
        let bits = |sizes: &[f64]| sizes.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.round_sizes), bits(&want.sizes), "{rule:?}");
        got.plan.validate().unwrap();
    }

    // ---------- SJ (Figure 3) ------------------------------------------

    /// Selective first condition, cheap semijoins: SJ should lead with the
    /// selective condition and semijoin the rest.
    fn semijoin_friendly() -> TableCostModel {
        let mut m = TableCostModel::uniform(3, 2, 50.0, 1.0, 0.1, 1e9, 40.0, 100.0);
        // c1 is highly selective (returns ~2 items per source).
        m.set_est_sq_items(CondId(0), SourceId(0), 2.0);
        m.set_est_sq_items(CondId(0), SourceId(1), 2.0);
        // ...and cheap to evaluate by selection.
        m.set_sq_cost(CondId(0), SourceId(0), 5.0);
        m.set_sq_cost(CondId(0), SourceId(1), 5.0);
        m
    }

    #[test]
    fn sj_picks_selective_condition_first() {
        let opt = sj_optimal(&semijoin_friendly());
        assert_eq!(opt.spec.order[0], CondId(0));
        // Rounds 2..m use semijoins: input is ~4 items, so
        // sjq = 1 + 0.1·4 ≈ 1.4 ≪ sq = 50.
        for row in &opt.spec.choices[1..] {
            assert_eq!(row, &vec![SourceChoice::Semijoin; 2]);
        }
        assert_eq!(opt.plan.class(), PlanClass::Semijoin);
        opt.plan.validate().unwrap();
    }

    #[test]
    fn sj_never_beats_filter_when_semijoins_are_expensive() {
        // Infinite semijoins everywhere → SJ must return the filter plan
        // cost.
        let mut m = TableCostModel::uniform(3, 2, 10.0, f64::INFINITY, 0.0, 1e9, 5.0, 100.0);
        for c in 0..3 {
            for s in 0..2 {
                m.set_sjq_cost(CondId(c), SourceId(s), f64::INFINITY, 0.0);
            }
        }
        let sj = sj_optimal(&m);
        let filter = filter_plan(&m);
        assert_eq!(sj.cost, filter.cost);
        assert_eq!(sj.plan.class(), PlanClass::Filter);
    }

    #[test]
    fn sj_at_most_filter_cost() {
        // For any model, OPT(SJ) ≤ FILTER: the all-selection plan is in
        // the search space.
        let models = [
            TableCostModel::uniform(3, 3, 10.0, 2.0, 0.05, 1e9, 8.0, 50.0),
            semijoin_friendly(),
            TableCostModel::uniform(2, 5, 1.0, 100.0, 10.0, 1e9, 30.0, 60.0),
        ];
        for m in models {
            assert!(sj_optimal(&m).cost <= filter_plan(&m).cost);
        }
    }

    #[test]
    fn single_condition_degenerates_to_filter() {
        let m = TableCostModel::uniform(1, 4, 3.0, 1.0, 0.1, 1e9, 5.0, 100.0);
        let opt = sj_optimal(&m);
        assert_eq!(opt.cost, Cost::new(12.0));
        assert_eq!(opt.plan.class(), PlanClass::Filter);
    }

    #[test]
    fn ordering_matters() {
        // c2 very selective but expensive to push; starting with c1 (cheap,
        // moderately selective) then semijoining c2 wins over the reverse.
        let mut m = TableCostModel::uniform(2, 2, 100.0, 1.0, 0.5, 1e9, 50.0, 100.0);
        m.set_sq_cost(CondId(0), SourceId(0), 10.0);
        m.set_sq_cost(CondId(0), SourceId(1), 10.0);
        m.set_est_sq_items(CondId(0), SourceId(0), 5.0);
        m.set_est_sq_items(CondId(0), SourceId(1), 5.0);
        let opt = sj_optimal(&m);
        assert_eq!(opt.spec.order, vec![CondId(0), CondId(1)]);
        // Cost: 2·10 (round 1) + 2·(1 + 0.5·~9.75) ≈ 31.75 — far below
        // starting with c2 (200 + ...).
        assert!(opt.cost < Cost::new(40.0));
    }

    // ---------- SJA (Figure 4) -----------------------------------------

    #[test]
    fn sja_dominates_sj_dominates_filter() {
        let models = [
            figure2_model(),
            TableCostModel::uniform(3, 3, 10.0, 2.0, 0.05, 1e9, 8.0, 50.0),
            TableCostModel::uniform(4, 2, 5.0, 1.0, 0.2, 1e9, 3.0, 40.0),
        ];
        // Dominance up to float summation order.
        let le = |a: Cost, b: Cost| a.value() <= b.value() * (1.0 + 1e-12) + 1e-12;
        for m in models {
            let f = filter_plan(&m).cost;
            let sj = sj_optimal(&m).cost;
            let sja = sja_optimal(&m).cost;
            assert!(le(sja, sj), "SJA {sja} should not exceed SJ {sj}");
            assert!(le(sj, f), "SJ {sj} should not exceed FILTER {f}");
        }
    }

    #[test]
    fn sja_strictly_beats_sj_on_heterogeneous_sources() {
        // figure2_model makes semijoin the right call for c2 at R1 only;
        // SJ must pick one uniform strategy and lose.
        let m = figure2_model();
        let sj = sj_optimal(&m).cost;
        let sja = sja_optimal(&m).cost;
        assert!(sja < sj, "expected strict win, got SJA={sja} SJ={sj}");
    }

    #[test]
    fn sja_reproduces_figure_2c_shape() {
        // Under the staged model, the optimal adaptive plan processes
        // c1, c2, c3 in order, semijoins c2 at R1 only, and selects
        // everywhere else — exactly Figure 2(c).
        let opt = sja_optimal(&figure2_model());
        assert_eq!(
            opt.spec.order,
            vec![CondId(0), CondId(1), CondId(2)],
            "expected the figure's ordering"
        );
        assert_eq!(
            opt.spec.choices[1],
            vec![SourceChoice::Semijoin, SourceChoice::Selection]
        );
        assert_eq!(opt.spec.choices[2], vec![SourceChoice::Selection; 2]);
        assert_eq!(opt.plan.class(), PlanClass::SemijoinAdaptive);
        opt.plan.validate().unwrap();
    }

    #[test]
    fn per_source_choice_follows_local_costs() {
        // Two conditions, 4 sources: c1 is cheap and selective, c2 is dear
        // to push and its semijoin is profitable at even sources only.
        let mut m = TableCostModel::uniform(2, 4, 10.0, 1.0, 0.1, 1e9, 5.0, 1000.0);
        for s in 0..4 {
            m.set_sq_cost(CondId(1), SourceId(s), 30.0);
            m.set_est_sq_items(CondId(1), SourceId(s), 50.0);
        }
        for s in [1usize, 3] {
            m.set_sjq_cost(CondId(1), SourceId(s), 50.0, 0.1);
        }
        let opt = sja_optimal(&m);
        // Ordering [c1, c2]: ~19.9-item input; sjq even ≈ 3 < 30 < sjq odd.
        assert_eq!(opt.spec.order[0], CondId(0));
        assert_eq!(
            opt.spec.choices[1],
            vec![
                SourceChoice::Semijoin,
                SourceChoice::Selection,
                SourceChoice::Semijoin,
                SourceChoice::Selection
            ]
        );
    }

    #[test]
    fn m_equals_two_symmetric_conditions() {
        // With two identical conditions both orderings tie; SJA must still
        // produce a valid plan with the semijoin on the second round.
        let m = TableCostModel::uniform(2, 2, 20.0, 1.0, 0.1, 1e9, 4.0, 100.0);
        let opt = sja_optimal(&m);
        assert_eq!(opt.spec.choices[1], vec![SourceChoice::Semijoin; 2]);
        // Cost = 2·20 + 2·(1 + 0.1·|X1|), |X1| = 100(1-(1-.04)²) ≈ 7.84.
        assert!((opt.cost.value() - (40.0 + 2.0 * (1.0 + 0.784))).abs() < 1e-6);
    }

    // ---------- the search against the reference -----------------------

    fn random_model(m: usize, n: usize, seed: u64) -> TableCostModel {
        let mut rng = SplitMix64::new(seed);
        let mut model = TableCostModel::uniform(m, n, 1.0, 1.0, 0.1, 1e6, 1.0, 300.0);
        for i in 0..m {
            for j in 0..n {
                model.set_sq_cost(CondId(i), SourceId(j), 1.0 + 99.0 * rng.next_f64());
                model.set_sjq_cost(
                    CondId(i),
                    SourceId(j),
                    0.5 + 30.0 * rng.next_f64(),
                    2.0 * rng.next_f64(),
                );
                model.set_est_sq_items(CondId(i), SourceId(j), 1.0 + 80.0 * rng.next_f64());
            }
        }
        model
    }

    #[test]
    fn matches_exhaustive_sja_on_random_models() {
        let (mut explored, mut full) = (0usize, 0usize);
        for seed in 0..25u64 {
            for m in 2..=5 {
                let model = random_model(m, 4, 31_000 + seed);
                let (bnb, stats) = ordering_search(&model, RoundRule::PerSource);
                assert_matches_reference(&model, RoundRule::PerSource, &bnb);
                explored += stats.prefixes_explored;
                full += BnbStats::exhaustive_prefixes(m);
                bnb.plan.validate().unwrap();
            }
        }
        // Over the battery the bound must cut real work (individual tiny
        // instances can degenerate to full enumeration).
        assert!(explored < full, "explored {explored} of {full}");
    }

    #[test]
    fn matches_exhaustive_sj_on_random_models() {
        let (mut explored, mut full) = (0usize, 0usize);
        for seed in 0..25u64 {
            for m in 2..=5 {
                let model = random_model(m, 4, 47_000 + seed);
                let (bnb, stats) = ordering_search(&model, RoundRule::Uniform);
                assert_matches_reference(&model, RoundRule::Uniform, &bnb);
                explored += stats.prefixes_explored;
                full += BnbStats::exhaustive_prefixes(m);
                bnb.plan.validate().unwrap();
            }
        }
        assert!(explored < full, "explored {explored} of {full}");
    }

    #[test]
    fn strictly_fewer_prefixes_at_sweep_sizes() {
        // The E18 regime: m = 6..8 is where enumeration hurts and the
        // bound must strictly cut the space, for both searches, on every
        // seed.
        for seed in 0..5u64 {
            for m in 6..=7 {
                let model = random_model(m, 4, 88_000 + seed);
                let full = BnbStats::exhaustive_prefixes(m);
                let (_, sja_stats) = ordering_search(&model, RoundRule::PerSource);
                let (_, sj_stats) = ordering_search(&model, RoundRule::Uniform);
                assert!(
                    sja_stats.prefixes_explored < full,
                    "seed {seed} m {m}: SJA explored {} of {full}",
                    sja_stats.prefixes_explored
                );
                assert!(
                    sj_stats.prefixes_explored < full,
                    "seed {seed} m {m}: SJ explored {} of {full}",
                    sj_stats.prefixes_explored
                );
            }
        }
    }

    #[test]
    fn prunes_most_of_the_space() {
        let model = random_model(8, 8, 99);
        let (_, stats) = ordering_search(&model, RoundRule::PerSource);
        // Full enumeration prices Σ_{k=1..8} 8!/(8-k)! = 109,600 prefixes;
        // the bound should cut the vast majority.
        assert_eq!(BnbStats::exhaustive_prefixes(8), 109_600);
        assert!(
            stats.prefixes_explored < 30_000,
            "explored {}",
            stats.prefixes_explored
        );
        assert!(stats.prunes > 0);
    }

    #[test]
    fn observed_sizes_flip_a_suffix_choice() {
        let mut m = TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 1e9, 5.0, 1000.0);
        m.set_est_sq_items(CondId(0), SourceId(0), 2.0);
        m.set_est_sq_items(CondId(0), SourceId(1), 2.0);
        // A tiny observed set → semijoins everywhere in the suffix's
        // first round; a huge one (sjq = 1 + 0.1·500 = 51 > 10) →
        // selections.
        let small = suffix_search(&m, &[2, 1], Some(3.0));
        assert_eq!(small.choices[0], vec![SourceChoice::Semijoin; 2]);
        let big = suffix_search(&m, &[2, 1], Some(500.0));
        assert_eq!(big.choices[0], vec![SourceChoice::Selection; 2]);
    }

    #[test]
    #[should_panic(expected = "no conditions to order")]
    fn empty_suffix_is_rejected() {
        suffix_search(&random_model(2, 2, 3), &[], Some(1.0));
    }

    #[test]
    fn single_condition() {
        let model = random_model(1, 3, 7);
        let (bnb, stats) = ordering_search(&model, RoundRule::PerSource);
        assert_matches_reference(&model, RoundRule::PerSource, &bnb);
        assert_eq!(stats.prefixes_explored, 1);
        let (bnb_sj, _) = ordering_search(&model, RoundRule::Uniform);
        assert_matches_reference(&model, RoundRule::Uniform, &bnb_sj);
    }

    // ---------- degenerate models --------------------------------------

    /// 3 × 2, source 0 unable to select or semijoin anything: every
    /// ordering costs ∞.
    fn all_infinite_model() -> TableCostModel {
        let mut m = TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 1e6, 5.0, 100.0);
        for c in 0..3 {
            m.set_sq_cost(CondId(c), SourceId(0), f64::INFINITY);
            m.set_sjq_cost(CondId(c), SourceId(0), f64::INFINITY, 0.0);
            // Distinct selectivities, most selective last: the greedy
            // seed is [c3, c2, c1], the reference starts from [c1, c2, c3].
            m.set_est_sq_items(CondId(c), SourceId(1), 30.0 - 10.0 * c as f64);
        }
        m
    }

    #[test]
    fn all_infinite_orderings_tie_to_the_lexicographically_least() {
        // Two infinite costs are tied, so the shared tie-break decides
        // and the winner does not depend on where a search started.
        let mut zero_column = all_infinite_model();
        for c in 0..3 {
            zero_column.set_est_sq_items(CondId(c), SourceId(1), 0.0);
        }
        for model in [all_infinite_model(), zero_column] {
            for rule in [RoundRule::Uniform, RoundRule::PerSource] {
                let (got, _) = ordering_search(&model, rule);
                assert_eq!(got.spec.order, vec![CondId(0), CondId(1), CondId(2)]);
                assert!(got.cost.is_infinite());
                assert_matches_reference(&model, rule, &got);
                crate::analyze::ensure_sound(&got.plan).unwrap();
            }
        }
    }
}
