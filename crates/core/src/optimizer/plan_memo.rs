//! Plan once: the process-wide memo behind [`sj_optimal`] / [`sja_optimal`]
//! (DESIGN §20).
//!
//! [`ordering_search`] is a pure function of the model's answers, and a
//! model that implements [`CostModel::plan_key`] states every input those
//! answers are a function of. A repeated key is therefore answered with a
//! clone of the plan the first search found. Models that state no key —
//! every decorator, every user model that keeps the default — are
//! searched every time, exactly as before.
//!
//! A wrong key cannot change an answer: whatever the memo returns was
//! built by [`ordering_search`] for a model of the same type, `m` and
//! `n`, so it is a proved plan of the right shape (and every executor
//! still asks `ensure_sound`); at worst it is not the cheapest one.
//!
//! [`sj_optimal`]: super::sj_optimal
//! [`sja_optimal`]: super::sja_optimal

use super::search::{ordering_search, RoundRule};
use super::OptimizedPlan;
use crate::analyze::{ProofMemoStats, SharedMemo};
use crate::cost::CostModel;
use std::sync::LazyLock;

/// Plans the memo keeps at most; it is cleared when it would grow past
/// this. An entry is its key (`8·(3 + plan_key words)` bytes) plus one
/// [`OptimizedPlan`].
pub const PLAN_MEMO_CAPACITY: usize = 1024;

/// Everything a memoised plan is a function of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// The model's type: two types may encode different inputs alike.
    model: &'static str,
    /// The rule, `m`, `n`, then the model's own [`CostModel::plan_key`].
    words: Vec<u64>,
}

static PLAN_MEMO: LazyLock<SharedMemo<(PlanKey, OptimizedPlan)>> =
    LazyLock::new(|| SharedMemo::new(PLAN_MEMO_CAPACITY));

/// [`ordering_search`]'s plan, searched once per distinct key.
pub(crate) fn planned<M: CostModel>(model: &M, rule: RoundRule) -> OptimizedPlan {
    let mut key = PlanKey {
        model: std::any::type_name::<M>(),
        words: vec![
            rule as u64,
            model.n_conditions() as u64,
            model.n_sources() as u64,
        ],
    };
    if !model.plan_key(&mut key.words) {
        return ordering_search(model, rule).0;
    }
    let memo = &*PLAN_MEMO;
    let hash = memo.hash(&key);
    let is_key = |entry: &(PlanKey, OptimizedPlan)| entry.0 == key;
    if let Some(plan) = memo.get(hash, is_key, |entry| entry.1.clone()) {
        debug_assert!(
            same_plan(&plan, &ordering_search(model, rule).0),
            "plan memo returned a plan the search does not find:\n{}",
            plan.plan.listing()
        );
        return plan;
    }
    let plan = ordering_search(model, rule).0;
    memo.insert(hash, is_key, || (key.clone(), plan.clone()));
    plan
}

/// Bit-for-bit equality of everything an [`OptimizedPlan`] holds.
fn same_plan(a: &OptimizedPlan, b: &OptimizedPlan) -> bool {
    let bits = |sizes: &[f64]| sizes.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.plan == b.plan
        && a.spec == b.spec
        && a.cost.value().to_bits() == b.cost.value().to_bits()
        && bits(&a.round_sizes) == bits(&b.round_sizes)
}

/// Counters of the plan memo since the process started.
pub fn plan_memo_stats() -> ProofMemoStats {
    PLAN_MEMO.stats()
}
