//! Plan once: the plan table of [`Memos`], behind [`Memos::optimal`] and
//! so behind [`sj_optimal`] / [`sja_optimal`] (DESIGN §18, §20).
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
use crate::analyze::{Memos, Table};
use crate::cost::CostModel;
use std::collections::HashMap;

/// Plans the memo keeps at most; it is cleared when it would grow past
/// this. An entry is its key (`8·(3 + plan_key words)` bytes) plus one
/// [`OptimizedPlan`].
pub const PLAN_MEMO_CAPACITY: usize = 1024;

/// Everything a memoised plan is a function of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// The model's type: two types may encode different inputs alike.
    model: &'static str,
    /// The rule, `m`, `n`, then the model's own [`CostModel::plan_key`].
    words: Vec<u64>,
}

/// Searched plans by key.
#[derive(Default)]
pub(crate) struct Plans(HashMap<PlanKey, OptimizedPlan>);

impl Table for Plans {
    type Key<'k> = &'k PlanKey;
    type Value = OptimizedPlan;

    fn get(&self, key: &PlanKey) -> Option<&OptimizedPlan> {
        self.0.get(key)
    }

    fn insert(&mut self, key: &PlanKey, plan: OptimizedPlan) {
        self.0.insert(key.clone(), plan);
    }

    fn full(&self, _: &PlanKey) -> bool {
        self.0.len() >= PLAN_MEMO_CAPACITY
    }

    fn entries(&self) -> usize {
        self.0.len()
    }
}

impl Memos {
    /// [`ordering_search`]'s plan for `model` under `rule`, searched once
    /// per distinct [`CostModel::plan_key`] (debug builds search again on
    /// every hit and assert the two bit-equal); a model that states no
    /// key is searched every time.
    ///
    /// # Panics
    /// Panics if the model has no conditions.
    pub fn optimal<M: CostModel>(&self, model: &M, rule: RoundRule) -> OptimizedPlan {
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
        if let Some(plan) = self.plans.get(&key) {
            debug_assert!(
                same_plan(&plan, &ordering_search(model, rule).0),
                "plan memo returned a plan the search does not find:\n{}",
                plan.plan.listing()
            );
            return plan;
        }
        let plan = ordering_search(model, rule).0;
        self.plans.insert(&key, plan.clone());
        plan
    }
}

/// Bit-for-bit equality of everything an [`OptimizedPlan`] holds.
fn same_plan(a: &OptimizedPlan, b: &OptimizedPlan) -> bool {
    let bits = |sizes: &[f64]| sizes.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.plan == b.plan
        && a.spec == b.spec
        && a.cost.value().to_bits() == b.cost.value().to_bits()
        && bits(&a.round_sizes) == bits(&b.round_sizes)
}
