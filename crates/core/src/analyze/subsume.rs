//! Condition containment: the prover behind [`Memos::subsumes`].
//!
//! A cached answer for a *broad* condition can serve a *narrow* query
//! condition after a local residual filter exactly when every tuple
//! satisfying the narrow condition also satisfies the broad one. This
//! module decides that containment by compiling both predicates to a
//! BDD over shared comparison atoms plus *theory axioms* — clauses
//! relating atoms on the same attribute that hold for every possible
//! attribute value — and checking that `narrow ∧ ¬broad` is
//! unsatisfiable under the axioms.
//!
//! The prover is **sound but incomplete**: a `true` answer is a proof
//! of containment (only order-theoretic facts valid in *every* totally
//! ordered domain are used — no density or integer-adjacency reasoning),
//! while a `false` answer merely means no proof was found. Incomplete
//! is safe here: a missed subsumption is a cache miss, never a wrong
//! answer.
//!
//! The verdict is a pure function of the two predicates up to
//! [`Predicate`]'s own equality (atoms are keyed by the same `Eq`/`Hash`
//! on attribute, operator and literal; the axioms are conjoined, so the
//! order a `HashMap` hands the attribute groups out in cannot change the
//! outcome). [`Memos::subsumes`] therefore runs the prover once per
//! distinct ordered pair and afterwards answers from its verdict table —
//! "not proved" is remembered like "proved".

use super::bdd::{BddManager, NodeId, FALSE, TRUE};
use super::memo::{Memos, Table};
use fusion_types::{CmpOp, Predicate, Value};
use std::collections::HashMap;

/// An atomic predicate after normalization, usable as a BDD variable key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Atom {
    /// `attr op value` with a non-NULL literal.
    Cmp {
        attr: String,
        op: CmpOp,
        value: Value,
    },
    /// `attr LIKE pattern` — opaque beyond structural equality.
    Like { attr: String, pattern: String },
    /// `attr IS NULL`.
    IsNull { attr: String },
    /// `attr BETWEEN lo AND hi` with a NULL bound — opaque (NULL bounds
    /// compare through the raw value order, unlike [`Predicate::Cmp`]).
    OpaqueBetween { attr: String, lo: Value, hi: Value },
}

impl Atom {
    fn attr(&self) -> &str {
        match self {
            Atom::Cmp { attr, .. }
            | Atom::Like { attr, .. }
            | Atom::IsNull { attr }
            | Atom::OpaqueBetween { attr, .. } => attr,
        }
    }

    /// True for atoms that are false on a NULL attribute value.
    fn null_rejecting(&self) -> bool {
        !matches!(self, Atom::IsNull { .. })
    }
}

/// Atom-to-BDD-variable environment shared by both predicates.
struct Env {
    mgr: BddManager,
    vars: HashMap<Atom, NodeId>,
    order: Vec<Atom>,
}

impl Env {
    fn new() -> Env {
        Env {
            mgr: BddManager::new(),
            vars: HashMap::new(),
            order: Vec::new(),
        }
    }

    fn atom(&mut self, a: Atom) -> NodeId {
        if let Some(&n) = self.vars.get(&a) {
            return n;
        }
        let v = self.mgr.fresh_var();
        let n = self.mgr.var(v);
        self.vars.insert(a.clone(), n);
        self.order.push(a);
        n
    }
}

/// Compiles a predicate to a BDD node over the shared atom environment.
fn compile(env: &mut Env, p: &Predicate) -> NodeId {
    match p {
        Predicate::Cmp { attr, op, value } => {
            // A NULL literal fails every comparison for every tuple.
            if matches!(value, Value::Null) {
                FALSE
            } else {
                env.atom(Atom::Cmp {
                    attr: attr.clone(),
                    op: *op,
                    value: value.clone(),
                })
            }
        }
        Predicate::Between { attr, lo, hi } => {
            // With non-NULL bounds, BETWEEN evaluates exactly like the
            // conjunction of the two closed comparisons.
            if matches!(lo, Value::Null) || matches!(hi, Value::Null) {
                env.atom(Atom::OpaqueBetween {
                    attr: attr.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                })
            } else {
                let a = compile(env, &Predicate::cmp(attr.clone(), CmpOp::Ge, lo.clone()));
                let b = compile(env, &Predicate::cmp(attr.clone(), CmpOp::Le, hi.clone()));
                env.mgr.and(a, b)
            }
        }
        Predicate::InList { attr, values } => {
            // `v IN (…)` is the disjunction of equalities; NULL list
            // members never match, mirroring the evaluator.
            let mut acc = FALSE;
            for v in values {
                let e = compile(env, &Predicate::eq(attr.clone(), v.clone()));
                acc = env.mgr.or(acc, e);
            }
            acc
        }
        Predicate::Like { attr, pattern } => env.atom(Atom::Like {
            attr: attr.clone(),
            pattern: pattern.clone(),
        }),
        Predicate::IsNull { attr } => env.atom(Atom::IsNull { attr: attr.clone() }),
        Predicate::And(ps) => {
            let mut acc = TRUE;
            for q in ps {
                let n = compile(env, q);
                acc = env.mgr.and(acc, n);
            }
            acc
        }
        Predicate::Or(ps) => {
            let mut acc = FALSE;
            for q in ps {
                let n = compile(env, q);
                acc = env.mgr.or(acc, n);
            }
            acc
        }
        Predicate::Not(q) => {
            let n = compile(env, q);
            env.mgr.not(n)
        }
        Predicate::Const(b) => {
            if *b {
                TRUE
            } else {
                FALSE
            }
        }
    }
}

/// The point set a comparison atom denotes, in shapes whose pairwise
/// relations are decidable over *every* totally ordered domain.
#[derive(Debug, Clone, Copy)]
enum Shape<'a> {
    /// `{v}`.
    Point(&'a Value),
    /// Everything except `{v}`.
    CoPoint(&'a Value),
    /// `(-∞, v)` or `(-∞, v]`.
    Down(&'a Value, bool),
    /// `(v, +∞)` or `[v, +∞)`.
    Up(&'a Value, bool),
}

fn shape(op: CmpOp, v: &Value) -> Shape<'_> {
    match op {
        CmpOp::Eq => Shape::Point(v),
        CmpOp::Ne => Shape::CoPoint(v),
        CmpOp::Lt => Shape::Down(v, false),
        CmpOp::Le => Shape::Down(v, true),
        CmpOp::Gt => Shape::Up(v, false),
        CmpOp::Ge => Shape::Up(v, true),
    }
}

/// The complement of a comparison, restricted to non-NULL values.
fn negated(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
    }
}

/// Membership of a concrete point in a shape.
fn member(x: &Value, s: Shape<'_>) -> bool {
    match s {
        Shape::Point(v) => x == v,
        Shape::CoPoint(v) => x != v,
        Shape::Down(v, closed) => x < v || (closed && x == v),
        Shape::Up(v, closed) => x > v || (closed && x == v),
    }
}

/// True when the two shapes are disjoint in **every** totally ordered
/// domain. Conservative: discrete-domain-only disjointness (e.g.
/// integer adjacency) is not claimed.
fn provably_disjoint(a: Shape<'_>, b: Shape<'_>) -> bool {
    match (a, b) {
        (Shape::Point(u), s) | (s, Shape::Point(u)) => !member(u, s),
        (Shape::Down(v1, c1), Shape::Up(v2, c2)) | (Shape::Up(v2, c2), Shape::Down(v1, c1)) => {
            v1 < v2 || (v1 == v2 && !(c1 && c2))
        }
        // CoPoint/Down/Up pairs of the remaining combinations always
        // intersect in some domain: no generic disjointness.
        _ => false,
    }
}

/// Distinct predicates the containment memo names at most.
pub const CONTAINMENT_MEMO_PREDICATES: usize = 4096;
/// Verdicts the containment memo keeps at most.
pub const CONTAINMENT_MEMO_VERDICTS: usize = 65_536;

/// Verdicts by interned predicate pair `(broad, narrow)`. Predicates are
/// stored once each and named by dense ids, so a verdict costs a dozen
/// bytes however large its predicates are. Ids never leave an insert,
/// so a clear cannot leave a verdict that names another predicate.
#[derive(Default)]
pub(crate) struct Verdicts {
    ids: HashMap<Predicate, u32>,
    by_pair: HashMap<(u32, u32), bool>,
}

impl Verdicts {
    fn intern(&mut self, p: &Predicate) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(p.clone()).or_insert(next)
    }
}

impl Table for Verdicts {
    type Key<'k> = (&'k Predicate, &'k Predicate);
    type Value = bool;

    fn get(&self, (broad, narrow): (&Predicate, &Predicate)) -> Option<&bool> {
        let pair = (*self.ids.get(broad)?, *self.ids.get(narrow)?);
        self.by_pair.get(&pair)
    }

    fn insert(&mut self, (broad, narrow): (&Predicate, &Predicate), verdict: bool) {
        let pair = (self.intern(broad), self.intern(narrow));
        self.by_pair.insert(pair, verdict);
    }

    /// Full when the verdict table is, or the intern table has no room
    /// for the predicates of `(broad, narrow)` it does not hold yet.
    fn full(&self, (broad, narrow): (&Predicate, &Predicate)) -> bool {
        let adds = match (self.ids.contains_key(broad), self.ids.contains_key(narrow)) {
            (true, true) => 0,
            (false, false) if broad != narrow => 2,
            _ => 1,
        };
        self.ids.len() + adds > CONTAINMENT_MEMO_PREDICATES
            || self.by_pair.len() >= CONTAINMENT_MEMO_VERDICTS
    }

    fn entries(&self) -> usize {
        self.by_pair.len()
    }
}

impl Memos {
    /// Decides whether `narrow ⊆ broad`: every tuple satisfying `narrow`
    /// also satisfies `broad`, for every relation instance. Sound —
    /// `true` is a proof; `false` only means "not proved". Each distinct
    /// ordered pair is decided once per value (see the module docs).
    pub fn subsumes(&self, broad: &Predicate, narrow: &Predicate) -> bool {
        if let Some(verdict) = self.verdicts.get((broad, narrow)) {
            return verdict;
        }
        let verdict = prove(broad, narrow);
        self.verdicts.insert((broad, narrow), verdict);
        verdict
    }
}

/// The prover behind [`Memos::subsumes`], un-memoised.
fn prove(broad: &Predicate, narrow: &Predicate) -> bool {
    let mut env = Env::new();
    let fb = compile(&mut env, broad);
    let fn_ = compile(&mut env, narrow);
    // Fast paths: identical functions, or constant extremes.
    if fn_ == fb || fn_ == FALSE || fb == TRUE {
        return true;
    }

    // Counterexample candidate: narrow ∧ ¬broad.
    let not_b = env.mgr.not(fb);
    let mut cex = env.mgr.and(fn_, not_b);
    if cex == FALSE {
        return true;
    }

    // Theory axioms. Group atoms per attribute.
    let atoms: Vec<Atom> = env.order.clone();
    let mut by_attr: HashMap<&str, Vec<&Atom>> = HashMap::new();
    for a in &atoms {
        by_attr.entry(a.attr()).or_default().push(a);
    }
    for group in by_attr.values() {
        // One nullness witness per attribute: the IS NULL atom if the
        // predicates mention it, else a fresh variable. Every
        // null-rejecting atom is false on a NULL value, so axioms about
        // *negated* comparisons must allow NULL as the explanation.
        let isnull = group
            .iter()
            .find(|a| matches!(a, Atom::IsNull { .. }))
            .map(|a| env.vars[*a]);
        let null_var = match isnull {
            Some(n) => n,
            None => {
                let v = env.mgr.fresh_var();
                env.mgr.var(v)
            }
        };
        // Axiom: a null-rejecting atom implies the value is not NULL.
        for a in group.iter().filter(|a| a.null_rejecting()) {
            let va = env.vars[*a];
            let nva = env.mgr.not(va);
            let nn = env.mgr.not(null_var);
            let clause = env.mgr.or(nva, nn);
            cex = env.mgr.and(cex, clause);
            if cex == FALSE {
                return true;
            }
        }
        // Pairwise comparison axioms, over all four literal signs: when
        // the (possibly complemented) shapes are provably disjoint,
        // both literals can only hold together if the value is NULL.
        let cmps: Vec<(&Atom, CmpOp, &Value)> = group
            .iter()
            .filter_map(|a| match a {
                Atom::Cmp { op, value, .. } => Some((*a, *op, value)),
                _ => None,
            })
            .collect();
        for i in 0..cmps.len() {
            for j in (i + 1)..cmps.len() {
                let (a1, op1, v1) = cmps[i];
                let (a2, op2, v2) = cmps[j];
                for (s1, s2) in [(true, true), (true, false), (false, true), (false, false)] {
                    let e1 = if s1 { op1 } else { negated(op1) };
                    let e2 = if s2 { op2 } else { negated(op2) };
                    if !provably_disjoint(shape(e1, v1), shape(e2, v2)) {
                        continue;
                    }
                    // Clause: NULL ∨ ¬lit1 ∨ ¬lit2.
                    let mut l1 = env.vars[a1];
                    if !s1 {
                        l1 = env.mgr.not(l1);
                    }
                    let mut l2 = env.vars[a2];
                    if !s2 {
                        l2 = env.mgr.not(l2);
                    }
                    let nl1 = env.mgr.not(l1);
                    let nl2 = env.mgr.not(l2);
                    let c = env.mgr.or(nl1, nl2);
                    let clause = env.mgr.or(null_var, c);
                    cex = env.mgr.and(cex, clause);
                    if cex == FALSE {
                        return true;
                    }
                }
            }
        }
    }
    cex == FALSE
}

#[cfg(test)]
mod tests {
    use super::prove as subsumes;
    use super::*;
    use crate::analyze::memo::SharedMemo;
    use fusion_types::{Schema, Tuple};

    fn lt(attr: &str, v: i64) -> Predicate {
        Predicate::cmp(attr, CmpOp::Lt, v)
    }

    #[test]
    fn memo_agrees_with_the_prover_on_every_pair_of_a_zoo() {
        let between = |lo: i64, hi: i64| Predicate::Between {
            attr: "Z1".into(),
            lo: Value::Int(lo),
            hi: Value::Int(hi),
        };
        let mut zoo = vec![
            Predicate::Const(true),
            Predicate::Const(false),
            Predicate::IsNull { attr: "Z1".into() },
            Predicate::eq("Z1", Value::Null),
            between(3, 8),
            between(5, 6),
            Predicate::Between {
                attr: "Z1".into(),
                lo: Value::Null,
                hi: Value::Int(5),
            },
            Predicate::InList {
                attr: "Z1".into(),
                values: vec![Value::Int(3), Value::Null, Value::Int(5)],
            },
            Predicate::Like {
                attr: "Z2".into(),
                pattern: "J%".into(),
            },
        ];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            zoo.push(Predicate::cmp("Z1", op, 5i64));
            zoo.push(Predicate::cmp("Z1", op, 7i64));
            zoo.push(Predicate::cmp("Z2", op, 5i64));
        }
        for i in 0..zoo.len() {
            zoo.push(Predicate::Not(Box::new(zoo[i].clone())));
        }
        for i in (0..18).step_by(3) {
            zoo.push(Predicate::And(vec![zoo[i].clone(), zoo[i + 9].clone()]));
            zoo.push(Predicate::Or(vec![zoo[i + 1].clone(), zoo[i + 10].clone()]));
        }
        let memos = Memos::new();
        for round in 0..2 {
            for b in &zoo {
                for n in &zoo {
                    assert_eq!(
                        memos.subsumes(b, n),
                        prove(b, n),
                        "round {round}: {b} ⊇ {n}"
                    );
                }
            }
        }
        // Each distinct pair was proved once, on its first ask.
        let stats = memos.stats().verdicts;
        assert_eq!(
            stats.misses + stats.hits,
            2 * (zoo.len() * zoo.len()) as u64
        );
        assert_eq!(stats.entries, stats.misses);
    }

    #[test]
    fn full_verdict_table_clears_then_keeps_the_newcomer() {
        let preds: Vec<Predicate> = (0..257).map(|v| lt("V1", v)).collect();
        let memo = SharedMemo::<Verdicts>::default();
        let mut stored = 0usize;
        'fill: for b in &preds {
            for n in &preds {
                if stored == CONTAINMENT_MEMO_VERDICTS {
                    break 'fill;
                }
                memo.insert((b, n), true);
                stored += 1;
            }
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.resets), (stored as u64, 0));
        assert_eq!(memo.get((&preds[0], &preds[1])), Some(true));
        // One more verdict: everything goes, ids included, and only the
        // newcomer is known afterwards.
        memo.insert((&preds[256], &preds[255]), false);
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.resets), (1, 1));
        assert_eq!(memo.get((&preds[256], &preds[255])), Some(false));
        assert_eq!(memo.get((&preds[0], &preds[1])), None);
        assert_eq!(memo.get((&preds[255], &preds[256])), None);
    }

    #[test]
    fn full_intern_table_clears_verdicts_with_the_ids() {
        let memo = SharedMemo::<Verdicts>::default();
        let pairs = CONTAINMENT_MEMO_PREDICATES as i64 / 2;
        for k in 0..pairs {
            memo.insert((&lt("V2", 2 * k), &lt("V2", 2 * k + 1)), k % 2 == 0);
        }
        assert_eq!(memo.stats().entries, pairs as u64);
        assert_eq!(memo.get((&lt("V2", 2), &lt("V2", 3))), Some(false));
        // No room left for two more names.
        memo.insert((&lt("V2", -1), &lt("V2", -2)), true);
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.resets), (1, 1));
        assert_eq!(memo.get((&lt("V2", 0), &lt("V2", 1))), None);
    }

    #[test]
    fn full_intern_table_takes_a_verdict_on_names_it_holds() {
        let memo = SharedMemo::<Verdicts>::default();
        let pairs = CONTAINMENT_MEMO_PREDICATES as i64 / 2;
        for k in 0..pairs {
            memo.insert((&lt("V3", 2 * k), &lt("V3", 2 * k + 1)), true);
        }
        // Both names are interned: the reversed pair adds no predicate.
        memo.insert((&lt("V3", 1), &lt("V3", 0)), false);
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.resets), (pairs as u64 + 1, 0));
        assert_eq!(memo.get((&lt("V3", 0), &lt("V3", 1))), Some(true));
        // A pair naming one new predicate does not fit.
        memo.insert((&lt("V3", 0), &lt("V3", -1)), true);
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.resets), (1, 1));
    }

    #[test]
    fn range_nesting_is_proved() {
        assert!(subsumes(&lt("A1", 500), &lt("A1", 200)));
        assert!(!subsumes(&lt("A1", 200), &lt("A1", 500)));
        assert!(subsumes(&lt("A1", 500), &lt("A1", 500)));
    }

    #[test]
    fn conjunction_weakening_is_proved() {
        let narrow = Predicate::And(vec![lt("A1", 200), lt("A2", 300)]);
        assert!(subsumes(&lt("A1", 200), &narrow));
        assert!(subsumes(&lt("A2", 300), &narrow));
        assert!(!subsumes(&narrow, &lt("A1", 200)));
    }

    #[test]
    fn disjunction_widening_is_proved() {
        let broad = Predicate::Or(vec![lt("A1", 200), Predicate::eq("A2", 7i64)]);
        assert!(subsumes(&broad, &lt("A1", 200)));
        assert!(subsumes(&broad, &Predicate::eq("A2", 7i64)));
    }

    #[test]
    fn mixed_operator_containment() {
        // A1 = 10  ⊆  A1 <= 10  ⊆  A1 < 50.
        let eq = Predicate::eq("A1", 10i64);
        let le = Predicate::cmp("A1", CmpOp::Le, 10i64);
        assert!(subsumes(&le, &eq));
        assert!(subsumes(&lt("A1", 50), &le));
        assert!(subsumes(&lt("A1", 50), &eq));
        // A1 = 10  ⊆  A1 <> 11.
        assert!(subsumes(&Predicate::cmp("A1", CmpOp::Ne, 11i64), &eq));
        assert!(!subsumes(&Predicate::cmp("A1", CmpOp::Ne, 10i64), &eq));
    }

    #[test]
    fn between_and_inlist_normalize() {
        let between = Predicate::Between {
            attr: "A1".into(),
            lo: fusion_types::Value::Int(10),
            hi: fusion_types::Value::Int(20),
        };
        assert!(subsumes(&lt("A1", 21), &between));
        assert!(subsumes(&Predicate::cmp("A1", CmpOp::Ge, 10i64), &between));
        assert!(!subsumes(&lt("A1", 20), &between)); // hi is inclusive
        let inlist = Predicate::InList {
            attr: "A1".into(),
            values: vec![fusion_types::Value::Int(3), fusion_types::Value::Int(5)],
        };
        assert!(subsumes(&lt("A1", 6), &inlist));
        assert!(subsumes(&inlist, &Predicate::eq("A1", 5i64)));
        assert!(!subsumes(&inlist, &Predicate::eq("A1", 4i64)));
    }

    #[test]
    fn negation_needs_null_care() {
        // ¬(A1 < 10) is NOT implied to contain A1 >= 10: a NULL value
        // satisfies the negation but fails the comparison… other way
        // round: A1 >= 10 ⊆ ¬(A1 < 10) holds (a non-null ≥ 10 fails <).
        let ge = Predicate::cmp("A1", CmpOp::Ge, 10i64);
        let not_lt = Predicate::Not(Box::new(lt("A1", 10)));
        assert!(subsumes(&not_lt, &ge));
        // But ¬(A1 < 10) ⊄ A1 >= 10: NULL is a counterexample.
        assert!(!subsumes(&ge, &not_lt));
    }

    #[test]
    fn negation_flips_containment_antitone() {
        // The sharing analyzer must never treat `A − B` (or any negated
        // position) as monotone: A1 < 500 ⊇ A1 < 200, and under ¬ the
        // containment FLIPS — ¬(A1 < 200) ⊇ ¬(A1 < 500), not the other
        // way round. Both directions are exercised so a sign error in
        // the axioms would be caught.
        assert!(subsumes(&lt("A1", 500), &lt("A1", 200)));
        let not_narrow = Predicate::Not(Box::new(lt("A1", 200)));
        let not_broad = Predicate::Not(Box::new(lt("A1", 500)));
        assert!(subsumes(&not_narrow, &not_broad));
        assert!(!subsumes(&not_broad, &not_narrow));
    }

    #[test]
    fn demorgan_and_double_negation() {
        let p = lt("A1", 10);
        let q = Predicate::eq("A2", 3i64);
        // ¬p ⊆ ¬(p ∧ q) — propositional, no theory needed.
        let not_p = Predicate::Not(Box::new(p.clone()));
        let not_and = Predicate::Not(Box::new(Predicate::And(vec![p.clone(), q])));
        assert!(subsumes(&not_and, &not_p));
        assert!(!subsumes(&not_p, &not_and));
        // ¬¬p is the same BDD as p: both directions are proved.
        let not_not_p = Predicate::Not(Box::new(not_p));
        assert!(subsumes(&p, &not_not_p));
        assert!(subsumes(&not_not_p, &p));
    }

    #[test]
    fn negated_between_contains_the_upper_tail() {
        // ¬(A1 BETWEEN 10 AND 20) ⊇ A1 > 20: a non-null value above the
        // range fails the upper bound, and > excludes NULL.
        let between = Predicate::Between {
            attr: "A1".into(),
            lo: fusion_types::Value::Int(10),
            hi: fusion_types::Value::Int(20),
        };
        let not_between = Predicate::Not(Box::new(between));
        let tail = Predicate::cmp("A1", CmpOp::Gt, 20i64);
        assert!(subsumes(&not_between, &tail));
        // The converse fails: NULL satisfies ¬BETWEEN but not `>`.
        assert!(!subsumes(&tail, &not_between));
    }

    #[test]
    fn null_bounded_between_is_opaque() {
        // A NULL bound routes BETWEEN through the raw value order, so
        // the prover treats it as an opaque atom: only structural
        // equality proves anything.
        let opaque = Predicate::Between {
            attr: "A1".into(),
            lo: fusion_types::Value::Null,
            hi: fusion_types::Value::Int(5),
        };
        assert!(subsumes(&opaque, &opaque));
        assert!(!subsumes(&lt("A1", 6), &opaque));
        assert!(!subsumes(&opaque, &lt("A1", 6)));
    }

    #[test]
    fn contradictory_narrow_is_contained_in_anything() {
        // A1 < 10 ∧ A1 > 20 is unsatisfiable by the disjointness
        // axioms, so it is contained even in a predicate over a
        // different attribute.
        let contradiction =
            Predicate::And(vec![lt("A1", 10), Predicate::cmp("A1", CmpOp::Gt, 20i64)]);
        assert!(subsumes(&Predicate::eq("Z9", 1i64), &contradiction));
    }

    #[test]
    fn no_discrete_adjacency_reasoning() {
        // Over the integers A1 < 10 ⊆ A1 <= 9, but the prover must not
        // claim it: only dense-safe facts are used.
        assert!(!subsumes(
            &Predicate::cmp("A1", CmpOp::Le, 9i64),
            &lt("A1", 10)
        ));
    }

    #[test]
    fn is_null_and_like_atoms() {
        let isnull = Predicate::IsNull { attr: "A1".into() };
        assert!(subsumes(&isnull, &isnull));
        // A comparison excludes NULL.
        let not_null = Predicate::Not(Box::new(isnull.clone()));
        assert!(subsumes(&not_null, &lt("A1", 10)));
        assert!(!subsumes(&isnull, &lt("A1", 10)));
        let like = Predicate::Like {
            attr: "M".into(),
            pattern: "J%".into(),
        };
        assert!(subsumes(&like, &like));
        assert!(subsumes(&not_null_of("M"), &like));
    }

    fn not_null_of(attr: &str) -> Predicate {
        Predicate::Not(Box::new(Predicate::IsNull { attr: attr.into() }))
    }

    #[test]
    fn distinct_attributes_are_independent() {
        assert!(!subsumes(&lt("A1", 500), &lt("A2", 200)));
    }

    #[test]
    fn proof_matches_evaluation_on_a_grid() {
        // Exhaustively validate soundness of a proved pair on concrete
        // tuples: whenever narrow holds, broad must hold.
        use fusion_types::{Attribute, Value, ValueType};
        let schema = Schema::new(
            vec![
                Attribute::new("M", ValueType::Str),
                Attribute::new("A1", ValueType::Int),
            ],
            "M",
        )
        .unwrap();
        let broad = Predicate::Or(vec![lt("A1", 40), Predicate::eq("A1", 77i64)]);
        let narrow = Predicate::And(vec![
            lt("A1", 60),
            Predicate::Or(vec![lt("A1", 30), Predicate::eq("A1", 77i64)]),
        ]);
        assert!(subsumes(&broad, &narrow));
        for x in -5..100 {
            let t = Tuple::new(vec![Value::str("e"), Value::Int(x)]);
            let n = narrow.eval(&t, &schema).unwrap();
            let b = broad.eval(&t, &schema).unwrap();
            assert!(!n || b, "x={x}: narrow held but broad did not");
        }
    }
}
