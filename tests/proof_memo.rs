//! The two proof tables of a `Memos` — proved plan shapes behind
//! `ensure_sound`, containment verdicts behind `subsumes` — may change
//! how often a prover runs and nothing else: every verdict, every
//! refusal text and every answer is what the un-memoised prover gives.
//!
//! Each test asks a `Memos` of its own and asserts its absolute
//! `(misses, hits, entries, resets)`.

mod common;

use std::sync::Barrier;

use common::mutants::{filter22, loaded22, mutant_corpus, semijoin22};
use common::{counts, Gen};
use fusion::core::analyze::{
    ensure_sound, Memos, CONTAINMENT_MEMO_PREDICATES, CONTAINMENT_MEMO_VERDICTS,
    PROOF_MEMO_CAPACITY,
};
use fusion::core::plan::{Plan, SimplePlanSpec, Step, VarId};
use fusion::core::{analyze_plan, sja_optimal};
use fusion::exec::execute_plan;
use fusion::types::{Attribute, CmpOp, Predicate, Schema, Tuple, Value, ValueType};
use fusion::workload::synth::{synth_scenario, SynthSpec};

/// The refusal the un-memoised analyzer words for a refuted plan.
fn reference_refusal(plan: &Plan) -> String {
    analyze_plan(plan)
        .unwrap()
        .require_proved()
        .unwrap_err()
        .to_string()
}

/// A sound plan: FILTER over `n` sources with `pad` trailing variables
/// nothing defines or reads.
fn padded_filter(m: usize, n: usize, pad: usize) -> Plan {
    let mut plan = SimplePlanSpec::filter(m, n).build(n).unwrap();
    for k in 0..pad {
        plan.fresh_var(format!("PAD{k}"));
    }
    plan
}

// ---------- (a) refutations are never remembered ---------------------------

#[test]
fn mutants_are_refused_alike_cold_warm_and_twice() {
    let memos = Memos::new();
    let corpus = mutant_corpus();
    let n = corpus.len() as u64;
    // Cold: nothing sound of these shapes has been asked yet.
    let cold: Vec<String> = corpus
        .iter()
        .map(|(name, plan)| {
            let text = memos.ensure_sound(plan).unwrap_err().to_string();
            assert_eq!(text, reference_refusal(plan), "{name}: cold refusal");
            assert!(
                text.contains("refusing to execute a semantically unsound plan"),
                "{name}: {text}"
            );
            text
        })
        .collect();
    assert_eq!(counts(memos.stats().proofs), (n, 0, 0, 0));
    // Memoise the sound originals every mutant was derived from.
    for (steps, result) in [filter22(), semijoin22(), loaded22()] {
        let original = Plan::new(steps, result, 2, 2);
        memos.ensure_sound(&original).unwrap();
        memos.ensure_sound(&original).unwrap();
    }
    assert_eq!(
        counts(memos.stats().proofs),
        (n + 3, 3, 3, 0),
        "originals kept"
    );
    // Warm, and asked twice: the same bytes, and a proof every time.
    for ((name, plan), cold) in corpus.iter().zip(&cold) {
        for round in 0..2 {
            let text = memos.ensure_sound(plan).unwrap_err().to_string();
            assert_eq!(&text, cold, "{name}: round {round}");
        }
    }
    // Proved again, neither served nor kept.
    assert_eq!(counts(memos.stats().proofs), (3 * n + 3, 3, 3, 0));
}

#[test]
fn executors_refuse_a_mutant_after_running_its_original() {
    let scenario = synth_scenario(&SynthSpec::default_with(2, 23), &[0.3, 0.4]);
    let truth = scenario.ground_truth().unwrap();
    let (steps, result) = filter22();
    let original = Plan::new(steps, result, 2, 2);
    for _ in 0..2 {
        let out = execute_plan(
            &original,
            &scenario.query,
            &scenario.sources,
            &mut scenario.network(),
        )
        .unwrap();
        assert_eq!(out.answer, truth);
    }
    for (name, plan) in mutant_corpus() {
        let err = execute_plan(
            &plan,
            &scenario.query,
            &scenario.sources,
            &mut scenario.network(),
        )
        .unwrap_err();
        assert_eq!(err.to_string(), reference_refusal(&plan), "{name}");
    }
    // A structurally broken plan keeps its validation error on every ask.
    let mut broken = original;
    broken.result = VarId(999);
    let first = ensure_sound(&broken).unwrap_err().to_string();
    assert_eq!(first, broken.validate().unwrap_err().to_string());
    assert_eq!(ensure_sound(&broken).unwrap_err().to_string(), first);
}

// ---------- (b) a near miss is decided on its own ---------------------------

#[test]
fn plans_one_field_away_from_a_memoised_one_are_decided_on_their_own() {
    let memos = Memos::new();
    let base = padded_filter(3, 3, 11);
    memos.ensure_sound(&base).unwrap();
    memos.ensure_sound(&base).unwrap();
    assert_eq!(counts(memos.stats().proofs), (1, 1, 1, 0));

    // One step differs: a union forgets an operand.
    let mut one_step = base.clone();
    let union_at = one_step
        .steps
        .iter()
        .position(|s| matches!(s, Step::Union { .. }))
        .unwrap();
    if let Step::Union { inputs, .. } = &mut one_step.steps[union_at] {
        inputs.pop();
    }
    // `result` differs: an intermediate union is called the answer.
    let mut other_result = base.clone();
    other_result.result = base.steps[union_at].defined_var().unwrap();
    // `n_sources` differs: a fourth source exists and is never asked.
    let mut more_sources = base.clone();
    more_sources.n_sources += 1;
    for (k, (what, plan)) in [
        ("one step", &one_step),
        ("result", &other_result),
        ("n_sources", &more_sources),
    ]
    .into_iter()
    .enumerate()
    {
        let text = memos.ensure_sound(plan).unwrap_err().to_string();
        assert_eq!(text, reference_refusal(plan), "{what}");
        let proved = counts(memos.stats().proofs);
        assert_eq!(
            proved,
            (2 + k as u64, 1, 1, 0),
            "{what}: not its neighbour's proof"
        );
    }

    // A trailing unused variable: still sound, but its own proof and entry.
    let mut wider = base.clone();
    wider.fresh_var("UNUSED");
    memos.ensure_sound(&wider).unwrap();
    assert_eq!(counts(memos.stats().proofs), (5, 1, 2, 0));

    // Names are not part of the shape: a renamed twin is a hit.
    let mut renamed = base;
    renamed.var_names[0] = "SOMETHING_ELSE".into();
    memos.ensure_sound(&renamed).unwrap();
    assert_eq!(counts(memos.stats().proofs), (5, 2, 2, 0));
}

/// A second pass over the same stream of optimizer plans proves nothing.
#[test]
fn a_repeated_query_stream_adds_no_proof_misses() {
    let memos = Memos::new();
    let plans: Vec<Plan> = (0..24u64)
        .map(|seed| {
            let mut g = Gen::new(0xBEEF ^ seed);
            let (m, n) = (2 + g.0.next_below(4), 2 + g.0.next_below(5));
            sja_optimal(&g.model(m, n)).plan
        })
        .collect();
    for plan in &plans {
        memos.ensure_sound(plan).unwrap();
    }
    let first = memos.stats().proofs;
    assert_eq!(first.misses + first.hits, plans.len() as u64);
    assert_eq!((first.entries, first.resets), (first.misses, 0));
    for plan in &plans {
        memos.ensure_sound(plan).unwrap();
    }
    let second = memos.stats().proofs;
    assert_eq!(
        counts(second),
        (
            first.misses,
            first.hits + plans.len() as u64,
            first.entries,
            0
        )
    );
}

// ---------- (c) containment verdicts ----------------------------------------

/// The two attributes a predicate pool ranges over.
type Attrs = [&'static str; 2];

fn containment_schema(attrs: Attrs) -> Schema {
    let mut all = vec![Attribute::new("M", ValueType::Str)];
    all.extend(attrs.map(|a| Attribute::new(a, ValueType::Int)));
    Schema::new(all, "M").unwrap()
}

fn literal(g: &mut Gen) -> Value {
    if g.0.next_below(12) == 0 {
        Value::Null
    } else {
        Value::Int(g.0.next_i64_range(0, 10))
    }
}

fn atom(g: &mut Gen, attrs: Attrs) -> Predicate {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let attr = *g.0.choose(&attrs);
    match g.0.next_below(8) {
        0 => {
            let lo = literal(g);
            let hi = match (&lo, g.0.next_below(8)) {
                (Value::Int(lo), 1..) => Value::Int(lo + g.0.next_i64_range(0, 5)),
                _ => literal(g),
            };
            Predicate::Between {
                attr: attr.into(),
                lo,
                hi,
            }
        }
        1 => Predicate::InList {
            attr: attr.into(),
            values: (0..1 + g.0.next_below(3)).map(|_| literal(g)).collect(),
        },
        2 => Predicate::IsNull { attr: attr.into() },
        _ => Predicate::Cmp {
            attr: attr.into(),
            op: *g.0.choose(&OPS),
            value: literal(g),
        },
    }
}

fn predicate(g: &mut Gen, attrs: Attrs, depth: usize) -> Predicate {
    if depth == 0 {
        return atom(g, attrs);
    }
    let sub = |g: &mut Gen| predicate(g, attrs, depth - 1);
    match g.0.next_below(6) {
        0 => Predicate::Not(Box::new(sub(g))),
        1 => Predicate::And(vec![sub(g), sub(g)]),
        2 => Predicate::Or(vec![sub(g), sub(g)]),
        _ => atom(g, attrs),
    }
}

/// `size` distinct seeded predicates over `attrs`.
fn predicate_pool(seed: u64, attrs: Attrs, size: usize) -> Vec<Predicate> {
    let mut g = Gen::new(seed);
    let mut pool: Vec<Predicate> = Vec::new();
    while pool.len() < size {
        let p = predicate(&mut g, attrs, 2);
        if !pool.contains(&p) {
            pool.push(p);
        }
    }
    pool
}

/// `memos.subsumes` over every ordered pair of `pool`, row-major.
fn all_pairs(memos: &Memos, pool: &[Predicate]) -> Vec<bool> {
    pool.iter()
        .flat_map(|broad| pool.iter().map(move |narrow| memos.subsumes(broad, narrow)))
        .collect()
}

/// [`all_pairs`] from four threads released together.
fn all_pairs_x4(memos: &Memos, pool: &[Predicate]) -> Vec<Vec<bool>> {
    let gate = Barrier::new(4);
    std::thread::scope(|scope| {
        let asks: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    all_pairs(memos, pool)
                })
            })
            .collect();
        asks.into_iter().map(|a| a.join().unwrap()).collect()
    })
}

#[test]
fn containment_verdicts_repeat_from_the_memo_and_across_threads() {
    let memos = Memos::new();
    const ATTRS: Attrs = ["PM_A", "PM_B"];
    let pool = predicate_pool(0x5EED_C0DE, ATTRS, 104);
    let pairs = (pool.len() * pool.len()) as u64;
    assert!(pairs >= 10_000);

    // First ask of each pair: the memo cannot know it, so what comes
    // back is the prover's own verdict.
    let proved = all_pairs(&memos, &pool);
    assert_eq!(counts(memos.stats().verdicts), (pairs, 0, pairs, 0));

    // Asked twice: the same verdicts, no prover run.
    assert_eq!(all_pairs(&memos, &pool), proved);
    assert_eq!(counts(memos.stats().verdicts), (pairs, pairs, pairs, 0));

    // From four threads at once: the same again.
    for run in all_pairs_x4(&memos, &pool) {
        assert_eq!(run, proved);
    }
    assert_eq!(counts(memos.stats().verdicts), (pairs, 5 * pairs, pairs, 0));

    // The verdicts themselves: reflexive, both directions asked, strict
    // containments among them, and every proof sound on a value grid
    // that includes NULL.
    let n = pool.len();
    let strict = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .filter(|&(a, b)| proved[a * n + b] && !proved[b * n + a])
        .count();
    assert!(strict >= 100, "only {strict} strict containments");
    let schema = containment_schema(ATTRS);
    let cells: Vec<Value> = std::iter::once(Value::Null)
        .chain((-1..=11).map(Value::Int))
        .collect();
    let grid: Vec<Tuple> = cells
        .iter()
        .flat_map(|a| {
            cells
                .iter()
                .map(move |b| Tuple::new(vec![Value::str("x"), a.clone(), b.clone()]))
        })
        .collect();
    let holds: Vec<Vec<bool>> = pool
        .iter()
        .map(|p| grid.iter().map(|t| p.eval(t, &schema).unwrap()).collect())
        .collect();
    for a in 0..n {
        assert!(proved[a * n + a], "{} ⊄ itself", pool[a]);
        for b in 0..n {
            if proved[a * n + b] {
                let broken = (0..grid.len()).find(|&t| holds[b][t] && !holds[a][t]);
                assert!(
                    broken.is_none(),
                    "proved {} ⊇ {} but tuple {:?} separates them",
                    pool[a],
                    pool[b],
                    broken.map(|t| &grid[t])
                );
            }
        }
    }
}

#[test]
fn racing_first_asks_agree_with_a_later_one() {
    let memos = Memos::new();
    let pool = predicate_pool(0xFACE_FEED, ["PM_RACE_A", "PM_RACE_B"], 24);
    let pairs = (pool.len() * pool.len()) as u64;
    let raced = all_pairs_x4(&memos, &pool);
    // Each pair was decided at least once and at most once per thread.
    let (misses, hits, entries, resets) = counts(memos.stats().verdicts);
    assert!((pairs..=4 * pairs).contains(&misses), "{misses}");
    assert_eq!((misses + hits, entries, resets), (4 * pairs, pairs, 0));
    let settled = all_pairs(&memos, &pool);
    assert_eq!(
        counts(memos.stats().verdicts),
        (misses, hits + pairs, pairs, 0)
    );
    for run in &raced {
        assert_eq!(run, &settled);
    }
}

// ---------- (d) past capacity ------------------------------------------------

#[test]
fn overfull_plan_memo_keeps_verdicts_right_and_stays_bounded() {
    let memos = Memos::new();
    let capacity = PROOF_MEMO_CAPACITY as u64;
    let (mutant_name, mutant) = mutant_corpus().swap_remove(0);
    let refusal = reference_refusal(&mutant);
    let mut refused = 0;
    for pad in 0..PROOF_MEMO_CAPACITY + 64 {
        memos.ensure_sound(&padded_filter(1, 9, pad)).unwrap();
        assert!(memos.stats().proofs.entries <= capacity);
        if pad % 512 == 0 {
            assert_eq!(
                memos.ensure_sound(&mutant).unwrap_err().to_string(),
                refusal,
                "{mutant_name}"
            );
            refused += 1;
        }
    }
    // `capacity + 64` shapes overflow once: the newest 64 are left.
    let asked = capacity + 64 + refused;
    assert_eq!(counts(memos.stats().proofs), (asked, 0, 64, 1));
    // Whatever the reset dropped is simply proved again; the newest
    // shape outlived it.
    memos.ensure_sound(&padded_filter(1, 9, 0)).unwrap();
    memos
        .ensure_sound(&padded_filter(1, 9, PROOF_MEMO_CAPACITY + 63))
        .unwrap();
    assert_eq!(
        memos.ensure_sound(&mutant).unwrap_err().to_string(),
        refusal
    );
    assert_eq!(counts(memos.stats().proofs), (asked + 2, 1, 65, 1));
}

#[test]
fn overfull_containment_memo_keeps_verdicts_right_and_stays_bounded() {
    let memos = Memos::new();
    let lt = |v: i64| Predicate::cmp("PM_FILL", CmpOp::Lt, v);
    let rounds = CONTAINMENT_MEMO_PREDICATES as u64 / 2 + 64;
    // Two new predicates a round: the intern table is full after
    // `CONTAINMENT_MEMO_PREDICATES / 2` rounds (each round's second
    // verdict names no new predicate), so the next round's first
    // verdict clears it, and the 64 rounds from there on stay.
    for k in 0..rounds as i64 {
        let (narrow, broad) = (lt(2 * k), lt(2 * k + 1));
        assert!(memos.subsumes(&broad, &narrow), "k={k}");
        assert!(!memos.subsumes(&narrow, &broad), "k={k}");
        assert!(memos.stats().verdicts.entries <= CONTAINMENT_MEMO_VERDICTS as u64);
    }
    assert_eq!(counts(memos.stats().verdicts), (2 * rounds, 0, 2 * 64, 1));
    // Dropped verdicts are decided again, the same way.
    assert!(memos.subsumes(&lt(1), &lt(0)) && !memos.subsumes(&lt(0), &lt(1)));
    // The newest verdict outlives the reset.
    let newest = 2 * rounds as i64 - 2;
    assert!(memos.subsumes(&lt(newest + 1), &lt(newest)));
    assert_eq!(
        counts(memos.stats().verdicts),
        (2 * rounds + 2, 1, 2 * 64 + 2, 1)
    );
}
