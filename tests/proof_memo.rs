//! The two process-wide proof memos — proved plan shapes behind
//! `ensure_sound`, containment verdicts behind `subsumes` — may change
//! how often a prover runs and nothing else: every verdict, every
//! refusal text and every answer is what the un-memoised prover gives.
//!
//! The memos are shared by every test of this binary, so each test holds
//! [`SERIAL`] and asserts verdicts plus counter *deltas* over keys of its
//! own, never absolute counts.

mod common;

use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use common::mutants::{filter22, loaded22, mutant_corpus, semijoin22};
use common::Gen;
use fusion::cache::subsume::{CONTAINMENT_MEMO_PREDICATES, CONTAINMENT_MEMO_VERDICTS};
use fusion::cache::{containment_memo_stats, subsumes};
use fusion::core::analyze::{ensure_sound, proof_memo_stats, ProofMemoStats, PROOF_MEMO_CAPACITY};
use fusion::core::plan::{Plan, SimplePlanSpec, Step, VarId};
use fusion::core::{analyze_plan, sja_optimal};
use fusion::exec::{execute_plan, run, RetryPolicy, RunOptions, Schedule, Target};
use fusion::net::FaultPlan;
use fusion::types::{
    Attribute, CmpOp, CondId, Predicate, Schema, SourceId, Tuple, Value, ValueType,
};
use fusion::workload::synth::{synth_scenario, SynthSpec};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the others still have to run alone.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The refusal the un-memoised analyzer words for a refuted plan.
fn reference_refusal(plan: &Plan) -> String {
    analyze_plan(plan)
        .unwrap()
        .require_proved()
        .unwrap_err()
        .to_string()
}

/// What the counters behind `stats` moved by while `ask` ran:
/// `(misses, hits, entries)`.
fn moved(stats: fn() -> ProofMemoStats, ask: impl FnOnce()) -> (u64, u64, i64) {
    let before = stats();
    ask();
    let after = stats();
    (
        after.misses - before.misses,
        after.hits - before.hits,
        after.entries as i64 - before.entries as i64,
    )
}

/// A sound plan no other test asks about: FILTER over `n` sources with
/// `pad` trailing variables nothing defines or reads.
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
    let _alone = serial();
    let corpus = mutant_corpus();
    // Cold: nothing sound of these shapes need have been asked yet.
    let cold: Vec<String> = corpus
        .iter()
        .map(|(name, plan)| {
            let text = ensure_sound(plan).unwrap_err().to_string();
            assert_eq!(text, reference_refusal(plan), "{name}: cold refusal");
            assert!(
                text.contains("refusing to execute a semantically unsound plan"),
                "{name}: {text}"
            );
            text
        })
        .collect();
    // Memoise the sound originals every mutant was derived from.
    for (steps, result) in [filter22(), semijoin22(), loaded22()] {
        let original = Plan::new(steps, result, 2, 2);
        ensure_sound(&original).unwrap();
        let again = moved(proof_memo_stats, || ensure_sound(&original).unwrap());
        assert_eq!(again, (0, 1, 0), "original was remembered");
    }
    // Warm, and asked twice: the same bytes, and a proof every time.
    for ((name, plan), cold) in corpus.iter().zip(&cold) {
        for round in 0..2 {
            let delta = moved(proof_memo_stats, || {
                let text = ensure_sound(plan).unwrap_err().to_string();
                assert_eq!(&text, cold, "{name}: round {round}");
            });
            // Proved again, neither served nor kept.
            assert_eq!(delta, (1, 0, 0), "{name}: round {round}");
        }
    }
}

#[test]
fn executors_refuse_a_mutant_after_running_its_original() {
    let _alone = serial();
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

/// The staged driver guards through the memo like `execute_plan`: a run
/// without a retry policy of an already-proved plan proves nothing, and
/// the analysis a drop needs is only built when a step is dropped —
/// where a drop that would grow the answer is still refused.
#[test]
fn a_staged_run_proves_nothing_until_a_step_is_dropped() {
    let _alone = serial();
    let scenario = synth_scenario(&SynthSpec::default_with(2, 23), &[0.3, 0.4]);
    let truth = scenario.ground_truth().unwrap();
    // FILTER, plus `∪ (B − S)` with B and S the same selection asked
    // twice: sound (B − S = ∅), but losing S alone would let B through.
    let (mut steps, filter_result) = filter22();
    for out in [VarId(7), VarId(8)] {
        steps.push(Step::Sq {
            out,
            cond: CondId(0),
            source: SourceId(0),
        });
    }
    steps.push(Step::Diff {
        out: VarId(9),
        left: VarId(7),
        right: VarId(8),
    });
    steps.push(Step::Union {
        out: VarId(10),
        inputs: vec![filter_result, VarId(9)],
    });
    let subtrahend_at = 8;
    let plan = Plan::new(steps, VarId(10), 2, 2);
    ensure_sound(&plan).unwrap();
    let (q, sources) = (&scenario.query, &scenario.sources);
    let staged = |retry| RunOptions {
        schedule: Schedule::Stages {
            threads: 2,
            pace: None,
        },
        retry,
        cache: None,
    };
    let delta = moved(proof_memo_stats, || {
        let out = run(
            Target::Plan(&plan),
            q,
            sources,
            &mut scenario.network(),
            staged(None),
        );
        assert_eq!(out.unwrap().outcome.answer, truth);
    });
    assert_eq!(delta, (0, 1, 0), "one memo hit, no proof");
    // R1 answers its first three queries and goes dark before the fourth.
    let mut network = scenario.network();
    network.set_fault_plan(FaultPlan::none(2).with_outage(SourceId(0), 3));
    let retry = RetryPolicy::default();
    let err = run(
        Target::Plan(&plan),
        q,
        sources,
        &mut network,
        staged(Some(&retry)),
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "execution error: source failure at step #{subtrahend_at}: dropping it would not \
             yield a sound subset of the fusion answer (the step's value is used \
             non-monotonically); aborting instead"
        )
    );
}

// ---------- (b) a near miss is decided on its own ---------------------------

#[test]
fn plans_one_field_away_from_a_memoised_one_are_decided_on_their_own() {
    let _alone = serial();
    let base = padded_filter(3, 3, 11);
    let first_two = moved(proof_memo_stats, || {
        ensure_sound(&base).unwrap();
        ensure_sound(&base).unwrap();
    });
    assert_eq!(first_two, (1, 1, 1));

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
    for (what, plan) in [
        ("one step", &one_step),
        ("result", &other_result),
        ("n_sources", &more_sources),
    ] {
        let delta = moved(proof_memo_stats, || {
            let text = ensure_sound(plan).unwrap_err().to_string();
            assert_eq!(text, reference_refusal(plan), "{what}");
        });
        assert_eq!(delta, (1, 0, 0), "{what}: not its neighbour's proof");
    }

    // A trailing unused variable: still sound, but its own proof and entry.
    let mut wider = base.clone();
    wider.fresh_var("UNUSED");
    let delta = moved(proof_memo_stats, || ensure_sound(&wider).unwrap());
    assert_eq!(delta, (1, 0, 1));

    // Names are not part of the shape: a renamed twin is a hit.
    let mut renamed = base;
    renamed.var_names[0] = "SOMETHING_ELSE".into();
    let delta = moved(proof_memo_stats, || ensure_sound(&renamed).unwrap());
    assert_eq!(delta, (0, 1, 0));
}

/// A second pass over the same stream of optimizer plans proves nothing.
#[test]
fn a_repeated_query_stream_adds_no_proof_misses() {
    let _alone = serial();
    let plans: Vec<Plan> = (0..24u64)
        .map(|seed| {
            let mut g = Gen::new(0xBEEF ^ seed);
            let (m, n) = (2 + g.0.next_below(4), 2 + g.0.next_below(5));
            sja_optimal(&g.model(m, n)).plan
        })
        .collect();
    for plan in &plans {
        ensure_sound(plan).unwrap();
    }
    let second_pass = moved(proof_memo_stats, || {
        for plan in &plans {
            ensure_sound(plan).unwrap();
        }
    });
    assert_eq!(second_pass, (0, plans.len() as u64, 0));
}

// ---------- (c) containment verdicts ----------------------------------------

/// Two attribute names per test, mentioned nowhere else, so that every
/// predicate pair is new to the memo when its test first asks.
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

/// `subsumes` over every ordered pair of `pool`, row-major.
fn all_pairs(pool: &[Predicate]) -> Vec<bool> {
    pool.iter()
        .flat_map(|broad| pool.iter().map(move |narrow| subsumes(broad, narrow)))
        .collect()
}

/// [`all_pairs`] from four threads released together.
fn all_pairs_x4(pool: &[Predicate]) -> Vec<Vec<bool>> {
    let gate = Barrier::new(4);
    std::thread::scope(|scope| {
        let asks: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    all_pairs(pool)
                })
            })
            .collect();
        asks.into_iter().map(|a| a.join().unwrap()).collect()
    })
}

#[test]
fn containment_verdicts_repeat_from_the_memo_and_across_threads() {
    let _alone = serial();
    const ATTRS: Attrs = ["PM_A", "PM_B"];
    let pool = predicate_pool(0x5EED_C0DE, ATTRS, 104);
    let pairs = (pool.len() * pool.len()) as u64;
    assert!(pairs >= 10_000);

    // First ask of each pair: the memo cannot know it, so what comes
    // back is the prover's own verdict.
    let mut proved = Vec::new();
    let first = moved(containment_memo_stats, || proved = all_pairs(&pool));
    assert_eq!(first, (pairs, 0, pairs as i64), "every pair was new");

    // Asked twice: the same verdicts, no prover run.
    let second = moved(containment_memo_stats, || {
        assert_eq!(all_pairs(&pool), proved);
    });
    assert_eq!(second, (0, pairs, 0));

    // From four threads at once: the same again.
    let threaded = moved(containment_memo_stats, || {
        for run in all_pairs_x4(&pool) {
            assert_eq!(run, proved);
        }
    });
    assert_eq!(threaded, (0, 4 * pairs, 0));

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
    let _alone = serial();
    let pool = predicate_pool(0xFACE_FEED, ["PM_RACE_A", "PM_RACE_B"], 24);
    let pairs = (pool.len() * pool.len()) as u64;
    let mut raced = Vec::new();
    let (misses, _, entries) = moved(containment_memo_stats, || raced = all_pairs_x4(&pool));
    // Each pair was decided at least once and at most once per thread.
    assert!((pairs..=4 * pairs).contains(&misses), "{misses}");
    assert_eq!(entries, pairs as i64);
    let mut settled = Vec::new();
    let later = moved(containment_memo_stats, || settled = all_pairs(&pool));
    assert_eq!(later, (0, pairs, 0));
    for run in &raced {
        assert_eq!(run, &settled);
    }
}

// ---------- (d) past capacity ------------------------------------------------

#[test]
fn overfull_plan_memo_keeps_verdicts_right_and_stays_bounded() {
    let _alone = serial();
    let capacity = PROOF_MEMO_CAPACITY as u64;
    let (mutant_name, mutant) = mutant_corpus().swap_remove(0);
    let refusal = reference_refusal(&mutant);
    let before = proof_memo_stats();
    for pad in 0..PROOF_MEMO_CAPACITY + 64 {
        // Nine sources: shapes no other test of this binary builds.
        let plan = padded_filter(1, 9, pad);
        ensure_sound(&plan).unwrap();
        assert!(proof_memo_stats().entries <= capacity);
        if pad % 512 == 0 {
            assert_eq!(
                ensure_sound(&mutant).unwrap_err().to_string(),
                refusal,
                "{mutant_name}"
            );
        }
    }
    let after = proof_memo_stats();
    assert!(after.resets > before.resets, "the memo never filled");
    assert!(after.entries >= 1 && after.entries <= capacity);
    // Whatever the reset dropped is simply proved again.
    ensure_sound(&padded_filter(1, 9, 0)).unwrap();
    ensure_sound(&padded_filter(1, 9, PROOF_MEMO_CAPACITY + 63)).unwrap();
    assert_eq!(ensure_sound(&mutant).unwrap_err().to_string(), refusal);
}

#[test]
fn overfull_containment_memo_keeps_verdicts_right_and_stays_bounded() {
    let _alone = serial();
    let lt = |v: i64| Predicate::cmp("PM_FILL", CmpOp::Lt, v);
    let before = containment_memo_stats();
    // Two new predicates a pair: the intern table fills half-way through.
    for k in 0..(CONTAINMENT_MEMO_PREDICATES as i64 / 2 + 64) {
        let (narrow, broad) = (lt(2 * k), lt(2 * k + 1));
        assert!(subsumes(&broad, &narrow), "k={k}");
        assert!(!subsumes(&narrow, &broad), "k={k}");
        assert!(containment_memo_stats().entries <= CONTAINMENT_MEMO_VERDICTS as u64);
    }
    let after = containment_memo_stats();
    assert!(after.resets > before.resets, "the memo never filled");
    // Dropped verdicts are decided again, the same way.
    assert!(subsumes(&lt(1), &lt(0)) && !subsumes(&lt(0), &lt(1)));
    let survivor = (
        lt(CONTAINMENT_MEMO_PREDICATES as i64 + 126),
        lt(CONTAINMENT_MEMO_PREDICATES as i64 + 127),
    );
    let newest = moved(containment_memo_stats, || {
        assert!(subsumes(&survivor.1, &survivor.0));
    });
    assert_eq!(newest, (0, 1, 0), "the newest verdict outlives the reset");
}
