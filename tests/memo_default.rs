//! The front doors `ensure_sound`, `sj_optimal`, `sja_optimal` and
//! `fusion_cache::subsumes` read one process default, `Memos::shared()`;
//! every other `Memos` is a value of its own. This binary holds one test,
//! so nothing else asks the default and its counts are absolute.

mod common;

use common::mutants::{filter22, mutant_corpus};
use common::{assert_same_plan, counts, Gen};
use fusion::cache::subsumes;
use fusion::core::analyze::{ensure_sound, MemoStats, Memos, ProofMemoStats};
use fusion::core::optimizer::RoundRule;
use fusion::core::plan::{Plan, Step, VarId};
use fusion::core::{sj_optimal, sja_optimal};
use fusion::exec::{run, RetryPolicy, RunOptions, Schedule, Target};
use fusion::net::FaultPlan;
use fusion::types::{CmpOp, CondId, Predicate, SourceId, Value};
use fusion::workload::synth::{synth_scenario, SynthSpec};

#[test]
fn front_doors_read_one_shared_default() {
    let shared = Memos::shared();
    assert_eq!(shared.stats(), MemoStats::default(), "nothing asked yet");

    // A staged run guards through the default like `execute_plan`: a run
    // without a retry policy of an already-proved plan proves nothing,
    // and the analysis a drop needs is only built when a step is dropped
    // — where a drop that would grow the answer is still refused.
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
    assert_eq!(counts(shared.stats().proofs), (1, 0, 1, 0));
    let (q, sources) = (&scenario.query, &scenario.sources);
    let staged = |retry| RunOptions {
        schedule: Schedule::Stages {
            threads: 2,
            pace: None,
        },
        retry,
        cache: None,
    };
    let out = run(
        Target::Plan(&plan),
        q,
        sources,
        &mut scenario.network(),
        staged(None),
    );
    assert_eq!(out.unwrap().outcome.answer, truth);
    assert_eq!(
        counts(shared.stats().proofs),
        (1, 1, 1, 0),
        "one memo hit, no proof"
    );
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

    // Each front door answers what the method on a fresh value does: the
    // same refusal text, a bit-identical plan, the same verdict.
    let mut plans: Vec<Plan> = mutant_corpus().into_iter().map(|(_, p)| p).collect();
    plans.push(plan);
    for plan in plans.iter().chain(&plans) {
        let fresh = Memos::new().ensure_sound(plan).map_err(|e| e.to_string());
        assert_eq!(ensure_sound(plan).map_err(|e| e.to_string()), fresh);
    }
    let mut g = Gen::new(0xDEFA);
    let table = g.model(4, 3);
    let network = scenario.cost_model();
    let (sj, sja) = (RoundRule::Uniform, RoundRule::PerSource);
    // Cold and then warm on the default.
    for _ in 0..2 {
        let fresh = Memos::new();
        assert_same_plan(&sj_optimal(&table), &fresh.optimal(&table, sj), "SJ");
        assert_same_plan(&sja_optimal(&table), &fresh.optimal(&table, sja), "SJA");
        let fresh = Memos::new();
        assert_same_plan(&sj_optimal(&network), &fresh.optimal(&network, sj), "SJ");
        assert_same_plan(&sja_optimal(&network), &fresh.optimal(&network, sja), "SJA");
    }
    let lt = |v: i64| Predicate::cmp("A1", CmpOp::Lt, v);
    let preds = [
        lt(200),
        lt(500),
        Predicate::eq("A1", Value::Null),
        Predicate::Not(Box::new(lt(200))),
        Predicate::Or(vec![lt(200), Predicate::eq("A2", 7i64)]),
    ];
    for broad in preds.iter().chain(&preds) {
        for narrow in &preds {
            let fresh = Memos::new().subsumes(broad, narrow);
            assert_eq!(subsumes(broad, narrow), fresh, "{broad} ⊇ {narrow}");
        }
    }

    // Two values are independent of each other and of the default: what
    // one memoised is a miss in the other.
    let before = shared.stats();
    let (a, b) = (Memos::new(), Memos::new());
    for memos in [&a, &b, &a] {
        memos.ensure_sound(&plans[plans.len() - 1]).unwrap();
        memos.optimal(&table, RoundRule::PerSource);
        memos.subsumes(&preds[1], &preds[0]);
    }
    let once = ProofMemoStats {
        misses: 1,
        entries: 1,
        ..ProofMemoStats::default()
    };
    let twice = ProofMemoStats { hits: 1, ..once };
    let per_table = |s: ProofMemoStats| MemoStats {
        proofs: s,
        verdicts: s,
        plans: s,
    };
    assert_eq!((a.stats(), b.stats()), (per_table(twice), per_table(once)));
    assert_eq!(shared.stats(), before);
}
