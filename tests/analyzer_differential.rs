//! Differential tests for the semantic plan analyzer.
//!
//! Two directions:
//!
//! * **Soundness of accepts** — every plan an optimizer emits is Proved,
//!   and brute-force evaluation over random worlds confirms the plan
//!   computes [`naive_answer`](fusion::core::query::FusionQuery::naive_answer).
//! * **Soundness of rejects** — a corpus of hand-broken plans (a mutant
//!   per known failure mode) is Refuted with a step-level counterexample,
//!   and realizing that counterexample as concrete relations makes the
//!   reference interpreter disagree with the naive answer exactly as the
//!   analyzer predicted.

mod common;

use common::for_seeds;
use common::mutants::mutant_corpus;
use fusion::core::optimizer::{ordering_search, RoundRule};
use fusion::core::plan::{Plan, SimplePlanSpec};
use fusion::core::postopt::{build_with_difference, sja_plus};
use fusion::core::query::FusionQuery;
use fusion::core::sampler::random_simple_plan;
use fusion::core::{
    analyze_plan, evaluate_plan, filter_plan, greedy_sja, sj_optimal, sja_optimal, Verdict,
};
use fusion::types::{
    Attribute, Condition, Item, Predicate, Relation, Schema, Tuple, Value, ValueType,
};

// ---------- accepts: every optimizer plan is proved and correct -----------

/// Every algorithm's plan is certified by the analyzer across randomized
/// `(m, n)`, and brute-force evaluation on random worlds agrees.
#[test]
fn optimizer_plans_are_proved_and_compute_naive_answer() {
    for_seeds(48, |g| {
        let m = 2 + g.0.next_below(3); // 2..=4 conditions
        let n = 2 + g.0.next_below(3); // 2..=4 sources
        let model = g.model(m, n);
        let plans: Vec<(&str, Plan)> = vec![
            ("filter", filter_plan(&model).plan),
            ("sj", sj_optimal(&model).plan),
            ("sja", sja_optimal(&model).plan),
            ("greedy", greedy_sja(&model).plan),
            ("bnb", ordering_search(&model, RoundRule::PerSource).0.plan),
            ("sja+", sja_plus(&model).plan),
        ];
        let query = g.query(m);
        let rels = g.relations(n);
        let truth = query.naive_answer(&rels).unwrap();
        for (name, plan) in &plans {
            let analysis = analyze_plan(plan).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                analysis.verdict().is_proved(),
                "{name} plan refuted:\n{}",
                plan.listing()
            );
            let got = evaluate_plan(plan, query.conditions(), &rels).unwrap();
            assert_eq!(got, truth, "{name} plan miscomputes the answer");
        }
    });
}

/// Sampled simple plans and their difference-pruned forms are all proved.
#[test]
fn sampled_and_pruned_plans_are_proved() {
    for_seeds(48, |g| {
        let m = 2 + g.0.next_below(2);
        let n = 2 + g.0.next_below(2);
        let sampled = random_simple_plan(m, n, g.0.next_u64());
        assert!(analyze_plan(&sampled.plan).unwrap().verdict().is_proved());
        let spec = g.spec(m, n);
        let pruned = build_with_difference(&spec, n);
        assert!(
            analyze_plan(&pruned).unwrap().verdict().is_proved(),
            "pruned plan refuted:\n{}",
            pruned.listing()
        );
    });
}

// ---------- the mutant corpus ---------------------------------------------

#[test]
fn corpus_has_at_least_twenty_mutants() {
    assert!(mutant_corpus().len() >= 20, "{}", mutant_corpus().len());
}

/// Every mutant is refuted with a step-level counterexample whose claimed
/// discrepancy is internally consistent.
#[test]
fn analyzer_refutes_every_mutant() {
    for (name, plan) in mutant_corpus() {
        let analysis = analyze_plan(&plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        let Verdict::Refuted(cx) = analysis.verdict() else {
            panic!(
                "{name}: analyzer accepted a broken plan:\n{}",
                plan.listing()
            );
        };
        assert_ne!(cx.in_result, cx.in_answer, "{name}: no discrepancy");
        assert_eq!(cx.trace.len(), plan.steps.len(), "{name}: trace gap");
        assert!(cx.result_step() >= 1, "{name}: no step attribution");
        // The rendered diagnostic names steps and the disagreement.
        let text = cx.to_string();
        assert!(text.contains("step trace"), "{name}: {text}");
        assert!(text.contains("NO"), "{name}: {text}");
    }
}

/// Realizes a counterexample world as concrete relations: one schema with
/// a merge attribute `L` plus one 0/1 attribute per condition, and a
/// single witness item `w` placed per `in_source` / `satisfies`.
fn realize_world(
    m: usize,
    n: usize,
    in_source: &[bool],
    satisfies: &[Vec<bool>],
) -> (FusionQuery, Vec<Relation>) {
    let mut attrs = vec![Attribute::new("L", ValueType::Str)];
    for i in 0..m {
        attrs.push(Attribute::new(format!("A{i}"), ValueType::Int));
    }
    let schema = Schema::new(attrs, "L").unwrap();
    let conds: Vec<Condition> = (0..m)
        .map(|i| Predicate::eq(format!("A{i}"), 1i64).into())
        .collect();
    let rels = (0..n)
        .map(|j| {
            let rows = if in_source[j] {
                let mut vals = vec![Value::str("w")];
                for row in satisfies.iter().take(m) {
                    vals.push(Value::Int(i64::from(row[j])));
                }
                vec![Tuple::new(vals)]
            } else {
                Vec::new()
            };
            Relation::from_rows(schema.clone(), rows)
        })
        .collect();
    let query = FusionQuery::new(schema, conds).unwrap();
    (query, rels)
}

/// For every mutant whose counterexample involves no Bloom collision, the
/// realized world makes the reference interpreter disagree with the naive
/// answer exactly as the analyzer predicted.
#[test]
fn counterexamples_replay_against_the_interpreter() {
    let witness = Item::new("w");
    let mut replayed = 0usize;
    for (name, plan) in mutant_corpus() {
        let analysis = analyze_plan(&plan).unwrap();
        let Verdict::Refuted(cx) = analysis.verdict() else {
            panic!("{name}: expected refutation");
        };
        if !cx.bloom_collisions.is_empty() {
            // A collision cannot be forced through the exact reference
            // interpreter; the abstract refutation stands on its own.
            continue;
        }
        let (query, rels) = realize_world(
            plan.n_conditions,
            plan.n_sources,
            &cx.in_source,
            &cx.satisfies,
        );
        let truth = query.naive_answer(&rels).unwrap();
        let got = evaluate_plan(&plan, query.conditions(), &rels).unwrap();
        assert_eq!(
            truth.contains(&witness),
            cx.in_answer,
            "{name}: answer side"
        );
        assert_eq!(got.contains(&witness), cx.in_result, "{name}: result side");
        assert_ne!(got, truth, "{name}: replay failed to show the bug");
        replayed += 1;
    }
    assert!(
        replayed >= 18,
        "only {replayed} mutants replayed concretely"
    );
}

/// The guarded spec-builders never produce a refutable plan, even on
/// adversarial random shapes — the analyzer and the builder agree on what
/// "correct" means.
#[test]
fn random_specs_always_build_proved_plans() {
    for_seeds(64, |g| {
        let m = 1 + g.0.next_below(4);
        let n = 1 + g.0.next_below(4);
        let spec = g.spec(m, n);
        let plan = spec.build(n).unwrap();
        assert!(
            analyze_plan(&plan).unwrap().verdict().is_proved(),
            "spec-built plan refuted:\n{}",
            plan.listing()
        );
    });
}

/// `SimplePlanSpec::all_semijoin` builds proved plans too (it is the shape
/// the Bloom mutants are derived from, so keep it honest).
#[test]
fn all_semijoin_specs_are_proved() {
    for m in 1..=3 {
        for n in 1..=3 {
            let plan = SimplePlanSpec::all_semijoin(m, n).build(n).unwrap();
            assert!(analyze_plan(&plan).unwrap().verdict().is_proved());
        }
    }
}
