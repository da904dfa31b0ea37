//! Property battery for the static dataflow analysis: on random DMV
//! worlds, the reference interpreter's observed cardinalities must lie
//! inside the static `[lo, hi]` intervals for every seeding strategy,
//! and the liveness pass must agree with what the interpreter actually
//! reads to produce the result.

mod common;

use common::{for_seeds, Gen};
use fusion::core::dataflow::{analyze_dataflow, stage_decomposition, SourceBounds};
use fusion::core::plan::Plan;
use fusion::core::postopt::sja_plus;
use fusion::core::{
    analyze_plan, evaluate_plan, evaluate_plan_vars, filter_plan, greedy_sja, sj_optimal,
    sja_optimal,
};
use fusion::stats::TableStats;
use fusion::types::{CmpOp, Condition, Predicate, Relation, Value};

const SEEDS: u64 = 60;

/// All three seeding strategies, loosest to tightest.
fn seedings(
    g: &mut Gen,
    m: usize,
    n: usize,
    conditions: &[Condition],
    relations: &[Relation],
) -> Vec<(&'static str, SourceBounds)> {
    let model = g.model(m, n);
    let stats: Vec<TableStats> = relations
        .iter()
        .enumerate()
        .map(|(j, r)| TableStats::build(r, j as u64))
        .collect();
    vec![
        ("model", SourceBounds::from_model(&model)),
        ("stats", SourceBounds::from_stats(conditions, &stats)),
        (
            "exact",
            SourceBounds::exact_from_relations(conditions, relations).unwrap(),
        ),
    ]
}

fn random_case(g: &mut Gen) -> (Plan, Vec<Condition>, Vec<Relation>, usize, usize) {
    let m = 2 + g.0.next_below(3);
    let n = 2 + g.0.next_below(2);
    let query = g.query(m);
    let relations = g.relations(n);
    let plan = g.spec(m, n).build(n).unwrap();
    (plan, query.conditions().to_vec(), relations, m, n)
}

#[test]
fn observed_cardinalities_lie_inside_static_intervals() {
    for_seeds(SEEDS, |g| {
        let (plan, conditions, relations, m, n) = random_case(g);
        let observed = evaluate_plan_vars(&plan, &conditions, &relations).unwrap();
        let model = g.model(m, n);
        for (name, bounds) in seedings(g, m, n, &conditions, &relations) {
            let df = analyze_dataflow(&plan, &model, &bounds).unwrap();
            for (v, set) in observed.iter().enumerate() {
                let Some(set) = set else { continue };
                assert!(
                    df.var_bounds[v].contains(set.len() as f64),
                    "{name} seeds: |{}| = {} outside {}\n{}",
                    plan.var_name(fusion::core::plan::VarId(v)),
                    set.len(),
                    df.var_bounds[v],
                    plan.listing()
                );
            }
            for (t, step) in plan.steps.iter().enumerate() {
                let Some(out) = step.defined_var() else {
                    continue;
                };
                // A redefined variable's final value may differ from this
                // step's output; only check steps whose def survives.
                if df.def_of[out.0] != Some(t) {
                    continue;
                }
                let Some(set) = &observed[out.0] else {
                    continue;
                };
                assert!(
                    df.step_bounds[t].contains(set.len() as f64),
                    "{name} seeds: step {} out {} outside {}\n{}",
                    t + 1,
                    set.len(),
                    df.step_bounds[t],
                    plan.listing()
                );
            }
        }
    });
}

/// Range predicates sitting *exactly* on the observed attribute
/// extremes — where one strict-vs-inclusive slip in the histogram
/// seeding (`fraction_below`) or the bound propagation silently
/// excludes the boundary value. Every seeded interval must contain the
/// ground-truth cardinality for `<`, `<=`, `>`, `>=`, `=`, and BETWEEN
/// pinned at the data's min and max.
#[test]
fn boundary_predicates_stay_inside_seeded_intervals() {
    for_seeds(SEEDS, |g| {
        let relations = g.relations(3);
        let years: Vec<i64> = relations
            .iter()
            .flat_map(Relation::rows)
            .filter_map(|t| match t.values().get(2) {
                Some(Value::Int(d)) => Some(*d),
                _ => None,
            })
            .collect();
        let (Some(&min), Some(&max)) = (years.iter().min(), years.iter().max()) else {
            return; // every relation empty: nothing to pin
        };
        let mut conditions: Vec<Condition> = Vec::new();
        for v in [min, max] {
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
                conditions.push(Predicate::cmp("D", op, v).into());
            }
            conditions.push(
                Predicate::Between {
                    attr: "D".into(),
                    lo: Value::Int(v),
                    hi: Value::Int(v),
                }
                .into(),
            );
        }
        conditions.push(
            Predicate::Between {
                attr: "D".into(),
                lo: Value::Int(min),
                hi: Value::Int(max),
            }
            .into(),
        );

        let stats: Vec<TableStats> = relations
            .iter()
            .enumerate()
            .map(|(j, r)| TableStats::build(r, j as u64))
            .collect();
        let from_stats = SourceBounds::from_stats(&conditions, &stats);
        let exact = SourceBounds::exact_from_relations(&conditions, &relations).unwrap();
        for (i, cond) in conditions.iter().enumerate() {
            for (j, rel) in relations.iter().enumerate() {
                let truth = rel.select_items(cond).unwrap().items.len() as f64;
                assert!(
                    from_stats.sq[i][j].contains(truth),
                    "stats seed: |{cond}| = {truth} at source {j} outside {}",
                    from_stats.sq[i][j]
                );
                assert!(
                    exact.sq[i][j].contains(truth),
                    "exact seed: |{cond}| = {truth} at source {j} outside {}",
                    exact.sq[i][j]
                );
            }
        }

        // Propagate a pair of boundary conditions through a random plan:
        // the interpreter's observations stay inside the static
        // intervals end to end.
        let a = g.0.next_below(conditions.len());
        let b = g.0.next_below(conditions.len());
        let pair = vec![conditions[a].clone(), conditions[b].clone()];
        let plan = g.spec(2, 3).build(3).unwrap();
        let observed = evaluate_plan_vars(&plan, &pair, &relations).unwrap();
        let model = g.model(2, 3);
        for (name, bounds) in [
            ("stats", SourceBounds::from_stats(&pair, &stats)),
            (
                "exact",
                SourceBounds::exact_from_relations(&pair, &relations).unwrap(),
            ),
        ] {
            let df = analyze_dataflow(&plan, &model, &bounds).unwrap();
            for (v, set) in observed.iter().enumerate() {
                let Some(set) = set else { continue };
                assert!(
                    df.var_bounds[v].contains(set.len() as f64),
                    "{name} seeds on boundary pair: |{}| = {} outside {}\n{}",
                    plan.var_name(fusion::core::plan::VarId(v)),
                    set.len(),
                    df.var_bounds[v],
                    plan.listing()
                );
            }
        }
    });
}

/// The union key-constraint bound: two broad conditions unioned *at the
/// same source* cannot exceed that source's distinct-item mass, even
/// when the naive `Σ hi_i` bound doubles it. Cross-source unions keep
/// the summed bound and stay sound.
#[test]
fn union_key_constraint_caps_same_source_unions() {
    use common::mutants::{sq, union as unite};
    use fusion::core::plan::VarId;
    for_seeds(SEEDS, |g| {
        let relations = g.relations(3);
        let d1 = relations[0].distinct_items().len() as f64;
        if d1 == 0.0 {
            return; // an empty first source caps everything at zero
        }
        // Two tautologies: each selects all of R1's items.
        let conditions: Vec<Condition> =
            vec![Predicate::Const(true).into(), Predicate::Const(true).into()];
        let steps = vec![sq(0, 0, 0), sq(1, 1, 0), unite(2, &[0, 1])];
        let plan = Plan::new(steps, VarId(2), 2, 3);
        let bounds = SourceBounds::exact_from_relations(&conditions, &relations).unwrap();
        let model = g.model(2, 3);
        let df = analyze_dataflow(&plan, &model, &bounds).unwrap();
        let naive = 2.0 * d1;
        assert!(
            df.var_bounds[2].hi <= d1,
            "same-source union bound {} exceeds R1's item mass {d1}",
            df.var_bounds[2]
        );
        if naive.min(bounds.domain) > d1 {
            assert!(
                df.var_bounds[2].hi < naive.min(bounds.domain),
                "key constraint did not tighten: {} vs naive {naive}",
                df.var_bounds[2]
            );
        }
        let observed = evaluate_plan_vars(&plan, &conditions, &relations).unwrap();
        let union = observed[2].as_ref().unwrap();
        assert!(
            df.var_bounds[2].contains(union.len() as f64),
            "|∪| = {} outside {}",
            union.len(),
            df.var_bounds[2]
        );

        // Cross-source variant: the same two tautologies at R1 and R2.
        let steps = vec![sq(0, 0, 0), sq(1, 1, 1), unite(2, &[0, 1])];
        let cross = Plan::new(steps, VarId(2), 2, 3);
        let df = analyze_dataflow(&cross, &model, &bounds).unwrap();
        let observed = evaluate_plan_vars(&cross, &conditions, &relations).unwrap();
        let union = observed[2].as_ref().unwrap();
        assert!(
            df.var_bounds[2].contains(union.len() as f64),
            "cross-source |∪| = {} outside {}",
            union.len(),
            df.var_bounds[2]
        );
        let d2 = relations[1].distinct_items().len() as f64;
        assert!(
            df.var_bounds[2].hi <= d1 + d2,
            "cross-source union bound {} exceeds combined mass {}",
            df.var_bounds[2],
            d1 + d2
        );
    });
}

/// Source-support propagation through ∩ (smallest-mass input), − (left
/// operand), and sjq ({queried source}) keeps every downstream union
/// bound sound against the reference interpreter.
#[test]
fn union_tightening_stays_sound_through_set_algebra() {
    use common::mutants::{diff, intersect, sjq, sq, union};
    use fusion::core::plan::VarId;
    for_seeds(SEEDS, |g| {
        let relations = g.relations(2);
        let conditions = vec![g.condition(), g.condition()];
        let steps = vec![
            sq(0, 0, 0),
            sjq(1, 1, 1, 0),
            union(2, &[0, 1]),
            intersect(3, &[0, 2]),
            diff(4, 2, 1),
            union(5, &[3, 4]),
        ];
        let plan = Plan::new(steps, VarId(5), 2, 2);
        let observed = evaluate_plan_vars(&plan, &conditions, &relations).unwrap();
        let model = g.model(2, 2);
        for (name, bounds) in seedings(g, 2, 2, &conditions, &relations) {
            let df = analyze_dataflow(&plan, &model, &bounds).unwrap();
            for (v, set) in observed.iter().enumerate() {
                let Some(set) = set else { continue };
                assert!(
                    df.var_bounds[v].contains(set.len() as f64),
                    "{name} seeds: |v{v}| = {} outside {}\n{}",
                    set.len(),
                    df.var_bounds[v],
                    plan.listing()
                );
            }
        }
    });
}

#[test]
fn liveness_matches_what_the_interpreter_reads() {
    for_seeds(SEEDS, |g| {
        let (plan, _, _, m, n) = random_case(g);
        let model = g.model(m, n);
        let bounds = SourceBounds::from_model(&model);
        let df = analyze_dataflow(&plan, &model, &bounds).unwrap();

        // Independent reachability walk: which variables feed the result
        // under the final def of each variable (what the interpreter
        // actually dereferences when producing the answer).
        let mut reach = vec![false; plan.var_names.len()];
        let mut stack = vec![plan.result];
        reach[plan.result.0] = true;
        while let Some(v) = stack.pop() {
            let Some(t) = df.def_of[v.0] else { continue };
            for u in plan.steps[t].used_vars() {
                if !reach[u.0] {
                    reach[u.0] = true;
                    stack.push(u);
                }
            }
        }
        assert_eq!(df.live_vars, reach, "\n{}", plan.listing());

        // Every dead step is BDD-provably droppable: removing it cannot
        // change the answer in any world.
        let mut analysis = analyze_plan(&plan).unwrap();
        let dead: Vec<usize> = (0..plan.steps.len()).filter(|&t| !df.live[t]).collect();
        for &t in &dead {
            assert!(
                analysis.droppable(&plan, &[t]),
                "dead step {} is not droppable\n{}",
                t + 1,
                plan.listing()
            );
        }
        if !dead.is_empty() {
            assert!(analysis.droppable(&plan, &dead), "\n{}", plan.listing());
        }
    });
}

#[test]
fn stage_order_evaluation_matches_listing_order() {
    for_seeds(SEEDS, |g| {
        let (spec_plan, conditions, relations, m, n) = random_case(g);
        let model = g.model(m, n);
        for plan in [
            spec_plan,
            filter_plan(&model).plan,
            sj_optimal(&model).plan,
            sja_optimal(&model).plan,
            sja_plus(&model).plan,
            greedy_sja(&model).plan,
        ] {
            let stages = stage_decomposition(&plan).unwrap();
            let order = stages.flattened_order();
            // Re-enact the stage schedule as a concrete reordered plan
            // and run the reference interpreter over it: same answer.
            let reordered = Plan::new(
                order.iter().map(|&t| plan.steps[t].clone()).collect(),
                plan.result,
                plan.n_conditions,
                plan.n_sources,
            );
            // Reordering can be structurally invalid only by
            // re-definition interleavings; the decomposition certificate
            // forbids those, so the rebuilt plan must validate and agree.
            let a = evaluate_plan(&plan, &conditions, &relations).unwrap();
            let b = evaluate_plan(&reordered, &conditions, &relations).unwrap();
            assert_eq!(a, b, "\n{}\nvs\n{}", plan.listing(), reordered.listing());
        }
    });
}
