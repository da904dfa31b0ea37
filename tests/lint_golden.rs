//! Golden-file regression test for the lint corpus.
//!
//! Runs the full registry (semantic + dataflow rules) over a fixed
//! corpus of plans and compares the diagnostics — rendered as JSON —
//! against `tests/golden/lint_corpus.json`. Any change to a rule's
//! trigger condition, severity, ordering, or message shows up as a
//! byte-level diff here; run with `BLESS=1` to re-bless intentional
//! changes.

use fusion::cache::{stale_cache_findings, subsumes, CacheSnapshot};
use fusion::core::dataflow::{
    cache_commit_race_findings, conflicting_footprint_findings, dataflow_lint_plan,
    duplicate_inflight_findings, epoch_read_before_bump_findings, unshared_subsumed_findings,
    unsound_merge_findings, Event, EventGraph, Interval, ShareStep, SourceBounds,
};
use fusion::core::plan::{SimplePlanSpec, Step, VarId};
use fusion::core::{Diagnostic, Plan, TableCostModel};
use fusion::types::{CmpOp, CondId, Predicate, SourceId};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_corpus.json");

/// One corpus entry: a named plan, its cost model, and interval seeds.
struct Case {
    name: &'static str,
    plan: Plan,
    model: TableCostModel,
    bounds: SourceBounds,
}

fn case(name: &'static str, plan: Plan, model: TableCostModel) -> Case {
    let bounds = SourceBounds::from_model(&model);
    Case {
        name,
        plan,
        model,
        bounds,
    }
}

/// `sq(c1, R1) − sq(c2, R1)`: an antitone use of R1's second answer.
fn antitone_plan() -> Plan {
    let mut plan = Plan::new(vec![], VarId(0), 2, 1);
    let a = plan.fresh_var("A");
    let b = plan.fresh_var("B");
    let d = plan.fresh_var("D");
    plan.steps = vec![
        Step::Sq {
            out: a,
            cond: CondId(0),
            source: SourceId(0),
        },
        Step::Sq {
            out: b,
            cond: CondId(1),
            source: SourceId(0),
        },
        Step::Diff {
            out: d,
            left: a,
            right: b,
        },
    ];
    plan.result = d;
    plan
}

/// A difference re-widened by a union before being shipped.
fn narrow_widen_plan() -> Plan {
    let mut plan = Plan::new(vec![], VarId(0), 2, 2);
    let x = plan.fresh_var("X");
    let z = plan.fresh_var("Z");
    let d = plan.fresh_var("D");
    let w = plan.fresh_var("W");
    let out = plan.fresh_var("OUT");
    plan.steps = vec![
        Step::Sq {
            out: x,
            cond: CondId(0),
            source: SourceId(0),
        },
        Step::Sq {
            out: z,
            cond: CondId(1),
            source: SourceId(1),
        },
        Step::Diff {
            out: d,
            left: x,
            right: z,
        },
        Step::Union {
            out: w,
            inputs: vec![d, x],
        },
        Step::Sjq {
            out,
            cond: CondId(1),
            source: SourceId(0),
            input: w,
        },
    ];
    plan.result = out;
    plan
}

/// A valid filter plan with an extra query nothing consumes.
fn dead_step_plan() -> Plan {
    let mut plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
    let ghost = plan.fresh_var("G");
    plan.steps.push(Step::Sq {
        out: ghost,
        cond: CondId(0),
        source: SourceId(1),
    });
    plan
}

/// The same selection issued twice at the same source.
fn duplicate_query_plan() -> Plan {
    let mut plan = Plan::new(vec![], VarId(0), 1, 1);
    let a = plan.fresh_var("A");
    let b = plan.fresh_var("B");
    let u = plan.fresh_var("U");
    plan.steps = vec![
        Step::Sq {
            out: a,
            cond: CondId(0),
            source: SourceId(0),
        },
        Step::Sq {
            out: b,
            cond: CondId(0),
            source: SourceId(0),
        },
        Step::Union {
            out: u,
            inputs: vec![a, b],
        },
    ];
    plan.result = u;
    plan
}

fn corpus() -> Vec<Case> {
    let quiet_model = TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0);
    let small = |m, n, lq| TableCostModel::uniform(m, n, 10.0, 1.0, 0.1, lq, 5.0, 1000.0);
    let mut narrow = case("narrow-then-widen", narrow_widen_plan(), small(2, 2, 100.0));
    // Exact-style seeds so the difference provably narrows: D inherits
    // |sq(c1,R1)| = 10 minus at least |sq(c2,R2)| = 4's overlap.
    narrow.bounds.sq[0][0] = Interval::point(10.0);
    narrow.bounds.sq[1][1] = Interval::point(4.0);
    vec![
        case(
            "filter-3x2-quiet",
            SimplePlanSpec::filter(3, 2).build(2).unwrap(),
            quiet_model,
        ),
        case(
            "filter-cheap-load",
            SimplePlanSpec::filter(2, 2).build(2).unwrap(),
            small(2, 2, 5.0),
        ),
        case("antitone-diff", antitone_plan(), small(2, 1, 100.0)),
        narrow,
        case("dead-step", dead_step_plan(), small(2, 2, 100.0)),
        case(
            "duplicate-query",
            duplicate_query_plan(),
            small(1, 1, 100.0),
        ),
    ]
}

/// `stale-cache-serve` findings for a plan whose snapshot covers R1's
/// selections at epoch 0 while R1 has since advanced to epoch 1.
fn stale_cache_rows() -> Vec<(String, Diagnostic)> {
    let plan = duplicate_query_plan();
    let snap = CacheSnapshot::new(vec![vec![true]], vec![0]);
    stale_cache_findings(&plan, &snap, &[1])
        .into_iter()
        .map(|d| ("stale-cache".to_string(), d))
        .collect()
}

/// A minimal valid plan with one selection — the substrate for the
/// hand-built event graphs below (SSA forbids writing a *plan* that
/// races against itself, so the interference rules are exercised on
/// graphs with deliberately missing ordering edges, the same way the
/// model-checker's mutants are built).
fn single_sq_plan() -> Plan {
    let mut plan = Plan::new(vec![], VarId(0), 1, 1);
    let x = plan.fresh_var("X");
    plan.steps = vec![Step::Sq {
        out: x,
        cond: CondId(0),
        source: SourceId(0),
    }];
    plan.result = x;
    plan
}

/// Findings for the three interference rules, each triggered by an
/// event graph with an ordering edge deliberately dropped or inverted.
fn interference_rows() -> Vec<(String, Diagnostic)> {
    let mut rows = Vec::new();
    // conflicting-stage-footprints: both R1 selections of the
    // duplicate-query plan forced into one stage — their executions race
    // for R1's network shard.
    let dup = duplicate_query_plan();
    let racy = EventGraph::certified(&dup, &[vec![0, 1], vec![2]], false);
    for d in conflicting_footprint_findings(&dup, &racy) {
        rows.push(("racy-stage-graph".to_string(), d));
    }
    let plan = single_sq_plan();
    // cache-commit-race, inverted: the admission is ordered *before* the
    // fault-recovery epoch bump.
    let mut inverted = EventGraph::new();
    let lookup = inverted.push(&plan, Event::Lookup { step: 0 });
    let exec = inverted.push(&plan, Event::Exec { step: 0 });
    let bump = inverted.push(&plan, Event::EpochBump { source: 0 });
    let commit = inverted.push(&plan, Event::Commit { step: 0 });
    inverted.add_edge(lookup, exec);
    inverted.add_edge(exec, commit);
    inverted.add_edge(commit, bump);
    for d in cache_commit_race_findings(&plan, &inverted) {
        rows.push(("commit-before-bump-graph".to_string(), d));
    }
    // cache-commit-race, unordered: the bump → commit edge is missing.
    let mut unordered = EventGraph::new();
    let lookup = unordered.push(&plan, Event::Lookup { step: 0 });
    let exec = unordered.push(&plan, Event::Exec { step: 0 });
    let _bump = unordered.push(&plan, Event::EpochBump { source: 0 });
    let commit = unordered.push(&plan, Event::Commit { step: 0 });
    unordered.add_edge(lookup, exec);
    unordered.add_edge(exec, commit);
    for d in cache_commit_race_findings(&plan, &unordered) {
        rows.push(("unordered-bump-commit-graph".to_string(), d));
    }
    // epoch-read-before-bump: the lookup is left unordered against the
    // epoch bump it must precede.
    let mut stale = EventGraph::new();
    let _lookup = stale.push(&plan, Event::Lookup { step: 0 });
    let exec = stale.push(&plan, Event::Exec { step: 0 });
    let bump = stale.push(&plan, Event::EpochBump { source: 0 });
    let commit = stale.push(&plan, Event::Commit { step: 0 });
    stale.add_edge(exec, bump);
    stale.add_edge(bump, commit);
    for d in epoch_read_before_bump_findings(&plan, &stale) {
        rows.push(("unordered-lookup-bump-graph".to_string(), d));
    }
    rows
}

/// Findings for the three cross-query sharing lints, each triggered by
/// a hand-built *mutant* schedule: a list of executed attaches and
/// fetches of one-selection queries `q1` and `q2` on `R1`. The share
/// rule's own schedules are quiet on `unsound-merge-residual` (every
/// attaching admission is checked against it); the mutants introduce
/// each defect, and the witness schedules in the messages show the
/// divergence. The prover is the production BDD subsumption prover.
fn sharing_rows() -> Vec<(String, Diagnostic)> {
    let prover = |b: &Predicate, n: &Predicate| subsumes(b, n);
    let year = |y: i64| Predicate::cmp("D", CmpOp::Ge, y);
    // `q{ticket}#1 := sq(c1, R1)`, fetching or riding `q{leader}#1`.
    let step = |ticket: u64, pred, leader: Option<u64>, residual| ShareStep {
        ticket,
        step: 0,
        source: SourceId(0),
        cond: CondId(0),
        pred,
        epoch: 0,
        leader: leader.map(|t| (t, 0)),
        residual,
    };
    let (y1990, y1995, dui) = (year(1990), year(1995), Predicate::eq("V", "dui"));
    let mut rows = Vec::new();
    // duplicate-inflight-step: two provably equivalent selections, each
    // fetched by its own query.
    let split = [step(1, &y1990, None, false), step(2, &y1990, None, false)];
    for d in duplicate_inflight_findings(&split, &prover) {
        rows.push(("split-duplicate-schedule".to_string(), d));
    }
    // unshared-subsumed-step: the narrower selection fetches for itself
    // beside the broader one that provably contains it.
    let split = [step(1, &y1990, None, false), step(2, &y1995, None, false)];
    for d in unshared_subsumed_findings(&split, &prover) {
        rows.push(("unshared-containment-schedule".to_string(), d));
    }
    // unsound-merge-residual, first shape: a proper containment served
    // with its residual filter dropped.
    let dropped = [
        step(1, &y1990, None, false),
        step(2, &y1995, Some(1), false),
    ];
    for d in unsound_merge_findings(&dropped, &prover) {
        rows.push(("dropped-residual-schedule".to_string(), d));
    }
    // unsound-merge-residual, second shape: an attach the prover cannot
    // discharge at all.
    let unproved = [step(1, &y1990, None, false), step(2, &dui, Some(1), true)];
    for d in unsound_merge_findings(&unproved, &prover) {
        rows.push(("unproved-fanout-schedule".to_string(), d));
    }
    rows
}

/// `redundant-phase2-fetch` findings for a mutant phase-two fetch plan
/// that splits one item's attributes across two replicas although
/// either covers both (the planner never emits this; the mutant
/// re-introduces it the same way the certification mutants do).
fn phase2_rows() -> Vec<(String, Diagnostic)> {
    use fusion::core::phase2::{
        redundant_fetch_findings, CoverageCatalog, FetchAssignment, FetchPlan,
    };
    use fusion::types::{Cost, Item, ItemSet};
    let item: Item = Item("J55".into());
    let one: ItemSet = [item.clone()].into_iter().collect();
    let mut catalog = CoverageCatalog::new(2);
    catalog.set(SourceId(0), [1, 2].into(), one.clone());
    catalog.set(SourceId(1), [1, 2].into(), one.clone());
    let split = FetchPlan {
        attrs: vec![1, 2],
        arity: 3,
        cached: ItemSet::empty(),
        assignments: vec![
            FetchAssignment {
                source: SourceId(0),
                items: one.clone(),
                attrs: vec![1],
                covers: vec![(item.clone(), vec![1])],
                batches: 1,
                est_cost: Cost::new(1.0),
            },
            FetchAssignment {
                source: SourceId(1),
                items: one,
                attrs: vec![2],
                covers: vec![(item, vec![2])],
                batches: 1,
                est_cost: Cost::new(1.0),
            },
        ],
        missing: Vec::new(),
        planned_cost: Cost::new(2.0),
        lower_bound: 0.0,
    };
    redundant_fetch_findings(&split, &catalog)
        .into_iter()
        .map(|d| ("split-fetch-plan".to_string(), d))
        .collect()
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn render(rows: &[(String, Diagnostic)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(plan, d)| {
            format!(
                "  {{\"plan\": \"{}\", \"rule\": \"{}\", \"severity\": \"{}\", \
                 \"step\": {}, \"message\": \"{}\"}}",
                escape(plan),
                escape(d.rule),
                d.severity,
                d.step,
                escape(&d.message)
            )
        })
        .collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[test]
fn lint_corpus_matches_golden_file() {
    let mut rows = Vec::new();
    for c in corpus() {
        for d in dataflow_lint_plan(&c.plan, &c.model, &c.bounds).unwrap() {
            rows.push((c.name.to_string(), d));
        }
    }
    rows.extend(stale_cache_rows());
    rows.extend(interference_rows());
    rows.extend(sharing_rows());
    rows.extend(phase2_rows());
    let rendered = render(&rows);
    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing tests/golden/lint_corpus.json — run with BLESS=1 to create it");
    assert_eq!(
        rendered, golden,
        "lint diagnostics changed; if intentional, re-bless with \
         BLESS=1 cargo test --test lint_golden"
    );
}

#[test]
fn corpus_exercises_every_dataflow_rule() {
    let mut rows = Vec::new();
    for c in corpus() {
        for d in dataflow_lint_plan(&c.plan, &c.model, &c.bounds).unwrap() {
            rows.push(d.rule);
        }
    }
    for (_, d) in stale_cache_rows() {
        rows.push(d.rule);
    }
    for (_, d) in interference_rows() {
        rows.push(d.rule);
    }
    for (_, d) in sharing_rows() {
        rows.push(d.rule);
    }
    for (_, d) in phase2_rows() {
        rows.push(d.rule);
    }
    for rule in [
        "retry-non-idempotent-step",
        "narrow-then-widen",
        "transfer-exceeds-load",
        "dead-step",
        "duplicate-query",
        "stale-cache-serve",
        "conflicting-stage-footprints",
        "cache-commit-race",
        "epoch-read-before-bump",
        "duplicate-inflight-step",
        "unshared-subsumed-step",
        "unsound-merge-residual",
        "redundant-phase2-fetch",
    ] {
        assert!(rows.contains(&rule), "corpus never triggers {rule}");
    }
}
