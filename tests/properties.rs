//! Property tests on the core invariants, driven by a deterministic
//! in-tree generator (see `common::for_seeds`) over many seeds.

mod common;

use common::for_seeds;
use fusion::core::evaluate_plan;
use fusion::core::postopt::{build_with_difference, sja_plus};
use fusion::core::sampler::random_simple_plan;
use fusion::core::{
    estimate_plan_cost, filter_plan, greedy_sja, sj_optimal, sja_optimal, CostModel,
};
use fusion::parse_fusion_query;
use fusion::types::schema::dmv_schema;
use fusion::types::{CondId, ItemSet, SourceId};

// ---------- item-set algebra ----------------------------------------------

#[test]
fn union_commutative_associative() {
    for_seeds(256, |g| {
        let (a, b, c) = (g.items(), g.items(), g.items());
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    });
}

#[test]
fn intersect_commutative_associative() {
    for_seeds(256, |g| {
        let (a, b, c) = (g.items(), g.items(), g.items());
        assert_eq!(a.intersect(&b), b.intersect(&a));
        assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
    });
}

#[test]
fn distributivity() {
    for_seeds(256, |g| {
        let (a, b, c) = (g.items(), g.items(), g.items());
        assert_eq!(
            a.intersect(&b.union(&c)),
            a.intersect(&b).union(&a.intersect(&c))
        );
        assert_eq!(
            a.union(&b.intersect(&c)),
            a.union(&b).intersect(&a.union(&c))
        );
    });
}

#[test]
fn difference_laws() {
    for_seeds(256, |g| {
        let (a, b) = (g.items(), g.items());
        let d = a.difference(&b);
        assert!(d.is_subset_of(&a));
        assert!(d.intersect(&b).is_empty());
        // (A − B) ∪ (A ∩ B) = A
        assert_eq!(d.union(&a.intersect(&b)), a);
        // Difference then union with B covers A.
        assert!(a.is_subset_of(&d.union(&b)));
    });
}

#[test]
fn idempotence_and_identity() {
    for_seeds(256, |g| {
        let a = g.items();
        assert_eq!(a.union(&a), a);
        assert_eq!(a.intersect(&a), a);
        assert_eq!(a.union(&ItemSet::empty()), a);
        assert_eq!(a.intersect(&ItemSet::empty()), ItemSet::empty());
        assert_eq!(a.difference(&ItemSet::empty()), a);
        assert_eq!(a.difference(&a), ItemSet::empty());
    });
}

// ---------- plan semantics --------------------------------------------------

/// Every sampled simple plan computes the naive answer, on arbitrary data.
#[test]
fn spec_plans_compute_naive_answer() {
    for_seeds(64, |g| {
        let query = g.query(3);
        let n = 2 + g.0.next_below(2);
        let rels = g.relations(n);
        let sampled = random_simple_plan(3, n, g.0.next_u64());
        let truth = query.naive_answer(&rels).unwrap();
        let got = evaluate_plan(&sampled.plan, query.conditions(), &rels).unwrap();
        assert_eq!(got, truth);
    });
}

/// Difference pruning preserves semantics for arbitrary specs & data.
#[test]
fn difference_pruning_preserves_semantics() {
    for_seeds(64, |g| {
        let query = g.query(3);
        let rels = g.relations(3);
        let spec = g.spec(3, 3);
        let base = spec.build(3).unwrap();
        let pruned = build_with_difference(&spec, 3);
        let a = evaluate_plan(&base, query.conditions(), &rels).unwrap();
        let b = evaluate_plan(&pruned, query.conditions(), &rels).unwrap();
        assert_eq!(a, b);
    });
}

// ---------- optimizer invariants -------------------------------------------

/// OPT(SJA) ≤ OPT(SJ) ≤ FILTER on arbitrary cost models, and all
/// produced plans validate.
#[test]
fn optimizer_dominance() {
    for_seeds(64, |g| {
        let model = g.model(3, 3);
        let f = filter_plan(&model);
        let sj = sj_optimal(&model);
        let sja = sja_optimal(&model);
        let gr = greedy_sja(&model);
        let eps = 1e-9 * f.cost.value().max(1.0);
        assert!(sj.cost.value() <= f.cost.value() + eps);
        assert!(sja.cost.value() <= sj.cost.value() + eps);
        assert!(gr.cost.value() + eps >= sja.cost.value());
        for opt in [f, sj, sja, gr] {
            opt.plan.validate().unwrap();
        }
    });
}

/// SJA+ never regresses the (walker-priced) SJA cost, and its plan
/// validates.
#[test]
fn sja_plus_never_regresses() {
    for_seeds(64, |g| {
        let model = g.model(3, 3);
        let plus = sja_plus(&model);
        assert!(plus.cost.value() <= plus.base_estimate.value() + 1e-9);
        plus.plan.validate().unwrap();
    });
}

/// The plan-walker estimate of a spec-built plan is finite and accounts
/// every remote step.
#[test]
fn estimator_covers_all_remote_steps() {
    for_seeds(64, |g| {
        let model = g.model(3, 2);
        let spec = g.spec(3, 2);
        let plan = spec.build(2).unwrap();
        let est = estimate_plan_cost(&plan, &model);
        assert!(est.cost.is_finite());
        let remote = plan.steps.iter().filter(|s| s.is_remote()).count();
        let nonzero = est.step_costs.iter().filter(|c| c.value() > 0.0).count();
        assert!(nonzero <= remote);
        assert!(est.result_items >= 0.0);
    });
}

/// gsel and source_sel stay within [0, 1] for arbitrary models.
#[test]
fn selectivities_bounded() {
    for_seeds(64, |g| {
        let model = g.model(2, 3);
        for i in 0..2 {
            let gs = model.gsel(CondId(i));
            assert!((0.0..=1.0).contains(&gs));
            for j in 0..3 {
                let s = model.source_sel(CondId(i), SourceId(j));
                assert!((0.0..=1.0).contains(&s));
            }
        }
    });
}

// ---------- SQL round trip ---------------------------------------------------

/// to_sql → parse is the identity on conditions, for every number of
/// query variables (m ≥ 3 needs the pairwise merge chain) and for
/// `BETWEEN` / `IN` / `LIKE` / awkwardly quoted literals.
#[test]
fn sql_round_trip() {
    for_seeds(128, |g| {
        let query = g.query(2);
        let sql = query.to_sql();
        let parsed = parse_fusion_query(&sql, &dmv_schema()).unwrap();
        assert_eq!(parsed.conditions(), query.conditions(), "sql was: {sql}");
    });
    for_seeds(96, |g| {
        for m in 1..=6 {
            let conds = (0..m).map(|_| g.sql_condition()).collect();
            let query = fusion::core::FusionQuery::new(dmv_schema(), conds).unwrap();
            let sql = query.to_sql();
            let parsed = parse_fusion_query(&sql, &dmv_schema())
                .unwrap_or_else(|e| panic!("m={m}: {e}\nsql was: {sql}"));
            assert_eq!(parsed.conditions(), query.conditions(), "sql was: {sql}");
        }
    });
}

/// A request's predicate is sized by counting its text as it is
/// written: the count is the text's length, on every shape `sql_round_trip`
/// prints, nested, and on multi-byte literals.
#[test]
fn predicate_wire_size_is_its_text_length() {
    use fusion::types::Predicate;
    for_seeds(256, |g| {
        let (a, b) = (g.sql_condition().pred, g.condition().pred);
        let nested = [
            Predicate::And(vec![a.clone(), b.clone()]),
            Predicate::Or(vec![b.clone(), Predicate::Not(Box::new(a.clone()))]),
            Predicate::eq("V", "é🦀 it's"),
            Predicate::Const(g.0.next_below(2) == 0),
        ];
        for pred in [a, b].into_iter().chain(nested) {
            assert_eq!(pred.wire_size(), pred.to_string().len(), "{pred}");
        }
    });
}

// ---------- the ordering search against the reference enumeration -----------

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `sj_optimal` / `sja_optimal` return the reference enumeration's plan,
/// bit for bit, under both round rules.
fn assert_plans_match_reference<M: CostModel>(model: &M, what: &str) {
    use fusion::core::optimizer::{reference_enumeration, RoundRule};
    let all: Vec<usize> = (0..model.n_conditions()).collect();
    for rule in [RoundRule::Uniform, RoundRule::PerSource] {
        let want = reference_enumeration(model, rule, &all, None);
        let got = match rule {
            RoundRule::Uniform => sj_optimal(model),
            RoundRule::PerSource => sja_optimal(model),
        };
        let ctx = format!("{what}, m={}, n={}, {rule:?}", all.len(), model.n_sources());
        let order: Vec<usize> = got.spec.order.iter().map(|c| c.0).collect();
        assert_eq!(order, want.order, "{ctx}");
        assert_eq!(got.spec.choices, want.choices, "{ctx}");
        assert_eq!(
            got.cost.value().to_bits(),
            want.cost.value().to_bits(),
            "{ctx}"
        );
        assert_eq!(bits(&got.round_sizes), bits(&want.sizes), "{ctx}");
    }
}

/// The optimizers' one ordering search against Figures 3–4 taken
/// literally: plan identity for whole queries on every model shape the
/// product plans under, and suffix identity for the re-plan, which
/// searches from an observed running set.
#[test]
fn bnb_matches_exhaustive() {
    use fusion::cache::{CacheSnapshot, CachedCostModel};
    use fusion::core::optimizer::{reference_enumeration, suffix_search, RoundRule};
    use fusion::core::{FeedbackCostModel, NetworkCostModel, TableCostModel};
    use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
    use fusion::stats::CardinalityFeedback;

    // Costs and estimates drawn from a few values each, so exactly tied
    // orderings are the norm, not the exception.
    let quantised = |g: &mut common::Gen, m: usize, n: usize| {
        let mut model = TableCostModel::uniform(m, n, 1.0, 1.0, 0.0, 1e6, 1.0, 64.0);
        for i in 0..m {
            for j in 0..n {
                let (c, s) = (CondId(i), SourceId(j));
                model.set_sq_cost(c, s, *g.0.choose(&[1.0, 2.0, 4.0]));
                model.set_sjq_cost(
                    c,
                    s,
                    *g.0.choose(&[0.5, 1.0, 2.0]),
                    *g.0.choose(&[0.0, 0.25]),
                );
                model.set_est_sq_items(c, s, *g.0.choose(&[0.0, 4.0, 16.0]));
            }
        }
        model
    };

    for m in 1..=7usize {
        // The reference is O(m!·m·n): fewer cases where it bites.
        let cases = [12, 12, 12, 12, 6, 3, 1][m - 1];
        for n in [1usize, 3, 8] {
            for_seeds(cases, |g| {
                let table = g.model(m, n);
                assert_plans_match_reference(&table, "random table");
                assert_plans_match_reference(&quantised(g, m, n), "quantised table");

                // The two shapes `ServerCore::admit` plans under: a snapshot
                // with hits (zero-cost cells), and observed cardinalities
                // over it.
                let covered = (0..m)
                    .map(|_| (0..n).map(|_| g.0.next_below(5) < 2).collect())
                    .collect();
                let snap = CacheSnapshot::new(covered, vec![0; n]);
                let cached = CachedCostModel::new(&table, &snap);
                assert_plans_match_reference(&cached, "cached");
                let mut fb = CardinalityFeedback::new(m, n);
                for i in 0..m {
                    for j in 0..n {
                        if g.0.next_below(3) == 0 {
                            fb.record_exact(CondId(i), SourceId(j), g.0.next_f64_range(0.0, 60.0));
                        }
                    }
                }
                assert_plans_match_reference(&FeedbackCostModel::new(&cached, &fb), "feedback");

                let sources = SourceSet::new(
                    g.relations(n)
                        .into_iter()
                        .enumerate()
                        .map(|(i, r)| {
                            Box::new(InMemoryWrapper::new(
                                format!("R{}", i + 1),
                                r,
                                Capabilities::full(),
                                ProcessingProfile::free(),
                                i as u64,
                            )) as Box<dyn Wrapper>
                        })
                        .collect(),
                );
                let network =
                    fusion::net::Network::uniform(n, fusion::net::LinkProfile::Wan.link());
                let net_model = NetworkCostModel::new(&sources, &network, &g.query(m), None);
                assert_plans_match_reference(&net_model, "network");
            });
        }
    }

    // Suffix searches, before the first round and from running sets of
    // every magnitude.
    let xs = [None, Some(0.0), Some(1.0), Some(40.0), Some(4_000.0)];
    let suffix_matches = |model: &TableCostModel, subset: &[usize]| {
        for x in xs {
            let want = reference_enumeration(model, RoundRule::PerSource, subset, x);
            let got = suffix_search(model, subset, x);
            let ctx = format!("subset {subset:?}, x {x:?}");
            assert_eq!(got.order, want.order, "{ctx}");
            assert_eq!(got.choices, want.choices, "{ctx}");
            assert_eq!(
                got.cost.value().to_bits(),
                want.cost.value().to_bits(),
                "{ctx}"
            );
            assert_eq!(bits(&got.sizes), bits(&want.sizes), "{ctx}");
        }
    };
    // Every non-empty subset of five conditions.
    for_seeds(4, |g| {
        let model = if g.0.next_below(2) == 0 {
            g.model(5, 3)
        } else {
            quantised(g, 5, 3)
        };
        for mask in 1u32..32 {
            let subset: Vec<usize> = (0..5).filter(|c| mask & (1 << c) != 0).collect();
            suffix_matches(&model, &subset);
        }
    });
    // Seven of eight conditions — a suffix only a query of eight or more
    // conditions has: 5 040 orderings per case in the reference.
    for_seeds(3, |g| {
        let done = g.0.next_below(8);
        let subset: Vec<usize> = (0..8).filter(|&c| c != done).collect();
        suffix_matches(&g.model(8, 3), &subset);
        suffix_matches(&quantised(g, 8, 3), &subset);
    });
}

// ---------- parser robustness -------------------------------------------------

/// The SQL front end never panics, whatever bytes arrive.
#[test]
fn parser_never_panics() {
    for_seeds(512, |g| {
        let len = g.0.next_below(121);
        let input: String = (0..len)
            .map(|_| {
                // Printable-ish ASCII plus a few multi-byte characters.
                match g.0.next_below(20) {
                    0 => 'λ',
                    1 => '→',
                    2 => '\u{7f}',
                    _ => (0x20 + g.0.next_below(95) as u8) as char,
                }
            })
            .collect();
        let _ = fusion::sql::parse_query(&input);
    });
}

/// ...including on inputs that lex but are structurally broken.
#[test]
fn parser_never_panics_on_sqlish_soup() {
    const WORDS: [&str; 22] = [
        "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "IN", "LIKE", "IS", "NULL", "u1",
        "u1.L", "U", "=", "<", "(", ")", ",", "'x'", "42", "-",
    ];
    for_seeds(512, |g| {
        let len = g.0.next_below(25);
        let soup: Vec<&str> = (0..len).map(|_| *g.0.choose(&WORDS)).collect();
        let _ = fusion::sql::parse_query(&soup.join(" "));
    });
}

// ---------- priced sources and bounded probe batches -------------------------

/// Builds a two-source replica world where condition 0 is highly
/// selective and condition 1 matches almost everything at the big
/// source `R2`, whose semijoins are emulated in probe batches of
/// `batch` and priced at `fee_millis` per query.
fn priced_world(
    batch: usize,
    fee_millis: u64,
) -> (
    fusion::source::SourceSet,
    fusion::net::Network,
    fusion::core::FusionQuery,
) {
    use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion::types::{tuple, Predicate, Relation, Tuple};
    let schema = dmv_schema();
    let small: Vec<Tuple> = (0..4)
        .map(|i| tuple![format!("A{i:02}"), "dui", 1993i64])
        .collect();
    let big: Vec<Tuple> = (0..20_000)
        .map(|i| tuple![format!("B{i:05}"), "sp", 1990i64])
        .collect();
    let sources = fusion::source::SourceSet::new(vec![
        Box::new(InMemoryWrapper::new(
            "R1",
            Relation::from_rows(schema.clone(), small),
            Capabilities::full(),
            ProcessingProfile::free(),
            0,
        )),
        Box::new(InMemoryWrapper::new(
            "R2",
            Relation::from_rows(schema.clone(), big),
            Capabilities::emulated(batch).with_fee_millis(fee_millis),
            ProcessingProfile::free(),
            1,
        )),
    ]);
    let network = fusion::net::Network::uniform(2, fusion::net::LinkProfile::Wan.link());
    let query = fusion::core::FusionQuery::new(
        schema,
        vec![
            Predicate::eq("V", "dui").into(),
            Predicate::cmp("D", fusion::types::CmpOp::Ge, 1980i64).into(),
        ],
    )
    .unwrap();
    (sources, network, query)
}

/// Per-query fees at a bounded-batch source must shift SJA away from
/// emulated probe cascades: free, the selective binding set makes
/// batch-1 probes at `R2` the cheap way to evaluate condition 1; at a
/// steep paid tier every probe pays the fee, so SJA flips that step to
/// a single flat-fee `sq`. A wide probe batch collapses the cascade to
/// one round trip and one fee, and the probes win again — the shift is
/// the *product* of pricing and batch bound, not either alone.
#[test]
fn paid_tier_and_probe_batch_shift_sja_choices() {
    use fusion::core::plan::Step;
    use fusion::core::NetworkCostModel;
    let step_for = |batch: usize, fee_millis: u64| {
        let (sources, network, query) = priced_world(batch, fee_millis);
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let opt = sja_optimal(&model);
        opt.plan
            .steps
            .iter()
            .find_map(|s| match s {
                Step::Sq { cond, source, .. } if cond.0 == 1 && source.0 == 1 => Some("sq"),
                Step::Sjq { cond, source, .. } if cond.0 == 1 && source.0 == 1 => Some("sjq"),
                _ => None,
            })
            .expect("condition 1 must be evaluated at R2 somehow")
    };
    assert_eq!(
        step_for(1, 0),
        "sjq",
        "free narrow batches: probing the 4-item binding set beats shipping 300 items"
    );
    assert_eq!(
        step_for(1, 2_000_000),
        "sq",
        "paid narrow batches: every probe pays 2000, one flat-fee sq wins"
    );
    assert_eq!(
        step_for(64, 2_000_000),
        "sjq",
        "paid wide batch: one probe round trip, one fee — probing wins again"
    );
}

/// The paid plan is genuinely optimal under its own model: re-costing
/// the free world's plan under the paid model can only be worse or
/// equal, and fees appear in the executed ledger as communication.
#[test]
fn paid_plan_dominates_free_plan_under_paid_model() {
    use fusion::core::NetworkCostModel;
    use fusion::exec::execute_plan;
    let (fs, fnet, fq) = priced_world(1, 0);
    let free_model = NetworkCostModel::new(&fs, &fnet, &fq, None);
    let free_plan = sja_optimal(&free_model).plan;
    let (ps, pnet, pq) = priced_world(1, 2_000_000);
    let paid_model = NetworkCostModel::new(&ps, &pnet, &pq, None);
    let paid = sja_optimal(&paid_model);
    let free_under_paid = estimate_plan_cost(&free_plan, &paid_model).cost;
    assert!(
        paid.cost <= free_under_paid,
        "SJA under fees must not exceed the fee-blind plan: {} vs {free_under_paid}",
        paid.cost
    );
    // Execution parity: both plans compute the same answer over the
    // paid world — pricing shifts the plan, never the semantics.
    let mut net_a = pnet.clone();
    let mut net_b = pnet;
    let a = execute_plan(&paid.plan, &pq, &ps, &mut net_a).unwrap();
    let b = execute_plan(&free_plan, &pq, &ps, &mut net_b).unwrap();
    assert_eq!(a.answer, b.answer);
}
