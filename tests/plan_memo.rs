//! The plan table of a `Memos` — behind `sj_optimal` / `sja_optimal` on
//! the shared default — may change how often the ordering search runs
//! and nothing else: a hit is, bit for bit, the plan a fresh
//! `ordering_search` finds, and a model that states no key is searched
//! every time.
//!
//! Each test asks a `Memos` of its own and asserts its absolute
//! `(misses, hits, entries, resets)`.

mod common;

use std::sync::Barrier;

use common::{assert_same_plan, bits, counts, width, Gen};
use fusion::cache::{CacheSnapshot, CachedCostModel};
use fusion::core::analyze::Memos;
use fusion::core::optimizer::{
    ordering_search, reference_enumeration, RoundRule, PLAN_MEMO_CAPACITY,
};
use fusion::core::query::FusionQuery;
use fusion::core::{CostModel, FeedbackCostModel, NetworkCostModel, OptimizedPlan, TableCostModel};
use fusion::exec::execute_plan;
use fusion::net::{Link, LinkProfile, Network};
use fusion::parse_fusion_query;
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
use fusion::stats::CardinalityFeedback;
use fusion::types::schema::dmv_schema;
use fusion::types::{tuple, CmpOp, CondId, Condition, Cost, Predicate, Relation, SourceId, Value};
use fusion::workload::synth::{synth_relations, synth_scenario, synth_schema, SynthSpec};
use fusion::workload::CapabilityMix;

/// The plan table's `(misses, hits, entries, resets)`.
fn plan_counts(memos: &Memos) -> (u64, u64, u64, u64) {
    counts(memos.stats().plans)
}

/// `k` keys asked twice each: every first call a miss, every second a
/// hit.
fn asked_twice(k: u64) -> (u64, u64, u64, u64) {
    (k, k, k, 0)
}

/// Asks `memos` twice and the search once; all three must agree, and
/// with Figures 3–4 enumerated literally where that is affordable.
fn ask_twice<M: CostModel>(memos: &Memos, model: &M, rule: RoundRule, what: &str) {
    let first = memos.optimal(model, rule);
    let second = memos.optimal(model, rule);
    let fresh = ordering_search(model, rule).0;
    assert_same_plan(&first, &fresh, &format!("{what}: first call"));
    assert_same_plan(&second, &fresh, &format!("{what}: second call"));
    let m = model.n_conditions();
    if m <= 5 {
        let all: Vec<usize> = (0..m).collect();
        let want = reference_enumeration(model, rule, &all, None);
        let order: Vec<usize> = fresh.spec.order.iter().map(|c| c.0).collect();
        assert_eq!(order, want.order, "{what}: reference order");
        assert_eq!(
            fresh.spec.choices, want.choices,
            "{what}: reference choices"
        );
        assert_eq!(
            fresh.cost.value().to_bits(),
            want.cost.value().to_bits(),
            "{what}: reference cost"
        );
        assert_eq!(
            bits(&fresh.round_sizes),
            bits(&want.sizes),
            "{what}: reference sizes"
        );
    }
}

const RULES: [RoundRule; 2] = [RoundRule::Uniform, RoundRule::PerSource];

// ---------- (i) a hit is the search's plan ----------------------------------

#[test]
fn first_call_second_call_and_a_fresh_search_agree() {
    for seed in 0..width("plan-memo") {
        let memos = Memos::new();
        let mut g = Gen::new(0x9_1A40 ^ seed);
        let (m, n) = (1 + g.0.next_below(6), 2 + g.0.next_below(7));
        let table = g.model(m, n);
        let spec = SynthSpec {
            domain_size: 600,
            rows_per_source: 150,
            ..SynthSpec::default_with(n, 0x51A4 + seed)
        };
        let sels: Vec<f64> = (0..m).map(|_| g.0.next_f64_range(0.02, 0.9)).collect();
        let network = synth_scenario(&spec, &sels).cost_model();
        for (k, rule) in (0..).zip(RULES) {
            let what = format!("seed {seed} {m}×{n} {rule:?}");
            ask_twice(&memos, &table, rule, &format!("{what} table"));
            assert_eq!(plan_counts(&memos), asked_twice(2 * k + 1), "{what} table");
            ask_twice(&memos, &network, rule, &format!("{what} network"));
            assert_eq!(
                plan_counts(&memos),
                asked_twice(2 * k + 2),
                "{what} network"
            );
        }
    }
}

// ---------- (ii) every input is in the key ----------------------------------

/// Everything a `NetworkCostModel` is built from, one knob each.
#[derive(Clone)]
struct World {
    relations: Vec<Relation>,
    caps: Vec<Capabilities>,
    procs: Vec<ProcessingProfile>,
    links: Vec<Link>,
    conditions: Vec<Condition>,
    domain: Option<f64>,
}

impl World {
    fn sources(&self) -> SourceSet {
        let wrap = |j: usize| {
            let relation = self.relations[j].clone();
            let (caps, proc) = (self.caps[j], self.procs[j]);
            Box::new(InMemoryWrapper::new(
                format!("S{j}"),
                relation,
                caps,
                proc,
                7,
            )) as Box<dyn Wrapper>
        };
        SourceSet::new((0..self.relations.len()).map(wrap).collect())
    }

    fn query(&self) -> FusionQuery {
        let schema = self.relations[0].schema().clone();
        FusionQuery::new(schema, self.conditions.clone()).unwrap()
    }

    fn model(&self) -> NetworkCostModel {
        let network = Network::new(self.links.clone());
        NetworkCostModel::new(&self.sources(), &network, &self.query(), self.domain)
    }
}

fn lt(attr: &str, v: i64) -> Condition {
    Predicate::cmp(attr, CmpOp::Lt, v).into()
}

#[test]
fn perturbing_any_input_of_a_network_model_changes_the_key() {
    let memos = Memos::new();
    let spec = SynthSpec {
        domain_size: 1000,
        rows_per_source: 300,
        capability_mix: CapabilityMix::AllFull,
        ..SynthSpec::default_with(3, 0x5E9A)
    };
    let base = World {
        relations: synth_relations(&spec),
        caps: vec![Capabilities::emulated(40); 3],
        procs: vec![ProcessingProfile::indexed_db(); 3],
        links: vec![LinkProfile::Wan.link(); 3],
        conditions: vec![lt("A1", 300), lt("A2", 500), lt("A3", 700)],
        domain: Some(1000.0),
    };
    ask_twice(&memos, &base.model(), RoundRule::PerSource, "base");
    assert_eq!(plan_counts(&memos), asked_twice(1));

    type Knob = (&'static str, fn(&mut World));
    let knobs: [Knob; 23] = [
        ("link.latency", |w| w.links[1].latency *= 2.0),
        ("link.bandwidth", |w| w.links[1].bandwidth *= 2.0),
        ("link.overhead", |w| w.links[1].overhead *= 2.0),
        ("native_semijoin", |w| w.caps[0].native_semijoin ^= true),
        ("full_load", |w| w.caps[0].full_load ^= true),
        ("binding_batch", |w| w.caps[0].binding_batch = 41),
        ("passed_bindings", |w| w.caps[0].passed_bindings ^= true),
        ("bloom_semijoin", |w| w.caps[0].bloom_semijoin ^= true),
        ("record_fetch", |w| w.caps[0].record_fetch ^= true),
        ("projection", |w| w.caps[0].projection ^= true),
        ("fetch_batch", |w| w.caps[0].fetch_batch = 5),
        ("fee_millis", |w| w.caps[0].fee_millis = 250),
        ("proc.fixed", |w| w.procs[2].fixed += 0.5),
        ("proc.per_tuple_examined", |w| {
            w.procs[2].per_tuple_examined *= 2.0;
        }),
        ("proc.per_item_returned", |w| {
            w.procs[2].per_item_returned *= 2.0;
        }),
        ("domain hint", |w| w.domain = Some(1001.0)),
        ("no domain hint", |w| w.domain = None),
        ("threshold (est)", |w| w.conditions[0] = lt("A1", 310)),
        ("index_served", |w| {
            w.conditions[1] = Predicate::Between {
                attr: "A2".into(),
                lo: Value::Int(0),
                hi: Value::Int(499),
            }
            .into();
        }),
        ("longer constant (cond_wire)", |w| {
            w.conditions[2] = lt("A3", 1700);
        }),
        ("rows", |w| {
            let mut rows = w.relations[1].rows().to_vec();
            rows.truncate(rows.len() - 1);
            w.relations[1] = Relation::from_rows(synth_schema(), rows);
        }),
        ("condition order", |w| w.conditions.swap(0, 1)),
        ("source order", |w| {
            w.links[0] = LinkProfile::Lan.link();
            w.links.swap(0, 2);
        }),
    ];
    for ((name, turn), k) in knobs.into_iter().zip(2..) {
        let mut world = base.clone();
        turn(&mut world);
        ask_twice(&memos, &world.model(), RoundRule::PerSource, name);
        assert_eq!(plan_counts(&memos), asked_twice(k), "{name}: its own key");
    }
    // SJ and SJA plans of one model are two entries.
    ask_twice(&memos, &base.model(), RoundRule::Uniform, "base, SJ");
    assert_eq!(plan_counts(&memos), asked_twice(25));
    // None of that displaced or altered the base entry.
    let fresh = ordering_search(&base.model(), RoundRule::PerSource).0;
    let again = memos.optimal(&base.model(), RoundRule::PerSource);
    assert_same_plan(&again, &fresh, "base, again");
    assert_eq!(plan_counts(&memos), (25, 26, 25, 0));
}

#[test]
fn perturbing_any_cell_of_a_table_model_changes_the_key() {
    let memos = Memos::new();
    let base = Gen::new(0x7AB1E).model(4, 3);
    ask_twice(&memos, &base, RoundRule::PerSource, "base");
    assert_eq!(plan_counts(&memos), asked_twice(1));
    let (c, s) = (CondId(2), SourceId(1));
    type Knob = (&'static str, fn(&mut TableCostModel, CondId, SourceId));
    let knobs: [Knob; 7] = [
        ("sq", |t, c, s| {
            let v = t.sq_cost(c, s).value();
            t.set_sq_cost(c, s, v + 1.0);
        }),
        ("sjq base", |t, c, s| {
            let (base, k) = (t.sjq_cost(c, s, 0.0).value(), t.sjq_cost(c, s, 1.0).value());
            t.set_sjq_cost(c, s, base + 1.0, k - base);
        }),
        ("sjq per item", |t, c, s| {
            let (base, k) = (t.sjq_cost(c, s, 0.0).value(), t.sjq_cost(c, s, 1.0).value());
            t.set_sjq_cost(c, s, base, 2.0 * (k - base) + 0.125);
        }),
        ("lq", |t, _, s| {
            t.set_lq_cost(s, 77.0);
        }),
        ("est", |t, c, s| {
            let v = t.est_sq_items(c, s);
            t.set_est_sq_items(c, s, v + 1.0);
        }),
        ("est sign of zero", |t, c, s| {
            t.set_est_sq_items(c, s, 0.0);
        }),
        ("domain", |t, _, _| {
            t.set_domain(201.0);
        }),
    ];
    for ((name, turn), k) in knobs.into_iter().zip(2..) {
        let mut table = base.clone();
        turn(&mut table, c, s);
        assert_ne!(table, base, "{name}: the knob turned");
        ask_twice(&memos, &table, RoundRule::PerSource, name);
        assert_eq!(plan_counts(&memos), asked_twice(k), "{name}: its own key");
    }
    // `0.0` and `-0.0` price alike but are different bit patterns: the
    // second can only miss, never borrow the first one's entry wrongly.
    let mut negative_zero = base;
    negative_zero.set_est_sq_items(c, s, -0.0);
    ask_twice(&memos, &negative_zero, RoundRule::PerSource, "-0.0");
    assert_eq!(plan_counts(&memos), asked_twice(9));
}

/// Two DMV sources in which `'aaa'`, `'bbb'` and `'cccccc'` are equally
/// frequent everywhere, held by different licences.
fn symmetric_world() -> World {
    let rows = |offset: usize| {
        let mut rows = Vec::new();
        for (k, violation) in ["aaa", "bbb", "cccccc"].into_iter().enumerate() {
            for i in 0..30 {
                let licence = format!("L{:03}", (offset + 7 * k + i) % 60);
                rows.push(tuple![licence, violation, 1990 + (i % 10) as i64]);
            }
        }
        Relation::from_rows(dmv_schema(), rows)
    };
    World {
        relations: vec![rows(0), rows(20)],
        caps: vec![Capabilities::full(); 2],
        procs: vec![ProcessingProfile::indexed_db(); 2],
        links: vec![LinkProfile::Wan.link(), LinkProfile::Slow.link()],
        conditions: Vec::new(),
        domain: Some(60.0),
    }
}

#[test]
fn queries_that_price_alike_share_an_entry_and_keep_their_own_answers() {
    let memos = Memos::new();
    let mut world = symmetric_world();
    let sql = |violation: &str| {
        format!(
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L \
             AND u1.V = '{violation}' AND u2.D < 1994"
        )
    };
    let mut answers = Vec::new();
    let mut plans = Vec::new();
    for (violation, want) in [
        ("aaa", (1, 0, 1, 0)),
        ("bbb", (1, 1, 1, 0)),
        ("cccccc", (2, 1, 2, 0)),
    ] {
        let query = parse_fusion_query(&sql(violation), &dmv_schema()).unwrap();
        world.conditions = query.conditions().to_vec();
        let model = world.model();
        let best = memos.optimal(&model, RoundRule::PerSource);
        assert_eq!(plan_counts(&memos), want, "{violation}");
        assert_same_plan(
            &best,
            &ordering_search(&model, RoundRule::PerSource).0,
            violation,
        );
        let mut network = Network::new(world.links.clone());
        let out = execute_plan(&best.plan, &query, &world.sources(), &mut network).unwrap();
        assert_eq!(
            out.answer,
            query.naive_answer(&world.relations).unwrap(),
            "{violation}"
        );
        answers.push(out.answer);
        plans.push(best);
    }
    assert_same_plan(&plans[0], &plans[1], "one entry, one plan");
    assert!(!answers[0].is_empty());
    assert_ne!(answers[0], answers[1], "the shared plan ran two queries");
}

// ---------- (iii) a model that states no key is never memoised --------------

/// A hand-written model that keeps the trait's default `plan_key`.
struct Handwritten(TableCostModel);

impl CostModel for Handwritten {
    fn n_conditions(&self) -> usize {
        self.0.n_conditions()
    }
    fn n_sources(&self) -> usize {
        self.0.n_sources()
    }
    fn sq_cost(&self, cond: CondId, source: SourceId) -> Cost {
        self.0.sq_cost(cond, source)
    }
    fn sjq_cost(&self, cond: CondId, source: SourceId, est_items: f64) -> Cost {
        self.0.sjq_cost(cond, source, est_items)
    }
    fn lq_cost(&self, source: SourceId) -> Cost {
        self.0.lq_cost(source)
    }
    fn est_sq_items(&self, cond: CondId, source: SourceId) -> f64 {
        self.0.est_sq_items(cond, source)
    }
    fn domain_size(&self) -> f64 {
        self.0.domain_size()
    }
}

#[test]
fn decorators_and_user_models_move_no_counter() {
    for seed in 0..width("plan-memo").min(24) {
        let memos = Memos::new();
        let mut g = Gen::new(0xDEC0 ^ seed);
        let (m, n) = (2 + g.0.next_below(4), 2 + g.0.next_below(4));
        let table = g.model(m, n);
        // Key the undecorated model first: a decorator that inherited the
        // key by accident would now hit its entry.
        memos.optimal(&table, RoundRule::PerSource);
        memos.optimal(&table, RoundRule::Uniform);
        let covered = (0..m)
            .map(|_| (0..n).map(|_| g.0.next_below(3) == 0).collect())
            .collect();
        let snapshot = CacheSnapshot::new(covered, vec![0; n]);
        let mut feedback = CardinalityFeedback::new(m, n);
        feedback.record_exact(CondId(m - 1), SourceId(0), 1.0);
        for rule in RULES {
            let what = format!("seed {seed} {m}×{n} {rule:?}");
            let cached = CachedCostModel::new(&table, &snapshot);
            ask_twice(&memos, &cached, rule, &what);
            assert_eq!(plan_counts(&memos), (2, 0, 2, 0), "{what} cached");
            let fed = FeedbackCostModel::new(&table, &feedback);
            ask_twice(&memos, &fed, rule, &what);
            assert_eq!(plan_counts(&memos), (2, 0, 2, 0), "{what} feedback");
            let by_hand = Handwritten(table.clone());
            ask_twice(&memos, &by_hand, rule, &what);
            assert_eq!(plan_counts(&memos), (2, 0, 2, 0), "{what} by hand");
        }
    }
}

// ---------- (iv) past capacity ----------------------------------------------

#[test]
fn overfull_memo_stays_bounded_and_answers_alike() {
    let memos = Memos::new();
    let capacity = PLAN_MEMO_CAPACITY as u64;
    let model = |k: usize| TableCostModel::uniform(1, 1, 1.0 + k as f64, 1.0, 0.1, 9.0, 1.0, 5.0);
    let firsts: Vec<OptimizedPlan> = (0..=PLAN_MEMO_CAPACITY)
        .map(|k| {
            let plan = memos.optimal(&model(k), RoundRule::PerSource);
            assert!(memos.stats().plans.entries <= capacity);
            plan
        })
        .collect();
    // `capacity + 1` new keys overflow the memo exactly once.
    assert_eq!(plan_counts(&memos), (capacity + 1, 0, 1, 1));
    // The newest entry outlived the clear; whatever it dropped is
    // searched again, to the same plan.
    let again = memos.optimal(&model(PLAN_MEMO_CAPACITY), RoundRule::PerSource);
    assert_same_plan(&again, &firsts[PLAN_MEMO_CAPACITY], "newest");
    assert_eq!(plan_counts(&memos), (capacity + 1, 1, 1, 1));
    for k in [0, 1, PLAN_MEMO_CAPACITY / 2] {
        let again = memos.optimal(&model(k), RoundRule::PerSource);
        assert_same_plan(&again, &firsts[k], &format!("k={k}"));
    }
    assert_eq!(plan_counts(&memos), (capacity + 4, 1, 4, 1));
}

// ---------- (v) racing first calls ------------------------------------------

#[test]
fn racing_first_calls_agree_and_leave_one_entry() {
    let memos = Memos::new();
    let model = Gen::new(0xACE5).model(6, 5);
    let gate = Barrier::new(4);
    let raced: Vec<OptimizedPlan> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    memos.optimal(&model, RoundRule::PerSource)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let (misses, hits, entries, resets) = plan_counts(&memos);
    assert_eq!((entries, resets), (1, 0), "equal entries are one entry");
    assert_eq!(misses + hits, 4);
    assert!(misses >= 1);
    let fresh = ordering_search(&model, RoundRule::PerSource).0;
    for plan in &raced {
        assert_same_plan(plan, &fresh, "raced");
    }
    memos.optimal(&model, RoundRule::PerSource);
    assert_eq!(plan_counts(&memos), (misses, hits + 1, 1, 0));
}

// ---------- hostile floats ---------------------------------------------------

/// The key compares bit patterns and the dense table stores whatever the
/// model returns, so `∞`, `-0.0`, NaN estimates and an empty domain can
/// at worst miss: memoised and fresh plans agree, and nothing panics.
#[test]
fn hostile_estimates_plan_alike_memoised_and_fresh() {
    let memos = Memos::new();
    let base = || TableCostModel::uniform(3, 2, 10.0, 1.0, 0.1, 1e6, 5.0, 100.0);
    let cells = || (0..3).flat_map(|c| (0..2).map(move |s| (CondId(c), SourceId(s))));

    // PR 17's tie: no source can semijoin and one cannot select.
    let mut all_infinite = base();
    for (c, s) in cells() {
        all_infinite.set_sjq_cost(c, s, f64::INFINITY, 0.0);
        if s.0 == 0 {
            all_infinite.set_sq_cost(c, s, f64::INFINITY);
        }
        all_infinite.set_est_sq_items(c, s, 30.0 - 10.0 * c.0 as f64);
    }
    let mut infinite_semijoins = base();
    for (c, s) in cells() {
        infinite_semijoins.set_sjq_cost(c, s, f64::INFINITY, 0.0);
    }
    let mut infinite_selection = base();
    infinite_selection.set_sq_cost(CondId(1), SourceId(1), f64::INFINITY);
    let mut zero_domain = base();
    zero_domain.set_domain(0.0);
    let mut negative_domain = base();
    negative_domain.set_domain(-4.0);
    let mut negative_zero = base();
    negative_zero.set_est_sq_items(CondId(0), SourceId(0), -0.0);
    negative_zero.set_domain(-0.0);
    let mut infinite_estimate = base();
    infinite_estimate.set_est_sq_items(CondId(2), SourceId(1), f64::INFINITY);
    let mut nan_estimate = base();
    nan_estimate.set_est_sq_items(CondId(1), SourceId(0), f64::NAN);

    let hostile = [
        ("all-∞ orderings", all_infinite),
        ("∞ semijoins", infinite_semijoins),
        ("∞ selection cell", infinite_selection),
        ("zero domain", zero_domain),
        ("negative domain", negative_domain),
        ("-0.0", negative_zero),
        ("∞ estimate", infinite_estimate),
        ("NaN estimate", nan_estimate),
    ];
    let mut keys = 0;
    for (name, model) in &hostile {
        for rule in RULES {
            ask_twice(&memos, model, rule, name);
            keys += 1;
            assert_eq!(plan_counts(&memos), asked_twice(keys), "{name} {rule:?}");
        }
    }
    let tie = memos.optimal(&hostile[0].1, RoundRule::PerSource);
    assert!(tie.cost.is_infinite());
    assert_eq!(tie.spec.order, vec![CondId(0), CondId(1), CondId(2)]);
}
