//! Differential battery for the memoised projection of cached answers.
//!
//! A cached answer's rows are sorted by merge item once — by the miss
//! that fetched them or by the first hit — and every later hit reads
//! that order. The oracle below is the projection the cache used to run
//! on every hit (collect the qualifying rows' items, sort, deduplicate);
//! the battery holds the memoised path to it byte for byte, and to the
//! source's own `select`, on the data that makes a remembered order
//! dangerous: several rows per item, NULL merge values, `Int`/`Float`
//! items that compare equal, heap-length strings, duplicated rows.

mod common;

use std::sync::{Arc, Barrier};

use common::{for_seeds, Gen, Hooked, VIOLATIONS};
use fusion::cache::{AnswerCache, Harvest, HitKind, ResolvedHit};
use fusion::core::plan::{Plan, SimplePlanSpec};
use fusion::core::query::FusionQuery;
use fusion::exec::{cached_phase2_rows, execute_plan, run, ExecutionOutcome, RunOptions, Target};
use fusion::net::{LinkProfile, Network};
use fusion::source::{InMemoryWrapper, SourceSet, Wrapper, WrapperResponse};
use fusion::types::schema::dmv_schema;
use fusion::types::{
    Attribute, Condition, Cost, Item, ItemSet, Predicate, Relation, Schema, SourceId, Tuple, Value,
    ValueType,
};

/// The sort-per-hit projection the cache ran before orders were
/// remembered — kept here as the reference.
fn oracle(rows: &[Tuple], cond: &Condition, schema: &Schema, residual: bool) -> ItemSet {
    let mut items = Vec::with_capacity(rows.len());
    for t in rows {
        if !residual || cond.eval(t, schema).unwrap() {
            items.push(t.item(schema));
        }
    }
    ItemSet::from_items(items)
}

/// Equal as sets *and* in representation (`2` and `2.0` compare equal).
fn assert_same(got: &ItemSet, want: &ItemSet, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
}

/// A merge value from a pool built to collide: NULL, `2` and `2.0`, a
/// few more numerics, strings past `Text`'s inline capacity, short ones.
fn merge_value(g: &mut Gen) -> Value {
    match g.0.next_below(9) {
        0 => Value::Null,
        1 => Value::Int(2),
        2 => Value::Float(2.0),
        3 => Value::Int(g.0.next_i64_range(0, 4)),
        4 => Value::Float(g.0.next_i64_range(0, 4) as f64 + 0.5),
        5 | 6 => Value::str(format!(
            "a-merge-value-well-past-the-inline-capacity-{}",
            g.0.next_below(4)
        )),
        _ => Value::str(format!("L{:02}", g.0.next_below(6))),
    }
}

/// A DMV-schema relation of up to 48 rows over that pool, with `V`
/// values that every `Gen::sql_condition` shape can match.
fn relation(g: &mut Gen) -> Relation {
    const V: [&str; 8] = [
        "dui", "sp", "park", "it's", "it's so", "NULL", "NULL-ish", "1990",
    ];
    let n = g.0.next_below(49);
    let rows = (0..n)
        .map(|_| {
            Tuple::new(vec![
                merge_value(g),
                Value::str(*g.0.choose(&V)),
                Value::Int(g.0.next_i64_range(1990, 2000)),
            ])
        })
        .collect();
    Relation::from_rows(dmv_schema(), rows)
}

/// `cached ∧ extra`: provably contained in `cached`.
fn narrowed(cached: &Condition, extra: &Condition) -> Condition {
    Predicate::And(vec![cached.pred.clone(), extra.pred.clone()]).into()
}

/// First call, repeat, and the oracle: exact and residual, through the
/// cache and against the source's own `select`.
#[test]
fn memoised_serve_matches_the_sort_per_hit_oracle_and_the_source() {
    let schema = dmv_schema();
    let s = SourceId(0);
    let (mut exact, mut residual) = (0u64, 0u64);
    for_seeds(160, |g| {
        let wrapper = InMemoryWrapper::fully_capable("S1", relation(g));
        let cached = g.sql_condition();
        let probe = narrowed(&cached, &g.sql_condition());
        let rows = wrapper.select_records(&cached).unwrap().payload;

        let mut cache = AnswerCache::new(1 << 20);
        cache.insert(s, cached.clone(), rows.clone(), true, Cost::new(1.0));
        for cond in [&cached, &probe] {
            let want = oracle(&rows, cond, &schema, true);
            assert_eq!(want, wrapper.select(cond).unwrap().payload, "{cond}");
            // Twice: the first lookup may build the order, the second
            // must reuse it.
            for round in 0..2 {
                let got = cache
                    .lookup(s, cond, &schema)
                    .unwrap()
                    .unwrap_or_else(|| panic!("{cached} must serve {cond}"));
                assert_same(&got.items, &want, &format!("{cond} round {round}"));
                match got.kind {
                    HitKind::Exact => exact += 1,
                    HitKind::Subsumed => residual += 1,
                }
            }
        }
    });
    assert!(
        exact > 0 && residual > 0,
        "exact {exact}, residual {residual}"
    );
}

/// Four threads released together onto an entry nobody has projected
/// yet: every one gets the oracle's answer, and the exact hits all hold
/// the one remembered set.
#[test]
fn racing_first_readers_agree() {
    let schema = dmv_schema();
    let s = SourceId(1);
    for_seeds(40, |g| {
        let rel = relation(g);
        let cached = g.sql_condition();
        let probe = narrowed(&cached, &g.sql_condition());
        let rows: Vec<Tuple> = rel
            .rows()
            .iter()
            .filter(|t| cached.eval(t, &schema).unwrap())
            .cloned()
            .collect();
        for (cond, kind) in [(&cached, HitKind::Exact), (&probe, HitKind::Subsumed)] {
            let hit = ResolvedHit::from_harvest(Arc::new(Harvest::new(rows.clone())), s, kind);
            let gate = Barrier::new(4);
            let served: Vec<Arc<ItemSet>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            gate.wait();
                            hit.serve(cond, &schema).unwrap().items
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let want = oracle(&rows, cond, &schema, kind == HitKind::Subsumed);
            for got in &served {
                assert_same(got, &want, &format!("{cond}"));
            }
            if kind == HitKind::Exact {
                assert!(served.iter().all(|got| Arc::ptr_eq(got, &served[0])));
            }
        }
    });
}

/// `plan` in plan order over a three-source WAN, through `cache`.
fn cached(
    plan: &Plan,
    q: &FusionQuery,
    sources: &SourceSet,
    cache: &mut AnswerCache,
) -> ExecutionOutcome {
    let options = RunOptions {
        cache: Some(cache),
        ..RunOptions::default()
    };
    let mut net = Network::uniform(3, LinkProfile::Wan.link());
    run(Target::Plan(plan), q, sources, &mut net, options)
        .unwrap()
        .outcome
}

/// A bag: every record twice.
fn twice(resp: WrapperResponse<Vec<Tuple>>) -> WrapperResponse<Vec<Tuple>> {
    WrapperResponse {
        payload: resp
            .payload
            .into_iter()
            .flat_map(|t| [t.clone(), t])
            .collect(),
        tuples_examined: resp.tuples_examined,
    }
}

/// Set semantics survive a bag: sources that return every row twice
/// change no fetched set, no served set (exact or residual) and no
/// answer — cold, filling the cache, and warm.
#[test]
fn bag_returning_wrappers_change_no_served_set() {
    let net = || Network::uniform(3, LinkProfile::Wan.link());
    let plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
    let (mut exact, mut residual) = (0usize, 0usize);
    for_seeds(48, |g| {
        let rels: Vec<Relation> = (0..3).map(|_| relation(g)).collect();
        let sources = |bag: bool| {
            SourceSet::new(
                rels.iter()
                    .enumerate()
                    .map(|(j, r)| {
                        let w = InMemoryWrapper::fully_capable(format!("R{}", j + 1), r.clone());
                        if bag {
                            let (on_cond, rows) = (Box::new(|_: &Condition| ()), twice);
                            Box::new(Hooked {
                                inner: w,
                                on_cond,
                                rows,
                            }) as Box<dyn Wrapper>
                        } else {
                            Box::new(w) as Box<dyn Wrapper>
                        }
                    })
                    .collect(),
            )
        };
        let (plain, bags) = (sources(false), sources(true));
        let broad = [g.sql_condition(), g.sql_condition()];
        let narrow = [narrowed(&broad[0], &g.sql_condition()), broad[1].clone()];
        let mut set_cache = AnswerCache::new(1 << 20);
        let mut bag_cache = AnswerCache::new(1 << 20);
        // Fill with the broad query, hit it exactly, then serve the
        // narrower one through residual filters.
        for conds in [&broad, &broad, &narrow] {
            let q = FusionQuery::new(dmv_schema(), conds.to_vec()).unwrap();
            let cold = execute_plan(&plan, &q, &plain, &mut net()).unwrap();
            let a = cached(&plan, &q, &plain, &mut set_cache);
            let b = cached(&plan, &q, &bags, &mut bag_cache);
            assert_eq!(a.answer, cold.answer);
            assert_same(&b.answer, &a.answer, "answer over bags");
            for (x, y) in a.ledger.entries().iter().zip(b.ledger.entries()) {
                assert_eq!(
                    (x.kind, x.items_out),
                    (y.kind, y.items_out),
                    "step {}",
                    x.step
                );
            }
        }
        assert_eq!(set_cache.stats(), bag_cache.stats());
        exact += bag_cache.stats().hits as usize;
        residual += bag_cache.stats().residual_hits as usize;
    });
    assert!(
        exact > 0 && residual > 0,
        "exact {exact}, residual {residual}"
    );
}

/// One entry read under two schemas that merge on different columns:
/// each reader gets the answer for its own merge attribute, whichever
/// asked first.
#[test]
fn two_merge_indexes_over_one_entry_each_get_their_own_answer() {
    let by_l = dmv_schema();
    let by_d = Schema::new(
        vec![
            Attribute::new("L", ValueType::Str),
            Attribute::new("V", ValueType::Str),
            Attribute::new("D", ValueType::Int),
        ],
        "D",
    )
    .unwrap();
    let s = SourceId(0);
    for_seeds(40, |g| {
        let rel = relation(g);
        let cached = g.sql_condition();
        let probe = narrowed(&cached, &g.sql_condition());
        let rows: Vec<Tuple> = rel
            .rows()
            .iter()
            .filter(|t| cached.eval(t, &by_l).unwrap())
            .cloned()
            .collect();
        let mut cache = AnswerCache::new(1 << 20);
        cache.insert(s, cached.clone(), rows.clone(), true, Cost::new(1.0));
        let order = if g.0.next_below(2) == 0 {
            [&by_l, &by_d, &by_l, &by_d]
        } else {
            [&by_d, &by_l, &by_d, &by_l]
        };
        for schema in order {
            for cond in [&cached, &probe] {
                let got = cache.lookup(s, cond, schema).unwrap().expect("served");
                let want = oracle(&rows, cond, schema, true);
                assert_same(&got.items, &want, &format!("{cond} merged on {schema}"));
            }
        }
    });
}

/// A remembered order belongs to the rows it was built from: replacing
/// an entry, or invalidating it and fetching again, never serves the
/// previous rows' order.
#[test]
fn reinsert_and_bump_epoch_never_serve_an_old_order() {
    let schema = dmv_schema();
    let s = SourceId(3);
    for_seeds(60, |g| {
        let cond = g.sql_condition();
        let probe = narrowed(&cond, &g.sql_condition());
        let mut cache = AnswerCache::new(1 << 20);
        let check = |cache: &mut AnswerCache, rows: &[Tuple], what: &str| {
            for c in [&cond, &probe] {
                let got = cache.lookup(s, c, &schema).unwrap().expect("served");
                assert_same(&got.items, &oracle(rows, c, &schema, true), what);
            }
        };
        let generations: Vec<Vec<Tuple>> = (0..3)
            .map(|_| {
                relation(g)
                    .rows()
                    .iter()
                    .filter(|t| cond.eval(t, &schema).unwrap())
                    .cloned()
                    .collect()
            })
            .collect();
        cache.insert(
            s,
            cond.clone(),
            generations[0].clone(),
            true,
            Cost::new(1.0),
        );
        check(&mut cache, &generations[0], "first rows");
        cache.insert(
            s,
            cond.clone(),
            generations[1].clone(),
            true,
            Cost::new(1.0),
        );
        check(&mut cache, &generations[1], "after re-insert");
        cache.bump_epoch(s);
        assert!(cache.lookup(s, &cond, &schema).unwrap().is_none());
        cache.insert(
            s,
            cond.clone(),
            generations[2].clone(),
            true,
            Cost::new(1.0),
        );
        check(&mut cache, &generations[2], "after bump and re-fetch");
    });
}

/// Phase two reads cached rows, not projections: after the entries have
/// been projected (orders built), `cached_phase2_rows` still returns, per
/// answer item, the lowest qualifying source's rows — sorted by value,
/// deduplicated — exactly as computed from the rows as inserted.
#[test]
fn cached_phase2_rows_are_unchanged_by_remembered_orders() {
    let schema = dmv_schema();
    let mut served = 0usize;
    for_seeds(40, |g| {
        let mut cache = AnswerCache::new(1 << 20);
        let mut inserted: Vec<(SourceId, Vec<Value>, Vec<Tuple>)> = Vec::new();
        for j in [2usize, 0, 1] {
            let rel = relation(g);
            let listed: Vec<Value> = (0..4).map(|_| merge_value(g)).collect();
            let cond: Condition = Predicate::InList {
                attr: "L".into(),
                values: listed.clone(),
            }
            .into();
            let rows: Vec<Tuple> = rel
                .rows()
                .iter()
                .filter(|t| cond.eval(t, &schema).unwrap())
                .cloned()
                .collect();
            cache.insert(
                SourceId(j),
                cond.clone(),
                rows.clone(),
                true,
                Cost::new(1.0),
            );
            // Build the entry's merge order before phase two looks.
            cache.lookup(SourceId(j), &cond, &schema).unwrap().unwrap();
            inserted.push((SourceId(j), listed, rows));
        }
        let answer: ItemSet = (0..6).map(|_| Item(merge_value(g))).collect();
        let got = cached_phase2_rows(&cache, &answer, &schema);
        for item in &answer {
            let mut best: Option<(SourceId, Vec<Tuple>)> = None;
            for (source, listed, rows) in &inserted {
                let mut mine: Vec<Tuple> = rows
                    .iter()
                    .filter(|t| &t.item(&schema) == item)
                    .cloned()
                    .collect();
                if !listed.contains(item.value()) || mine.is_empty() {
                    continue;
                }
                if best.as_ref().is_none_or(|(b, _)| source < b) {
                    mine.sort_by(|a, b| a.values().cmp(b.values()));
                    mine.dedup();
                    best = Some((*source, mine));
                }
            }
            assert_eq!(got.get(item), best.as_ref().map(|(_, rows)| rows), "{item}");
        }
        served += got.len();
    });
    assert!(served > 40, "battery served only {served} items");
}

/// One merge order per harvest, seen by identity: an exact hit's set is
/// the harvest's remembered `Arc`, and a repeated residual hit's set is
/// the `Arc` the first one returned — asked of a harvest, of the cache,
/// and of the entries a cached run filled.
#[test]
fn one_merge_order_per_harvest() {
    let schema = dmv_schema();
    let s = SourceId(0);
    let rows = vec![
        fusion::types::tuple!["b", "sp", 1993i64],
        fusion::types::tuple!["a", "dui", 1994i64],
        fusion::types::tuple!["a", "sp", 1995i64],
    ];
    let cond: Condition = Predicate::InList {
        attr: "V".into(),
        values: VIOLATIONS.iter().map(|v| Value::str(*v)).collect(),
    }
    .into();
    let narrow: Condition = Predicate::eq("V", "sp").into();
    let same = |a: &Arc<ItemSet>, b: &Arc<ItemSet>| Arc::ptr_eq(a, b);

    let harvest = Arc::new(Harvest::new(rows.clone()));
    let remembered = harvest.project(s, &cond, &schema, false).unwrap();
    let exact = ResolvedHit::from_harvest(Arc::clone(&harvest), s, HitKind::Exact);
    assert!(same(
        &exact.serve(&cond, &schema).unwrap().items,
        &remembered
    ));
    assert!(same(
        &exact.serve(&cond, &schema).unwrap().items,
        &remembered
    ));
    let residual = ResolvedHit::from_harvest(harvest, s, HitKind::Subsumed);
    let first = residual.serve(&narrow, &schema).unwrap().items;
    assert!(same(
        &residual.serve(&narrow, &schema).unwrap().items,
        &first
    ));

    let mut cache = AnswerCache::new(1 << 20);
    cache.insert(s, cond.clone(), rows, true, Cost::new(1.0));
    let served = |cache: &mut AnswerCache, source, cond: &Condition| {
        cache.lookup(source, cond, &schema).unwrap().unwrap().items
    };
    let (exact, residual) = (served(&mut cache, s, &cond), served(&mut cache, s, &narrow));
    assert!(same(&served(&mut cache, s, &cond), &exact));
    assert!(same(&served(&mut cache, s, &narrow), &residual));

    // Through execution: a cold run fills six entries, each serves one
    // set however often it is asked, and a warm run answers alike.
    let rels = [0, 1, 2].map(|_| {
        Relation::from_rows(
            dmv_schema(),
            vec![
                fusion::types::tuple!["J55", "dui", 1993i64],
                fusion::types::tuple!["T21", "sp", 1994i64],
            ],
        )
    });
    let sources = SourceSet::new(
        rels.into_iter()
            .enumerate()
            .map(|(j, r)| {
                Box::new(InMemoryWrapper::fully_capable(format!("R{}", j + 1), r))
                    as Box<dyn Wrapper>
            })
            .collect(),
    );
    let q = FusionQuery::new(
        dmv_schema(),
        vec![
            Predicate::eq("V", "dui").into(),
            Predicate::eq("V", "sp").into(),
        ],
    )
    .unwrap();
    let plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
    let mut cache = AnswerCache::new(1 << 20);
    let cold = cached(&plan, &q, &sources, &mut cache);
    assert_eq!(cache.len(), 6);
    for j in 0..3 {
        for cond in q.conditions() {
            let first = served(&mut cache, SourceId(j), cond);
            assert!(same(&served(&mut cache, SourceId(j), cond), &first));
        }
    }
    assert_eq!(cached(&plan, &q, &sources, &mut cache).answer, cold.answer);
}
