//! Differential battery for the sort-free data plane.
//!
//! `Relation::select_items` / `semijoin_items` read their answers off the
//! merge index in rank order and `ItemSet::union_all` merges borrowed items
//! in rounds. Each is compared here, over a battery of seeds, with the plain
//! definition it replaced: evaluate the predicate row by row, collect the
//! qualifying items and let `ItemSet::from_items` sort and deduplicate them;
//! fold `union` over the inputs. Items **and** `tuples_examined` must agree.
//!
//! The record selection is held to the same definition row for row: the
//! rows `Predicate::eval` keeps, in merge order (rank, then insertion), and
//! a cache harvest of them projects exactly what a harvest of the rows in
//! any other order projects. A harvest of the records by reference
//! (`Wrapper::select_shared`: the source's row block, ids in merge order,
//! items read off the merge index) is held to a harvest of the same
//! wrapper's owned records: rows, items, wire bytes, work and every
//! residual projection.
//!
//! The generated relations carry what the rank bookkeeping could get wrong:
//! several rows per merge value, NULL merge values, merge values that are
//! equal across types (`Int(2)` and `Float(2.0)` are one item — sets compare
//! them equal, and the merge index shows the value of the first row that
//! carries it), NULLs in the filtered attributes, empty relations, and
//! relations without any index (what a `LocalSq` step sees after `lq`).
//!
//! The widths are `width("data-plane-…")` (per test; CI widens them).

mod common;

use common::{for_seeds, width, Gen, Hooked, VIOLATIONS};
use fusion::cache::Harvest;
use fusion::source::{InMemoryWrapper, SourceEngine, Wrapper, WrapperResponse};
use fusion::types::schema::dmv_schema;
use fusion::types::{CmpOp, Condition, Item, ItemSet, Predicate, Relation, SourceId, Tuple, Value};
use std::collections::BTreeSet;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A merge value from a small mixed pool: strings, integers, floats that
/// collide with the integers, and NULL.
fn merge_value(g: &mut Gen) -> Value {
    match g.0.next_below(10) {
        0 => Value::Null,
        1 | 2 => Value::Int(g.0.next_i64_range(0, 5)),
        3 => Value::Float(g.0.next_i64_range(0, 9) as f64 / 2.0),
        _ => Value::str(format!("L{:02}", g.0.next_below(12))),
    }
}

/// A DMV-shaped row with NULLs sprinkled over every column.
fn row(g: &mut Gen) -> Tuple {
    let v = match g.0.next_below(8) {
        0 => Value::Null,
        _ => Value::str(*g.0.choose(&VIOLATIONS)),
    };
    let d = match g.0.next_below(8) {
        0 => Value::Null,
        _ => Value::Int(g.0.next_i64_range(1990, 2000)),
    };
    Tuple::new(vec![merge_value(g), v, d])
}

fn rows(g: &mut Gen) -> Vec<Tuple> {
    // One seed in eight gets the empty relation.
    let n = if g.0.next_below(8) == 0 {
        0
    } else {
        g.0.next_below(40)
    };
    (0..n).map(|_| row(g)).collect()
}

/// Every shape of condition the engine can meet: the six comparisons on an
/// integer and on a string attribute (the secondary-index path), and the
/// predicates that always scan.
fn conditions(g: &mut Gen) -> Vec<Condition> {
    let year = g.0.next_i64_range(1989, 2001);
    let violation = *g.0.choose(&VIOLATIONS);
    let mut preds: Vec<Predicate> = Vec::new();
    for op in OPS {
        preds.push(Predicate::cmp("D", op, year));
        preds.push(Predicate::cmp("V", op, violation));
        preds.push(Predicate::cmp("L", op, "L05"));
    }
    preds.push(Predicate::cmp("D", CmpOp::Eq, Value::Null));
    preds.push(Predicate::Between {
        attr: "D".into(),
        lo: Value::Int(year - 2),
        hi: Value::Int(year + 1),
    });
    preds.push(Predicate::InList {
        attr: "V".into(),
        values: vec![Value::str("dui"), Value::str("park")],
    });
    preds.push(Predicate::Like {
        attr: "V".into(),
        pattern: "%p%".into(),
    });
    preds.push(Predicate::IsNull { attr: "D".into() });
    preds.push(Predicate::And(vec![
        Predicate::cmp("D", CmpOp::Ge, year),
        Predicate::eq("V", violation),
    ]));
    preds.push(Predicate::Or(vec![
        Predicate::cmp("D", CmpOp::Lt, year),
        Predicate::IsNull { attr: "V".into() },
    ]));
    preds.push(Predicate::Not(Box::new(Predicate::eq("V", violation))));
    preds.into_iter().map(Into::into).collect()
}

/// The three states a relation can be in when it is asked.
struct Views {
    /// No index at all: the mediator-side `LocalSq` path.
    plain: Relation,
    /// Merge index only: ranked answers from a full scan.
    ranked: Relation,
    /// Merge index and every secondary index, as `SourceEngine` builds them.
    engine: SourceEngine,
}

fn views(rows: &[Tuple]) -> Views {
    let plain = Relation::from_rows(dmv_schema(), rows.to_vec());
    let mut ranked = plain.clone();
    ranked.build_merge_index();
    let engine = SourceEngine::new(plain.clone());
    Views {
        plain,
        ranked,
        engine,
    }
}

fn qualifies(cond: &Condition, row: &Tuple) -> bool {
    cond.eval(row, &dmv_schema())
        .expect("generated conditions are well-typed")
}

/// True when a built secondary index answers `cond` without a scan.
fn index_answers(cond: &Condition) -> bool {
    matches!(&cond.pred, Predicate::Cmp { value, .. } if !matches!(value, Value::Null))
}

#[test]
fn select_items_matches_collect_and_sort() {
    let schema = dmv_schema();
    for_seeds(width("data-plane-items"), |g| {
        let rows = rows(g);
        let v = views(&rows);
        for cond in conditions(g) {
            let hits: Vec<&Tuple> = rows.iter().filter(|r| qualifies(&cond, r)).collect();
            let want = ItemSet::from_items(hits.iter().map(|r| r.item(&schema)));
            for (name, rel) in [("plain", &v.plain), ("ranked", &v.ranked)] {
                let got = rel.select_items(&cond).unwrap();
                assert_eq!(got.items, want, "{name} {cond}");
                assert_eq!(got.tuples_examined, rows.len(), "{name} {cond}");
            }
            let got = v.engine.select(&cond).unwrap();
            assert_eq!(got.items, want, "engine {cond}");
            let examined = if index_answers(&cond) {
                hits.len()
            } else {
                rows.len()
            };
            assert_eq!(got.tuples_examined, examined, "engine {cond}");
        }
    });
}

/// The definition of `sjq` the merge join replaced: probe each binding in
/// ascending order, examine its rows in insertion order up to the first
/// that qualifies.
fn semijoin_by_probing(rows: &[Tuple], cond: &Condition, bindings: &ItemSet) -> (ItemSet, usize) {
    let mut out = Vec::new();
    let mut examined = 0;
    for item in bindings {
        for row in rows.iter().filter(|r| r.get(0) == item.value()) {
            examined += 1;
            if qualifies(cond, row) {
                out.push(item.clone());
                break;
            }
        }
    }
    (ItemSet::from_items(out), examined)
}

#[test]
fn semijoin_items_matches_probe_per_binding() {
    let schema = dmv_schema();
    for_seeds(width("data-plane-items"), |g| {
        let rows = rows(g);
        let v = views(&rows);
        let n_bindings = g.0.next_below(20);
        let bindings: ItemSet = (0..n_bindings).map(|_| Item(merge_value(g))).collect();
        for cond in conditions(g) {
            let (want, examined) = semijoin_by_probing(&rows, &cond, &bindings);
            let got = v.ranked.semijoin_items(&cond, &bindings).unwrap();
            assert_eq!(got.items, want, "ranked {cond} ⋉ {bindings}");
            assert_eq!(got.tuples_examined, examined, "ranked {cond} ⋉ {bindings}");
            assert_eq!(v.engine.semijoin(&cond, &bindings).unwrap(), got);
            // Without a merge index: one scan, the same answer.
            let got = v.plain.semijoin_items(&cond, &bindings).unwrap();
            assert_eq!(got.items, want, "plain {cond} ⋉ {bindings}");
            assert_eq!(got.tuples_examined, rows.len());
            assert!(got.items.is_subset_of(&bindings));

            // The record-returning twins filter by the same membership.
            let in_bindings = |r: &&Tuple| bindings.contains(&r.item(&schema));
            let want: Vec<Tuple> = rows.iter().filter(in_bindings).cloned().collect();
            assert_eq!(v.engine.fetch(&bindings), (want.clone(), rows.len()));
            let projected: Vec<Tuple> = want
                .iter()
                .map(|r| Tuple::new(vec![r.get(2).clone(), r.get(0).clone()]))
                .collect();
            assert_eq!(
                v.engine.fetch_projected(&bindings, &[2, 0]),
                (projected, rows.len())
            );
            let want: Vec<Tuple> = want.into_iter().filter(|r| qualifies(&cond, r)).collect();
            assert_eq!(
                v.engine.semijoin_records(&cond, &bindings).unwrap(),
                (want, rows.len())
            );
        }
    });
}

#[test]
fn semijoin_agrees_on_both_sides_of_the_sparse_threshold() {
    // 160 distinct keys, two rows each. A binding set under a sixteenth of
    // that (9 < 10) binary-searches forward; from 10 on it walks. Bindings
    // fall before the first key, between keys, on keys and past the last.
    let rows: Vec<Tuple> = (0..320i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int((i % 160) * 3),
                Value::str(VIOLATIONS[(i % 3) as usize]),
                Value::Int(1990 + i % 10),
            ])
        })
        .collect();
    let mut rel = Relation::from_rows(dmv_schema(), rows.clone());
    rel.build_merge_index();
    let cond: Condition = Predicate::eq("V", "dui").into();
    for n in [0usize, 1, 8, 9, 10, 11, 40, 400] {
        for (start, stride) in [(-7i64, 1i64), (-6, 3), (0, 31), (470, 2), (477, 3)] {
            let bindings: ItemSet = (0..n as i64).map(|k| start + k * stride).collect();
            let (want, examined) = semijoin_by_probing(&rows, &cond, &bindings);
            let got = rel.semijoin_items(&cond, &bindings).unwrap();
            assert_eq!(got.items, want, "n {n} start {start} stride {stride}");
            assert_eq!(got.tuples_examined, examined, "n {n} start {start}");
        }
    }
}

/// Equal as lists *and* in representation (`2` and `2.0` compare equal).
fn assert_same<T: PartialEq + std::fmt::Debug>(got: &T, want: &T, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
}

/// `rows` in an order drawn from `g` (Fisher–Yates).
fn shuffled(g: &mut Gen, rows: &[Tuple]) -> Vec<Tuple> {
    let mut out = rows.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, g.0.next_below(i + 1));
    }
    out
}

/// The projection a harvest of `rows` must serve: the qualifying rows'
/// items through `ItemSet::from_items`, in the rows' own order.
fn projected(rows: &[Tuple], residual: Option<&Condition>) -> ItemSet {
    let schema = dmv_schema();
    let kept = rows
        .iter()
        .filter(|r| residual.is_none_or(|cond| qualifies(cond, r)));
    ItemSet::from_items(kept.map(|r| r.item(&schema)))
}

#[test]
fn select_records_matches_a_full_scan() {
    let schema = dmv_schema();
    for_seeds(width("data-plane-sets"), |g| {
        let mut rows = rows(g);
        // Half the relations filter on `D` values that are one key across
        // types (`1990` / `1990.0`).
        if g.0.next_below(2) == 0 {
            for r in &mut rows {
                let d = g.0.choose(&INDEXED).clone();
                *r = Tuple::new(vec![r.get(0).clone(), r.get(1).clone(), d]);
            }
        }
        let v = views(&rows);
        let bindings: ItemSet = (0..g.0.next_below(20))
            .map(|_| Item(merge_value(g)))
            .collect();
        let mut conds = conditions(g);
        conds.push(Predicate::cmp("D", CmpOp::Le, Value::Float(1992.5)).into());
        conds.push(Predicate::cmp("D", CmpOp::Eq, Value::Float(1990.0)).into());
        for cond in &conds {
            let kept: Vec<Tuple> = rows
                .iter()
                .filter(|r| qualifies(cond, r))
                .cloned()
                .collect();
            // Merge order: rank ascending, insertion order within a rank —
            // a stable sort of the kept rows by merge value.
            let mut merged = kept.clone();
            merged.sort_by(|a, b| a.get(0).cmp(b.get(0)));
            let (got, examined) = v.engine.select_records(cond).unwrap();
            assert_same(&got, &merged, &format!("engine {cond}"));
            assert_eq!(examined, rows.len(), "engine {cond}: priced as a scan");
            let ranked = v.ranked.select_records(cond).unwrap();
            assert_same(&ranked, &merged, &format!("ranked {cond}"));
            let plain = v.plain.select_records(cond).unwrap();
            assert_same(&plain, &kept, &format!("plain {cond}"));
            let in_bindings = |r: &&Tuple| bindings.contains(&r.item(&schema));
            let joined: Vec<Tuple> = kept.iter().filter(in_bindings).cloned().collect();
            let (got_sj, examined) = v.engine.semijoin_records(cond, &bindings).unwrap();
            assert_same(&got_sj, &joined, &format!("{cond} ⋉ {bindings}"));
            assert_eq!(examined, rows.len());

            // A harvest of the rows in insertion order (rows the sort
            // moves), in merge order (one run it leaves in place) and
            // shuffled projects the same sets with the same
            // representatives: exactly, and through every residual
            // condition.
            let shuffled = shuffled(g, &kept);
            let harvests = [&kept, &got, &shuffled].map(|rows| Harvest::new(rows.clone()));
            for residual in std::iter::once(None).chain(conds.iter().map(Some)) {
                let what = format!("{cond} then {residual:?}");
                let serve = |h: &Harvest| {
                    let cond = residual.unwrap_or(cond);
                    h.project(SourceId(0), cond, &schema, residual.is_some())
                        .unwrap()
                };
                let want = projected(&kept, residual);
                assert_same(&*serve(&harvests[0]), &want, &what);
                assert_same(&*serve(&harvests[1]), &want, &what);
                assert_same(
                    &*serve(&harvests[2]),
                    &projected(&shuffled, residual),
                    &what,
                );
            }
        }
    });
}

/// Two harvests of one answer serve alike: the same rows in the same
/// order, the same wire bytes, and the same sets — in representation —
/// exactly and through every condition narrower than `cond`.
fn assert_same_harvest(got: &Harvest, want: &Harvest, cond: &Condition, extra: &[Condition]) {
    let schema = dmv_schema();
    let rows = |h: &Harvest| h.rows().cloned().collect::<Vec<_>>();
    assert_same(&rows(got), &rows(want), &format!("rows of {cond}"));
    assert_eq!(got.wire_bytes(), want.wire_bytes(), "bytes of {cond}");
    let serve = |h: &Harvest, cond: &Condition, residual| {
        h.project(SourceId(0), cond, &schema, residual).unwrap()
    };
    assert_same(
        &*serve(got, cond, false),
        &*serve(want, cond, false),
        &cond.to_string(),
    );
    for extra in extra {
        let narrow = Predicate::And(vec![cond.pred.clone(), extra.pred.clone()]).into();
        let what = format!("{cond} then {extra}");
        assert_same(
            &*serve(got, &narrow, true),
            &*serve(want, &narrow, true),
            &what,
        );
    }
}

/// A wrapper's records as a bag: every record twice.
fn twice(mut resp: WrapperResponse<Vec<Tuple>>) -> WrapperResponse<Vec<Tuple>> {
    resp.payload.extend(resp.payload.clone());
    resp
}

/// A wrapper's records in reverse order.
fn reversed(mut resp: WrapperResponse<Vec<Tuple>>) -> WrapperResponse<Vec<Tuple>> {
    resp.payload.reverse();
    resp
}

#[test]
fn shared_records_harvest_like_owned_records() {
    let schema = dmv_schema();
    // `2.0` leads its rank; only the later `2` qualifies, and shows.
    let mixed = vec![
        Tuple::new(vec![Value::Float(2.0), Value::str("dui"), Value::Int(1993)]),
        Tuple::new(vec![Value::Int(2), Value::str("sp"), Value::Int(1994)]),
    ];
    let w = InMemoryWrapper::fully_capable("R1", Relation::from_rows(schema.clone(), mixed));
    let sp: Condition = Predicate::eq("V", "sp").into();
    let shared = Harvest::from(w.select_shared(&sp).unwrap().payload);
    let shown = shared.project(SourceId(0), &sp, &schema, false).unwrap();
    assert_eq!(
        format!("{shown:?}"),
        format!("{:?}", ItemSet::from_items([2i64]))
    );
    assert_same_harvest(
        &shared,
        &Harvest::new(w.select_records(&sp).unwrap().payload),
        &sp,
        &[],
    );

    for_seeds(width("data-plane-records"), |g| {
        let rows = rows(g);
        let plain = Relation::from_rows(schema.clone(), rows.clone());
        let inner = InMemoryWrapper::fully_capable("R1", plain.clone());
        let hooked = |rows| -> Box<dyn Wrapper> {
            Box::new(Hooked {
                inner: inner.clone(),
                on_cond: Box::new(|_| {}),
                rows,
            })
        };
        // The in-memory wrapper answers by reference; the hooked ones
        // through the default adapter, with a bag and a reordering.
        let wrappers = [Box::new(inner.clone()), hooked(twice), hooked(reversed)];
        let mut conds = conditions(g);
        conds.push(Predicate::Const(false).into());
        let extra: Vec<Condition> = (0..3)
            .map(|_| conds[g.0.next_below(conds.len())].clone())
            .collect();
        for cond in &conds {
            let kept = rows.iter().filter(|r| qualifies(cond, r));
            let want = ItemSet::from_items(kept.map(|r| r.item(&schema)));
            for w in &wrappers {
                let shared = w.select_shared(cond).unwrap();
                let owned = w.select_records(cond).unwrap();
                assert_eq!(shared.tuples_examined, owned.tuples_examined, "{cond}");
                assert_eq!(shared.payload.ids.len(), owned.payload.len(), "{cond}");
                let (got, owned) = (Harvest::from(shared.payload), Harvest::new(owned.payload));
                assert_same_harvest(&got, &owned, cond, &extra);
                let served = got.project(SourceId(0), cond, &schema, false).unwrap();
                assert_eq!(*served, want, "{cond}");
            }
            // No merge index: the ids come in insertion order, the first
            // projection sorts them.
            let shared = plain.select_shared(cond).unwrap();
            assert!(shared.items.is_none(), "{cond}");
            let owned = Harvest::new(plain.select_records(cond).unwrap());
            assert_same_harvest(&Harvest::from(shared), &owned, cond, &extra);
        }
    });
}

#[test]
fn union_all_matches_a_fold_of_union() {
    for_seeds(width("data-plane-sets"), |g| {
        for k in 0..=17usize {
            let sets: Vec<ItemSet> = (0..k)
                .map(|_| match g.0.next_below(4) {
                    0 => ItemSet::empty(),
                    1 => (0..g.0.next_below(12)).map(|_| g.item()).collect(),
                    _ => g.items(),
                })
                .collect();
            let want = sets.iter().fold(ItemSet::empty(), |acc, s| acc.union(s));
            assert_eq!(ItemSet::union_all(&sets), want, "k {k}");
        }
    });
}

/// Attribute values for the secondary-index battery: NULLs, duplicates,
/// keys equal across types (`1990` and `1990.0` are one key) and a
/// fraction between two integers.
const INDEXED: [Value; 8] = [
    Value::Null,
    Value::Int(1990),
    Value::Float(1990.0),
    Value::Int(1992),
    Value::Float(1992.5),
    Value::Int(1994),
    Value::Float(1994.0),
    Value::Int(1996),
];

#[test]
fn secondary_index_matches_a_full_scan() {
    let schema = dmv_schema();
    // Below, between, on (in either type) and above every key, an absent
    // `=` constant, and constants of other types, which the cross-type
    // order puts below or above all numbers.
    let constants = [
        Value::Int(1980),
        Value::Float(1989.9),
        Value::Int(1990),
        Value::Float(1990.0),
        Value::Int(1991),
        Value::Float(1992.5),
        Value::Int(1993),
        Value::Float(1994.0),
        Value::Int(1996),
        Value::Float(1996.5),
        Value::Int(2001),
        Value::Bool(true),
        Value::str("1992"),
    ];
    for_seeds(width("data-plane-index"), |g| {
        let n = match g.0.next_below(8) {
            0 => 0,
            _ => g.0.next_below(40),
        };
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                let d = g.0.choose(&INDEXED).clone();
                Tuple::new(vec![merge_value(g), Value::str("dui"), d])
            })
            .collect();
        let plain = Relation::from_rows(schema.clone(), rows.clone());
        let mut unranked = plain.clone();
        unranked.build_index(2);
        let mut ranked = unranked.clone();
        ranked.build_merge_index();
        for constant in &constants {
            for op in OPS {
                let cond: Condition = Predicate::cmp("D", op, constant.clone()).into();
                let hits: Vec<&Tuple> = rows.iter().filter(|r| qualifies(&cond, r)).collect();
                let want = ItemSet::from_items(hits.iter().map(|r| r.item(&schema)));
                let scanned = plain.select_items(&cond).unwrap();
                assert_eq!(scanned.items, want, "scan {cond}");
                assert_eq!(scanned.tuples_examined, rows.len(), "scan {cond}");
                for (name, rel) in [("unranked", &unranked), ("ranked", &ranked)] {
                    let got = rel.select_items(&cond).unwrap();
                    assert_eq!(got.items, want, "{name} {cond}");
                    assert_eq!(got.tuples_examined, hits.len(), "{name} {cond}");
                }
                // Without ranks the answer is collected in index order —
                // keys ascending, a key's rows in insertion order — and
                // sorted stably, which decides whether `2` or `2.0` shows.
                let mut in_index_order = hits.clone();
                in_index_order.sort_by(|a, b| a.get(2).cmp(b.get(2)));
                let shown = ItemSet::from_items(in_index_order.iter().map(|r| r.item(&schema)));
                assert_eq!(
                    unranked.select_items(&cond).unwrap().items.to_string(),
                    shown.to_string(),
                    "{cond}"
                );
            }
        }
    });
}

/// An item from a pool that mixes every representation a set can hold:
/// inline strings, heap strings that share an inline string's fifteen
/// bytes, integers, floats equal to them, booleans and NULL. With
/// `inline_only`, nothing but inline strings — among them a trailing NUL
/// beside its prefix and the empty string — which is what sends a
/// `union_all` of three or more sets through its integer-keyed rounds.
fn mixed_item(g: &mut Gen, inline_only: bool) -> Item {
    let n = g.0.next_below(6);
    if inline_only {
        return Item(match g.0.next_below(4) {
            0 => Value::str(format!("k{n}")),
            1 => Value::str(format!("k{n}\0")),
            2 => Value::str(&"fifteen-bytes-k"[..3 * n]),
            _ => Value::str(format!("E000123{n}")),
        });
    }
    Item(match g.0.next_below(9) {
        0 => Value::Null,
        1 => Value::Bool(n < 3),
        2 | 3 => Value::Int(n as i64),
        4 => Value::Float(n as f64 / 2.0),
        5 | 6 => Value::str(format!("k{n}")),
        7 => Value::str("fifteen-bytes-k"),
        _ => Value::str(format!("fifteen-bytes-k{n}")),
    })
}

#[test]
fn set_algebra_over_mixed_items_matches_a_btreeset() {
    let listed = |s: &BTreeSet<Item>| ItemSet::from_sorted_unique(s.iter().cloned().collect());
    for_seeds(width("data-plane-sets"), |g| {
        for k in 0..=17usize {
            let inline_only = g.0.next_below(3) == 0;
            let sets: Vec<ItemSet> = (0..k)
                .map(|_| {
                    (0..g.0.next_below(14))
                        .map(|_| mixed_item(g, inline_only))
                        .collect()
                })
                .collect();
            let oracles: Vec<BTreeSet<Item>> =
                sets.iter().map(|s| s.iter().cloned().collect()).collect();
            let mut all = BTreeSet::new();
            for o in &oracles {
                // `insert` keeps the element already there, as a union
                // keeps the earlier input's representative.
                all.extend(o.iter().cloned());
            }
            let union = ItemSet::union_all(&sets);
            assert_eq!(union, listed(&all), "k {k}");
            assert_eq!(union.to_string(), listed(&all).to_string(), "k {k}");
            for (i, (a, oa)) in sets.iter().zip(&oracles).enumerate() {
                let (b, ob) = (&sets[(i + 1) % k], &oracles[(i + 1) % k]);
                let both: BTreeSet<Item> = oa.intersection(ob).cloned().collect();
                let only: BTreeSet<Item> = oa.difference(ob).cloned().collect();
                assert_eq!(a.intersect(b), listed(&both), "{a} ∩ {b}");
                assert_eq!(a.difference(b), listed(&only), "{a} − {b}");
                assert_eq!(a.is_subset_of(b), oa.is_subset(ob), "{a} ⊆ {b}");
                assert!(a.intersect(b).is_subset_of(a), "{a} ∩ {b} ⊆ {a}");
                assert!(a.is_subset_of(&union), "{a} ⊆ ∪");
                for item in a {
                    assert_eq!(b.contains(item), ob.contains(item), "{item} ∈ {b}");
                }
            }
        }
    });
}
