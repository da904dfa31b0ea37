//! Predicate selectivity estimation over [`TableStats`].

use crate::histogram::{ColumnStats, TableStats};
use fusion_types::{CmpOp, Predicate, Value};

/// Floor applied to every leaf estimate so downstream cardinality products
/// never collapse to exactly zero (a source can always surprise us).
pub(crate) const MIN_SELECTIVITY: f64 = 1e-6;

/// Estimates the fraction of a relation's tuples satisfying `pred`, from
/// statistics alone.
///
/// Strategy per leaf:
/// * numeric comparisons and `BETWEEN` — histogram interpolation;
/// * equality — MCV frequency when tracked, else `1 / distinct`;
/// * `IN` — sum of member estimates, capped at 1;
/// * `LIKE`, residual cases — evaluation over the retained value sample;
/// * `IS NULL` — exact null fraction.
///
/// Connectives use the independence assumptions the paper adopts:
/// `AND` multiplies, `OR` uses inclusion–exclusion, `NOT` complements.
pub fn estimate_selectivity(pred: &Predicate, stats: &TableStats) -> f64 {
    let s = match pred {
        Predicate::Cmp { attr, op, value } => match stats.column(attr) {
            Some(col) => cmp_selectivity(col, *op, value),
            None => 0.5,
        },
        Predicate::Between { attr, lo, hi } => match stats.column(attr) {
            Some(col) => between_selectivity(col, lo, hi),
            None => 0.25,
        },
        Predicate::InList { attr, values } => match stats.column(attr) {
            Some(col) => values
                .iter()
                .map(|v| cmp_selectivity(col, CmpOp::Eq, v))
                .sum::<f64>()
                .min(1.0),
            None => 0.5,
        },
        Predicate::Like { attr, pattern } => match stats.column(attr) {
            Some(col) => sample_selectivity(col, |v| match v {
                Value::Str(s) => fusion_types::condition::like_match(pattern, s),
                _ => false,
            }),
            None => 0.25,
        },
        Predicate::IsNull { attr } => match stats.column(attr) {
            Some(col) => col.nulls as f64 / col.total().max(1) as f64,
            None => 0.05,
        },
        Predicate::And(ps) => ps
            .iter()
            .map(|p| estimate_selectivity(p, stats))
            .product::<f64>(),
        Predicate::Or(ps) => {
            let mut none = 1.0;
            for p in ps {
                none *= 1.0 - estimate_selectivity(p, stats);
            }
            1.0 - none
        }
        Predicate::Not(p) => 1.0 - estimate_selectivity(p, stats),
        Predicate::Const(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
    };
    if matches!(pred, Predicate::Const(false)) {
        return 0.0;
    }
    s.clamp(MIN_SELECTIVITY, 1.0)
}

fn cmp_selectivity(col: &ColumnStats, op: CmpOp, value: &Value) -> f64 {
    match op {
        CmpOp::Eq => eq_selectivity(col, value),
        CmpOp::Ne => 1.0 - eq_selectivity(col, value),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            if let (Some(hist), Some(x)) = (&col.histogram, value.as_f64()) {
                let below = hist.fraction_below(x);
                let at = eq_selectivity(col, value);
                let frac = match op {
                    CmpOp::Lt => below,
                    CmpOp::Le => below + at,
                    CmpOp::Gt => 1.0 - below - at,
                    CmpOp::Ge => 1.0 - below,
                    _ => unreachable!(),
                };
                frac.clamp(0.0, 1.0)
            } else {
                sample_selectivity(col, |v| op.holds(v.cmp(value)))
            }
        }
    }
}

fn eq_selectivity(col: &ColumnStats, value: &Value) -> f64 {
    if let Some(f) = col.mcv_frequency(value) {
        return f;
    }
    if col.distinct == 0 {
        return 0.0;
    }
    // Mass left for non-MCV values, spread uniformly across them.
    let rest = (1.0 - col.mcv_mass()).max(0.0);
    let rest_distinct = col.distinct.saturating_sub(col.mcv.len());
    if rest_distinct == 0 {
        // Every distinct value is an MCV and `value` is not among them.
        0.0
    } else {
        rest / rest_distinct as f64
    }
}

fn between_selectivity(col: &ColumnStats, lo: &Value, hi: &Value) -> f64 {
    if let (Some(hist), Some(l), Some(h)) = (&col.histogram, lo.as_f64(), hi.as_f64()) {
        hist.range_selectivity(l, h)
    } else {
        sample_selectivity(col, |v| v >= lo && v <= hi)
    }
}

fn sample_selectivity(col: &ColumnStats, pred: impl Fn(&Value) -> bool) -> f64 {
    if col.sample.is_empty() {
        return 0.0;
    }
    // Add-one smoothing keeps rare predicates from estimating exactly 0/1.
    let hits = col.sample.iter().filter(|v| pred(v)).count();
    (hits as f64 + 1.0) / (col.sample.len() as f64 + 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::TableStats;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Relation};

    /// 1000 rows: V is 'dui' 10% / 'sp' 90%; D uniform in 1980..=1999.
    fn stats() -> TableStats {
        let rows = (0..1000)
            .map(|i| {
                tuple![
                    format!("L{i:04}"),
                    if i % 10 == 0 { "dui" } else { "sp" },
                    1980 + (i % 20)
                ]
            })
            .collect();
        TableStats::build(&Relation::from_rows(dmv_schema(), rows), 3)
    }

    #[test]
    fn eq_uses_mcv() {
        let st = stats();
        let s = estimate_selectivity(&Predicate::eq("V", "dui"), &st);
        assert!((s - 0.1).abs() < 0.01, "got {s}");
        let s = estimate_selectivity(&Predicate::eq("V", "sp"), &st);
        assert!((s - 0.9).abs() < 0.01, "got {s}");
    }

    #[test]
    fn eq_unseen_value_is_tiny() {
        let st = stats();
        let s = estimate_selectivity(&Predicate::eq("V", "hit-and-run"), &st);
        assert!(s <= 0.01, "got {s}");
    }

    #[test]
    fn numeric_range_uses_histogram() {
        let st = stats();
        let s = estimate_selectivity(&Predicate::cmp("D", CmpOp::Lt, 1990i64), &st);
        assert!((s - 0.5).abs() < 0.06, "got {s}");
        let s = estimate_selectivity(&Predicate::cmp("D", CmpOp::Ge, 1996i64), &st);
        assert!((s - 0.2).abs() < 0.06, "got {s}");
    }

    #[test]
    fn between_estimation() {
        let st = stats();
        let p = Predicate::Between {
            attr: "D".into(),
            lo: Value::Int(1985),
            hi: Value::Int(1989),
        };
        let s = estimate_selectivity(&p, &st);
        assert!((s - 0.25).abs() < 0.08, "got {s}");
    }

    #[test]
    fn in_list_sums_members() {
        let st = stats();
        let p = Predicate::InList {
            attr: "V".into(),
            values: vec![Value::str("dui"), Value::str("sp")],
        };
        let s = estimate_selectivity(&p, &st);
        assert!(s > 0.95, "got {s}");
    }

    #[test]
    fn like_uses_sample() {
        let st = stats();
        let p = Predicate::Like {
            attr: "V".into(),
            pattern: "d%".into(),
        };
        let s = estimate_selectivity(&p, &st);
        assert!((s - 0.1).abs() < 0.08, "got {s}");
    }

    #[test]
    fn connectives() {
        let st = stats();
        let a = Predicate::eq("V", "dui");
        let b = Predicate::cmp("D", CmpOp::Lt, 1990i64);
        let and = estimate_selectivity(&Predicate::And(vec![a.clone(), b.clone()]), &st);
        assert!((and - 0.05).abs() < 0.02, "got {and}");
        let or = estimate_selectivity(&Predicate::Or(vec![a.clone(), b.clone()]), &st);
        assert!((or - 0.55).abs() < 0.05, "got {or}");
        let not = estimate_selectivity(&Predicate::Not(Box::new(a)), &st);
        assert!((not - 0.9).abs() < 0.02, "got {not}");
    }

    #[test]
    fn constants_and_bounds() {
        let st = stats();
        assert_eq!(estimate_selectivity(&Predicate::Const(false), &st), 0.0);
        assert_eq!(estimate_selectivity(&Predicate::Const(true), &st), 1.0);
        let s = estimate_selectivity(&Predicate::eq("unknown_attr", 1i64), &st);
        assert!((MIN_SELECTIVITY..=1.0).contains(&s));
    }

    #[test]
    fn is_null_fraction() {
        let rel = Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["a", "dui", 1990i64],
                Tuple::new(vec![Value::str("b"), Value::Null, Value::Int(1991)]),
            ],
        );
        let st = TableStats::build(&rel, 1);
        let s = estimate_selectivity(&Predicate::IsNull { attr: "V".into() }, &st);
        assert!((s - 0.5).abs() < 1e-9);
    }

    use fusion_types::Tuple;
}
