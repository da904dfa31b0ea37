//! Per-attribute and per-table statistics.

use crate::sample::reservoir_sample;
use fusion_types::{Relation, Value};
use std::collections::HashMap;

/// Number of equi-depth buckets built for numeric attributes.
pub(crate) const DEFAULT_BUCKETS: usize = 32;

/// Number of most-common values tracked per attribute.
pub(crate) const DEFAULT_MCVS: usize = 16;

/// Default size of the retained value sample per attribute.
pub(crate) const DEFAULT_SAMPLE: usize = 256;

/// An equi-depth histogram over the numeric view of an attribute.
///
/// `bounds` has `buckets + 1` entries; bucket `b` covers
/// `[bounds[b], bounds[b+1])` (the last bucket is closed on the right) and
/// holds `depth` values each (the final bucket may hold fewer).
#[derive(Debug, Clone, PartialEq)]
pub struct NumericHistogram {
    bounds: Vec<f64>,
    depth: f64,
    total: f64,
    last_count: f64,
}

impl NumericHistogram {
    /// Builds an equi-depth histogram from (unsorted) numeric values.
    /// Returns `None` when there are no values.
    pub(crate) fn build(mut values: Vec<f64>, buckets: usize) -> Option<NumericHistogram> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        // total_cmp: a stray NaN (e.g. from a corrupt numeric column)
        // sorts to the top instead of panicking the histogram build.
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let buckets = buckets.min(n);
        let depth = n as f64 / buckets as f64;
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..buckets {
            let idx = ((b as f64 * depth) as usize).min(n - 1);
            bounds.push(values[idx]);
        }
        bounds.push(values[n - 1]);
        let last_start = (((buckets - 1) as f64) * depth) as usize;
        Some(NumericHistogram {
            bounds,
            depth,
            total: n as f64,
            last_count: (n - last_start) as f64,
        })
    }

    /// Number of buckets.
    pub(crate) fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Smallest observed value.
    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    /// Largest observed value.
    pub fn max(&self) -> f64 {
        *self.bounds.last().expect("non-empty bounds")
    }

    /// Estimated fraction of values `< x` (linear interpolation within the
    /// containing bucket).
    pub(crate) fn fraction_below(&self, x: f64) -> f64 {
        if x <= self.min() {
            return 0.0;
        }
        if x > self.max() {
            return 1.0;
        }
        let mut acc = 0.0;
        for b in 0..self.buckets() {
            let (lo, hi) = (self.bounds[b], self.bounds[b + 1]);
            let count = if b + 1 == self.buckets() {
                self.last_count
            } else {
                self.depth
            };
            if x > hi {
                acc += count;
            } else {
                let width = hi - lo;
                let inner = if width <= 0.0 {
                    // Degenerate bucket of one repeated value: x in (lo, hi]
                    // means all of it is below only when x > hi, handled
                    // above; here take half as the conventional estimate.
                    0.5
                } else {
                    ((x - lo) / width).clamp(0.0, 1.0)
                };
                acc += count * inner;
                break;
            }
        }
        let frac = (acc / self.total).clamp(0.0, 1.0);
        // `x == max` falls through to full-bucket interpolation, but the
        // value(s) sitting exactly at max are NOT strictly below it — at
        // least one such value exists, so cap the strict-below fraction.
        // Without the cap, `attr < max` estimates 1.0 and `attr >= max`
        // estimates 0.0 even though the max row matches.
        if x >= self.max() {
            frac.min((self.total - 1.0).max(0.0) / self.total)
        } else {
            frac
        }
    }

    /// Estimated selectivity of `lo <= v <= hi`.
    pub(crate) fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        // Closed upper bound: nudge past hi by treating it as hi⁺.
        let below_hi = if hi >= self.max() {
            1.0
        } else {
            self.fraction_below(hi) + 1.0 / self.total
        };
        (below_hi.min(1.0) - self.fraction_below(lo)).clamp(0.0, 1.0)
    }
}

/// Statistics for one attribute of one source relation.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Total non-null values observed.
    pub non_null: usize,
    /// Null count.
    pub nulls: usize,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Most common values with their counts, descending by count.
    pub mcv: Vec<(Value, usize)>,
    /// Equi-depth histogram over numeric values, when the attribute is
    /// numeric.
    pub histogram: Option<NumericHistogram>,
    /// Deterministic value sample for general-predicate estimation.
    pub sample: Vec<Value>,
}

impl ColumnStats {
    /// Builds statistics from a column of values.
    pub(crate) fn build(values: &[&Value], seed: u64) -> ColumnStats {
        let mut counts: HashMap<&Value, usize> = HashMap::new();
        let mut nulls = 0usize;
        let mut numerics: Vec<f64> = Vec::new();
        for v in values {
            if matches!(v, Value::Null) {
                nulls += 1;
                continue;
            }
            *counts.entry(*v).or_insert(0) += 1;
            if let Some(f) = v.as_f64() {
                if !f.is_nan() {
                    numerics.push(f);
                }
            }
        }
        let non_null = values.len() - nulls;
        let distinct = counts.len();
        // Rank borrowed pairs; only the values that are kept get cloned.
        let mut ranked: Vec<(&Value, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked.truncate(DEFAULT_MCVS);
        let mcv = ranked.into_iter().map(|(v, c)| (v.clone(), c)).collect();
        let histogram = if numerics.len() == non_null && non_null > 0 {
            NumericHistogram::build(numerics, DEFAULT_BUCKETS)
        } else {
            None
        };
        let sample = reservoir_sample(
            values.iter().filter(|v| !matches!(v, Value::Null)),
            DEFAULT_SAMPLE,
            seed,
        )
        .into_iter()
        .map(|v| (*v).clone())
        .collect();
        ColumnStats {
            non_null,
            nulls,
            distinct,
            mcv,
            histogram,
            sample,
        }
    }

    /// Total values observed, null or not.
    pub(crate) fn total(&self) -> usize {
        self.non_null + self.nulls
    }

    /// Frequency of `v` among all values, if `v` is a tracked MCV.
    pub(crate) fn mcv_frequency(&self, v: &Value) -> Option<f64> {
        let total = self.total().max(1) as f64;
        self.mcv
            .iter()
            .find(|(w, _)| w == v)
            .map(|(_, c)| *c as f64 / total)
    }

    /// Combined frequency mass of all tracked MCVs.
    pub(crate) fn mcv_mass(&self) -> f64 {
        let total = self.total().max(1) as f64;
        self.mcv.iter().map(|(_, c)| *c as f64).sum::<f64>() / total
    }
}

/// Statistics for one source relation, keyed by attribute name.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count of the relation.
    pub rows: usize,
    /// Distinct merge-attribute items in the relation.
    pub distinct_items: usize,
    /// Average wire size of one merge item, in bytes.
    pub avg_item_bytes: f64,
    /// Average wire size of one full tuple, in bytes.
    pub avg_tuple_bytes: f64,
    columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Scans a relation and builds complete statistics (deterministic
    /// under `seed`).
    pub fn build(rel: &Relation, seed: u64) -> TableStats {
        let schema = rel.schema();
        let mut columns = HashMap::new();
        for (idx, attr) in schema.attributes().iter().enumerate() {
            let col: Vec<&Value> = rel.rows().iter().map(|r| r.get(idx)).collect();
            columns.insert(
                attr.name.clone(),
                ColumnStats::build(&col, seed.wrapping_add(idx as u64)),
            );
        }
        let items = rel.distinct_items();
        let avg_item_bytes = if items.is_empty() {
            8.0
        } else {
            items.wire_size() as f64 / items.len() as f64
        };
        let avg_tuple_bytes = if rel.is_empty() {
            schema.arity() as f64 * 8.0
        } else {
            rel.wire_size() as f64 / rel.len() as f64
        };
        TableStats {
            rows: rel.len(),
            distinct_items: items.len(),
            avg_item_bytes,
            avg_tuple_bytes,
            columns,
        }
    }

    /// Statistics for one attribute, if known.
    pub fn column(&self, attr: &str) -> Option<&ColumnStats> {
        self.columns.get(attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::schema::dmv_schema;
    use fusion_types::tuple;

    fn numeric_hist(values: Vec<f64>) -> NumericHistogram {
        NumericHistogram::build(values, 8).expect("non-empty")
    }

    #[test]
    fn histogram_uniform_fractions() {
        let h = numeric_hist((0..1000).map(f64::from).collect());
        assert!((h.fraction_below(500.0) - 0.5).abs() < 0.02);
        assert!((h.fraction_below(100.0) - 0.1).abs() < 0.02);
        assert_eq!(h.fraction_below(-1.0), 0.0);
        assert_eq!(h.fraction_below(2000.0), 1.0);
    }

    #[test]
    fn histogram_range_selectivity() {
        let h = numeric_hist((0..1000).map(f64::from).collect());
        let s = h.range_selectivity(250.0, 750.0);
        assert!((s - 0.5).abs() < 0.05, "got {s}");
        assert_eq!(h.range_selectivity(10.0, 5.0), 0.0);
        assert!((h.range_selectivity(h.min(), h.max()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_skewed_data() {
        // 90% of values are 0, rest uniform in [1, 100].
        let mut vals = vec![0.0; 900];
        vals.extend((1..=100).map(f64::from));
        let h = NumericHistogram::build(vals, 16).unwrap();
        assert!(h.fraction_below(0.5) > 0.8, "mass concentrated at 0");
    }

    #[test]
    fn histogram_single_value() {
        let h = NumericHistogram::build(vec![5.0; 10], 4).unwrap();
        assert_eq!(h.min(), 5.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.fraction_below(4.0), 0.0);
        assert_eq!(h.fraction_below(6.0), 1.0);
        assert!(h.range_selectivity(5.0, 5.0) > 0.0);
    }

    #[test]
    fn histogram_empty_is_none() {
        assert!(NumericHistogram::build(vec![], 8).is_none());
    }

    #[test]
    fn column_stats_counts() {
        let vals = [
            Value::str("a"),
            Value::str("a"),
            Value::str("b"),
            Value::Null,
        ];
        let refs: Vec<&Value> = vals.iter().collect();
        let cs = ColumnStats::build(&refs, 1);
        assert_eq!(cs.non_null, 3);
        assert_eq!(cs.nulls, 1);
        assert_eq!(cs.distinct, 2);
        assert_eq!(cs.mcv[0], (Value::str("a"), 2));
        assert!(cs.histogram.is_none(), "strings get no numeric histogram");
        assert!((cs.mcv_frequency(&Value::str("a")).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(cs.mcv_frequency(&Value::str("zzz")), None);
    }

    #[test]
    fn mcv_keeps_the_top_counts_with_ties_broken_by_value() {
        // 40 distinct values, more than DEFAULT_MCVS, with counts that tie
        // in blocks of four: the kept list must not depend on hash order.
        let vals: Vec<Value> = (0..40i64)
            .flat_map(|v| std::iter::repeat(Value::Int(v)).take(1 + (v / 4) as usize))
            .collect();
        let refs: Vec<&Value> = vals.iter().collect();
        let cs = ColumnStats::build(&refs, 3);
        assert_eq!(cs.distinct, 40);
        let want: Vec<(Value, usize)> = [(36..40, 10), (32..36, 9), (28..32, 8), (24..28, 7)]
            .into_iter()
            .flat_map(|(vs, c)| vs.map(move |v| (Value::Int(v), c)))
            .collect();
        assert_eq!(cs.mcv, want);
        assert_eq!(cs.sample.len(), DEFAULT_SAMPLE.min(vals.len()));
    }

    #[test]
    fn table_stats_from_dmv() {
        let rel = Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["J55", "dui", 1993i64],
                tuple!["T21", "sp", 1994i64],
                tuple!["T80", "dui", 1993i64],
            ],
        );
        let ts = TableStats::build(&rel, 7);
        assert_eq!(ts.rows, 3);
        assert_eq!(ts.distinct_items, 3);
        let v = ts.column("V").unwrap();
        assert_eq!(v.distinct, 2);
        assert!(ts.column("D").unwrap().histogram.is_some());
        assert!(ts.column("missing").is_none());
        assert!(ts.avg_item_bytes > 0.0);
        assert!(ts.avg_tuple_bytes > ts.avg_item_bytes);
    }

    #[test]
    fn stats_are_deterministic() {
        let rel = Relation::from_rows(
            dmv_schema(),
            (0..500)
                .map(|i| {
                    tuple![
                        format!("L{i}"),
                        if i % 3 == 0 { "dui" } else { "sp" },
                        1990 + (i % 10)
                    ]
                })
                .collect(),
        );
        let a = TableStats::build(&rel, 42);
        let b = TableStats::build(&rel, 42);
        assert_eq!(a.column("L").unwrap().sample, b.column("L").unwrap().sample);
    }
}
