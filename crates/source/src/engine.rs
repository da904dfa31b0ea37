//! The query engine inside a source.

use fusion_types::error::Result;
use fusion_types::{Condition, ItemSet, Relation, SelectOutcome, Tuple};

/// Executes queries against one source's relation.
///
/// The engine owns the relation and pre-builds the indexes the three query
/// kinds exploit: a secondary index per attribute a condition may touch and
/// the merge-attribute index for semijoin probing.
#[derive(Debug, Clone)]
pub struct SourceEngine {
    relation: Relation,
}

impl SourceEngine {
    /// Wraps a relation, building the merge index and secondary indexes on
    /// every attribute.
    pub fn new(mut relation: Relation) -> SourceEngine {
        for idx in 0..relation.schema().arity() {
            relation.build_index(idx);
        }
        relation.build_merge_index();
        SourceEngine { relation }
    }

    /// The underlying relation.
    pub(crate) fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Evaluates a selection query `sq(c, R)`.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn select(&self, cond: &Condition) -> Result<SelectOutcome> {
        self.relation.select_items(cond)
    }

    /// Evaluates a semijoin query `sjq(c, R, bindings)`.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn semijoin(&self, cond: &Condition, bindings: &ItemSet) -> Result<SelectOutcome> {
        self.relation.semijoin_items(cond, bindings)
    }

    /// Evaluates a Bloom-filter semijoin: every item satisfying `cond`
    /// whose hash positions pass `filter` — a superset of the exact
    /// semijoin (false positives included, no false negatives).
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub(crate) fn bloom_semijoin(
        &self,
        cond: &Condition,
        filter: &fusion_types::BloomFilter,
    ) -> Result<SelectOutcome> {
        let full = self.relation.select_items(cond)?;
        // A filtered ordered set is still ordered: no re-sort.
        let items = ItemSet::from_sorted_unique(
            full.items
                .iter()
                .filter(|item| filter.may_contain(item))
                .cloned()
                .collect(),
        );
        Ok(SelectOutcome {
            items,
            tuples_examined: full.tuples_examined,
        })
    }

    /// Selection returning full records ([`Relation::select_records`]).
    /// The work reported is the whole relation: a one-phase query is
    /// priced as the scan the cost model charges, however it is answered.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors; an unknown attribute is
    /// reported before the first row.
    pub fn select_records(&self, cond: &Condition) -> Result<(Vec<Tuple>, usize)> {
        let rows = self.relation.select_records(cond)?;
        Ok((rows, self.relation.len()))
    }

    /// Semijoin returning full records: every tuple satisfying `cond`
    /// whose merge item is in `bindings`, in insertion order.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors; an unknown attribute is
    /// reported before the first row.
    pub fn semijoin_records(
        &self,
        cond: &Condition,
        bindings: &ItemSet,
    ) -> Result<(Vec<Tuple>, usize)> {
        let cond = cond.pred.bind(self.relation.schema())?;
        let mut out = Vec::new();
        for row in self.relation.rows_with_items(bindings) {
            if cond.eval(row)? {
                out.push(row.clone());
            }
        }
        Ok((out, self.relation.len()))
    }

    /// Evaluates a full load `lq(R)`: every tuple, plus the scan work.
    pub(crate) fn load(&self) -> (Vec<Tuple>, usize) {
        (self.relation.rows().to_vec(), self.relation.len())
    }

    /// Fetches the full tuples whose merge item is in `items` (phase two
    /// of two-phase processing).
    pub fn fetch(&self, items: &ItemSet) -> (Vec<Tuple>, usize) {
        let out = self.relation.rows_with_items(items).cloned().collect();
        (out, self.relation.len())
    }

    /// Fetches a projection of the tuples whose merge item is in `items`:
    /// each returned tuple carries the values at `attrs` (schema indexes,
    /// in the given order). The caller includes the merge index in
    /// `attrs` when it wants the key shipped back.
    pub fn fetch_projected(&self, items: &ItemSet, attrs: &[usize]) -> (Vec<Tuple>, usize) {
        let out = self
            .relation
            .rows_with_items(items)
            .map(|row| attrs.iter().map(|&a| row.get(a).clone()).collect())
            .collect();
        (out, self.relation.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, FusionError, Predicate};

    fn engine() -> SourceEngine {
        SourceEngine::new(Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["J55", "dui", 1993i64],
                tuple!["T21", "sp", 1994i64],
                tuple!["T80", "dui", 1993i64],
            ],
        ))
    }

    #[test]
    fn select_uses_prebuilt_indexes() {
        let out = engine().select(&Predicate::eq("V", "dui").into()).unwrap();
        assert_eq!(out.items, ItemSet::from_items(["J55", "T80"]));
        assert_eq!(out.tuples_examined, 2, "indexed point lookup");
    }

    #[test]
    fn semijoin_probes_merge_index() {
        let bindings = ItemSet::from_items(["J55", "T21", "NOPE"]);
        let out = engine()
            .semijoin(&Predicate::eq("V", "sp").into(), &bindings)
            .unwrap();
        assert_eq!(out.items, ItemSet::from_items(["T21"]));
        assert!(out.tuples_examined <= 2);
    }

    #[test]
    fn load_returns_everything() {
        let (tuples, examined) = engine().load();
        assert_eq!(tuples.len(), 3);
        assert_eq!(examined, 3);
    }

    #[test]
    fn fetch_filters_by_item() {
        let (tuples, _) = engine().fetch(&ItemSet::from_items(["J55"]));
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0], tuple!["J55", "dui", 1993i64]);
    }

    #[test]
    fn record_paths_fail_on_an_unknown_attribute_even_when_empty() {
        let unknown: [Condition; 2] = [
            Predicate::eq("Z", 1i64).into(),
            Predicate::Or(vec![Predicate::Const(true), Predicate::eq("Z", 1i64)]).into(),
        ];
        let bindings = ItemSet::from_items(["J55", "T21"]);
        for e in [SourceEngine::new(Relation::empty(dmv_schema())), engine()] {
            for cond in &unknown {
                let want = e.select(cond).unwrap_err();
                assert!(matches!(want, FusionError::UnknownAttribute { .. }));
                assert_eq!(e.select_records(cond).unwrap_err(), want, "{cond}");
                assert_eq!(e.semijoin_records(cond, &bindings).unwrap_err(), want);
                assert_eq!(e.semijoin(cond, &bindings).unwrap_err(), want);
            }
        }
    }

    #[test]
    fn empty_engine() {
        let e = SourceEngine::new(Relation::empty(dmv_schema()));
        assert!(e.relation().is_empty());
        let out = e.select(&Predicate::eq("V", "dui").into()).unwrap();
        assert!(out.items.is_empty());
    }
}
