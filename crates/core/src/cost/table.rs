//! An explicit, fully programmable cost model.

use super::CostModel;
use fusion_types::{CondId, Cost, SourceId};

/// A cost model given by explicit per-(condition, source) tables.
///
/// Selection costs are constants; semijoin costs are affine in the
/// estimated semijoin-set size (`base + per_item · |X|`), which satisfies
/// both sub-additivity and monotonicity. Used to stage the paper's worked
/// examples exactly and to drive property tests with arbitrary models.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCostModel {
    sq: Vec<Vec<f64>>,
    sjq_base: Vec<Vec<f64>>,
    sjq_per_item: Vec<Vec<f64>>,
    lq: Vec<f64>,
    est_sq: Vec<Vec<f64>>,
    domain: f64,
}

impl TableCostModel {
    /// Creates a uniform model: every selection costs `sq`, every semijoin
    /// `sjq_base + sjq_per_item·|X|`, every load `lq`, with each
    /// `sq(c, R)` estimated to return `est_items` out of `domain`.
    #[allow(clippy::too_many_arguments)] // a constructor of eight named scalars
    pub fn uniform(
        m: usize,
        n: usize,
        sq: f64,
        sjq_base: f64,
        sjq_per_item: f64,
        lq: f64,
        est_items: f64,
        domain: f64,
    ) -> TableCostModel {
        TableCostModel {
            sq: vec![vec![sq; n]; m],
            sjq_base: vec![vec![sjq_base; n]; m],
            sjq_per_item: vec![vec![sjq_per_item; n]; m],
            lq: vec![lq; n],
            est_sq: vec![vec![est_items; n]; m],
            domain,
        }
    }

    /// Sets the cost of one selection query.
    pub fn set_sq_cost(&mut self, cond: CondId, source: SourceId, cost: f64) -> &mut Self {
        self.sq[cond.0][source.0] = cost;
        self
    }

    /// Sets the affine semijoin cost of one (condition, source) pair.
    /// Pass `f64::INFINITY` as `base` for an unsupported semijoin (§2.3).
    pub fn set_sjq_cost(
        &mut self,
        cond: CondId,
        source: SourceId,
        base: f64,
        per_item: f64,
    ) -> &mut Self {
        self.sjq_base[cond.0][source.0] = base;
        self.sjq_per_item[cond.0][source.0] = per_item;
        self
    }

    /// Sets the cost of loading one source.
    pub fn set_lq_cost(&mut self, source: SourceId, cost: f64) -> &mut Self {
        self.lq[source.0] = cost;
        self
    }

    /// Sets the estimated result size of one selection query.
    pub fn set_est_sq_items(&mut self, cond: CondId, source: SourceId, est: f64) -> &mut Self {
        self.est_sq[cond.0][source.0] = est;
        self
    }

    /// Sets the domain size.
    pub fn set_domain(&mut self, domain: f64) -> &mut Self {
        self.domain = domain;
        self
    }
}

impl CostModel for TableCostModel {
    fn n_conditions(&self) -> usize {
        self.sq.len()
    }

    fn n_sources(&self) -> usize {
        self.lq.len()
    }

    fn sq_cost(&self, cond: CondId, source: SourceId) -> Cost {
        Cost::new(self.sq[cond.0][source.0])
    }

    fn sjq_cost(&self, cond: CondId, source: SourceId, est_items: f64) -> Cost {
        let base = self.sjq_base[cond.0][source.0];
        if base.is_infinite() {
            return Cost::INFINITE;
        }
        Cost::new(base + self.sjq_per_item[cond.0][source.0] * est_items.max(0.0))
    }

    fn lq_cost(&self, source: SourceId) -> Cost {
        if self.lq[source.0].is_infinite() {
            Cost::INFINITE
        } else {
            Cost::new(self.lq[source.0])
        }
    }

    fn est_sq_items(&self, cond: CondId, source: SourceId) -> f64 {
        self.est_sq[cond.0][source.0]
    }

    fn domain_size(&self) -> f64 {
        self.domain
    }

    fn plan_key(&self, words: &mut Vec<u64>) -> bool {
        // Destructured without `..`: a field added later must be keyed.
        let TableCostModel {
            sq,
            sjq_base,
            sjq_per_item,
            lq,
            est_sq,
            domain,
        } = self;
        let tables = [sq, sjq_base, sjq_per_item, est_sq];
        let cells = tables.into_iter().flatten().flatten().chain(lq);
        words.extend(cells.map(|cell| cell.to_bits()));
        words.push(domain.to_bits());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_setters() {
        let mut m = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.1, 100.0, 20.0, 200.0);
        assert_eq!(m.n_conditions(), 2);
        assert_eq!(m.n_sources(), 3);
        assert_eq!(m.sq_cost(CondId(0), SourceId(0)), Cost::new(5.0));
        assert_eq!(m.sjq_cost(CondId(1), SourceId(2), 10.0), Cost::new(2.0));
        assert_eq!(m.lq_cost(SourceId(1)), Cost::new(100.0));
        m.set_sq_cost(CondId(0), SourceId(1), 42.0)
            .set_sjq_cost(CondId(0), SourceId(1), 2.0, 0.5)
            .set_lq_cost(SourceId(0), 7.0)
            .set_est_sq_items(CondId(0), SourceId(1), 3.0)
            .set_domain(50.0);
        assert_eq!(m.sq_cost(CondId(0), SourceId(1)), Cost::new(42.0));
        assert_eq!(m.sjq_cost(CondId(0), SourceId(1), 4.0), Cost::new(4.0));
        assert_eq!(m.lq_cost(SourceId(0)), Cost::new(7.0));
        assert_eq!(m.est_sq_items(CondId(0), SourceId(1)), 3.0);
        assert_eq!(m.domain_size(), 50.0);
    }

    #[test]
    fn infinite_semijoin_marks_unsupported() {
        let mut m = TableCostModel::uniform(1, 1, 1.0, 1.0, 0.0, 1.0, 1.0, 10.0);
        m.set_sjq_cost(CondId(0), SourceId(0), f64::INFINITY, 0.0);
        assert!(m.sjq_cost(CondId(0), SourceId(0), 5.0).is_infinite());
        m.set_lq_cost(SourceId(0), f64::INFINITY);
        assert!(m.lq_cost(SourceId(0)).is_infinite());
    }

    #[test]
    fn sjq_cost_is_monotone_and_subadditive() {
        let m = TableCostModel::uniform(1, 1, 1.0, 2.0, 0.3, 1.0, 1.0, 10.0);
        let c = CondId(0);
        let s = SourceId(0);
        let f = |k: f64| m.sjq_cost(c, s, k);
        assert!(f(10.0) <= f(20.0));
        // Sub-additive: cost(x+y) <= cost(x) + cost(y) for affine + base.
        assert!(f(30.0) <= f(10.0) + f(20.0));
        // Negative estimates clamp to the base.
        assert_eq!(f(-5.0), Cost::new(2.0));
    }
}
