//! Deterministic random generators shared by the property tests.
//!
//! The build environment resolves no external crates, so the property
//! tests drive the same invariants a shrinking framework would, but from
//! an in-tree PRNG over a fixed battery of seeds. Failures print the
//! seed, which reproduces the exact case.

#![allow(dead_code)]

pub(crate) mod lattice;
pub(crate) mod mutants;

use fusion::core::analyze::ProofMemoStats;
use fusion::core::plan::{Plan, SimplePlanSpec, SourceChoice, VarId};
use fusion::core::query::FusionQuery;
use fusion::core::{OptimizedPlan, TableCostModel};
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, Wrapper, WrapperResponse};
use fusion::stats::{SplitMix64, TableStats};
use fusion::types::error::Result;
use fusion::types::schema::dmv_schema;
use fusion::types::{
    BloomFilter, CmpOp, CondId, Condition, Item, ItemSet, Predicate, Relation, Schema, SourceId,
    Tuple, Value,
};

/// Violation vocabulary used by the DMV-shaped generators.
pub(crate) const VIOLATIONS: [&str; 3] = ["dui", "sp", "park"];

/// Seeds per battery, `(battery, local, CI)`: `BATTERY_WIDTH=ci` selects
/// the CI column for every battery at once. The one battery that is a
/// unit test, `fusion-cache`'s resolution-memo differential (100 / 1 000
/// seeds), reads the same knob.
const WIDTHS: [(&str, u64, u64); 14] = [
    ("cache-subsumption", 100, 400),
    ("cache-parity", 100, 250),
    ("concurrency", 8, 64),
    ("isolation", 8, 32),
    ("fault", 40, 200),
    ("parallel", 24, 96),
    ("fetch", 24, 32),
    ("mqo", 4, 32),
    ("reopt", 16, 32),
    ("plan-memo", 40, 400),
    // `select_items` / `semijoin_items`, the secondary index, and the
    // records, `union_all` and mixed-item set algebra; records by
    // reference against owned records.
    ("data-plane-items", 192, 1000),
    ("data-plane-index", 96, 1000),
    ("data-plane-sets", 64, 1000),
    ("data-plane-records", 64, 1000),
];

/// The seeds battery `name` of [`WIDTHS`] sweeps in this run.
///
/// # Panics
/// On a name the table lacks, or `BATTERY_WIDTH` set to anything but `ci`.
pub(crate) fn width(name: &str) -> u64 {
    let &(_, local, ci) = WIDTHS
        .iter()
        .find(|w| w.0 == name)
        .expect("a battery of WIDTHS");
    match std::env::var("BATTERY_WIDTH") {
        Err(std::env::VarError::NotPresent) => local,
        Ok(v) if v == "ci" => ci,
        other => panic!("BATTERY_WIDTH must be `ci` or unset, got {other:?}"),
    }
}

/// A deterministic generator of test inputs, seeded per test case.
pub(crate) struct Gen(pub SplitMix64);

impl Gen {
    pub(crate) fn new(seed: u64) -> Gen {
        Gen(SplitMix64::new(seed))
    }

    /// An item set of up to 30 integer items drawn from `0..40` (small
    /// domain to force overlap).
    pub(crate) fn items(&mut self) -> ItemSet {
        let len = self.0.next_below(30);
        (0..len)
            .map(|_| self.0.next_i64_range(0, 40))
            .collect::<Vec<i64>>()
            .into_iter()
            .collect()
    }

    /// A DMV-like tuple: license from a small pool (to force overlap),
    /// violation from a fixed vocabulary, year in the 90s.
    pub(crate) fn tuple(&mut self) -> Tuple {
        let l = self.0.next_below(25);
        let v = *self.0.choose(&VIOLATIONS);
        let d = self.0.next_i64_range(1990, 2000);
        Tuple::new(vec![
            Value::str(format!("L{l:02}")),
            Value::str(v),
            Value::Int(d),
        ])
    }

    /// A DMV-schema relation of up to 24 rows.
    pub(crate) fn relation(&mut self) -> Relation {
        let rows = self.0.next_below(25);
        Relation::from_rows(dmv_schema(), (0..rows).map(|_| self.tuple()).collect())
    }

    /// `count` relations.
    pub(crate) fn relations(&mut self, count: usize) -> Vec<Relation> {
        (0..count).map(|_| self.relation()).collect()
    }

    /// A random condition over the DMV schema: an equality on `V`, a
    /// range on `D`, or a BETWEEN on `D`.
    pub(crate) fn condition(&mut self) -> Condition {
        match self.0.next_below(3) {
            0 => Predicate::eq("V", *self.0.choose(&VIOLATIONS)).into(),
            1 => Predicate::cmp("D", CmpOp::Lt, self.0.next_i64_range(1990, 2000)).into(),
            _ => {
                let lo = self.0.next_i64_range(1990, 1996);
                let w = self.0.next_i64_range(0, 6);
                Predicate::Between {
                    attr: "D".into(),
                    lo: Value::Int(lo),
                    hi: Value::Int(lo + w),
                }
                .into()
            }
        }
    }

    /// Like [`Gen::condition`], plus the shapes whose SQL text needs
    /// care: `IN` lists, `LIKE` patterns, and string literals holding
    /// quotes, keywords, digits and `uN.`-like prefixes.
    pub(crate) fn sql_condition(&mut self) -> Condition {
        const AWKWARD: [&str; 6] = ["it's", "a AND b", "NULL", "u2.V", "1990", "x''y"];
        match self.0.next_below(6) {
            0 => Predicate::eq("V", *self.0.choose(&AWKWARD)).into(),
            1 => Predicate::InList {
                attr: "D".into(),
                values: (0..1 + self.0.next_below(3))
                    .map(|_| Value::Int(self.0.next_i64_range(1990, 2000)))
                    .collect(),
            }
            .into(),
            2 => Predicate::InList {
                attr: "V".into(),
                values: vec![
                    Value::str(*self.0.choose(&AWKWARD)),
                    Value::str(*self.0.choose(&VIOLATIONS)),
                ],
            }
            .into(),
            3 => Predicate::Like {
                attr: "V".into(),
                pattern: format!("{}%_", self.0.choose(&AWKWARD)),
            }
            .into(),
            _ => self.condition(),
        }
    }

    /// A fusion query with `m` random conditions.
    pub(crate) fn query(&mut self, m: usize) -> FusionQuery {
        let conds = (0..m).map(|_| self.condition()).collect();
        FusionQuery::new(dmv_schema(), conds).expect("generated query is valid")
    }

    /// A random table cost model with finite positive costs.
    pub(crate) fn model(&mut self, m: usize, n: usize) -> TableCostModel {
        let mut model = TableCostModel::uniform(m, n, 1.0, 1.0, 0.1, 1e6, 1.0, 200.0);
        for i in 0..m {
            for j in 0..n {
                let sq = self.0.next_f64_range(0.1, 100.0);
                let sjb = self.0.next_f64_range(0.1, 50.0);
                let sjp = self.0.next_f64_range(0.0, 2.0);
                let est = self.0.next_f64_range(0.0, 60.0);
                model.set_sq_cost(CondId(i), SourceId(j), sq);
                model.set_sjq_cost(CondId(i), SourceId(j), sjb, sjp);
                model.set_est_sq_items(CondId(i), SourceId(j), est);
            }
        }
        model
    }

    /// A random condition-at-a-time spec for `m` conditions, `n` sources:
    /// shuffled condition order, each (round, source) cell independently
    /// a selection or (past round 0) a semijoin.
    pub(crate) fn spec(&mut self, m: usize, n: usize) -> SimplePlanSpec {
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            let j = self.0.next_below(i + 1);
            order.swap(i, j);
        }
        let choices = (0..m)
            .map(|r| {
                (0..n)
                    .map(|_| {
                        if r > 0 && self.0.next_below(2) == 1 {
                            SourceChoice::Semijoin
                        } else {
                            SourceChoice::Selection
                        }
                    })
                    .collect()
            })
            .collect();
        SimplePlanSpec {
            order: order.into_iter().map(CondId).collect(),
            choices,
        }
    }

    /// A random item: an integer or a short alphanumeric string.
    pub(crate) fn item(&mut self) -> Item {
        if self.0.next_below(2) == 0 {
            Item::new(self.0.next_u64() as i64)
        } else {
            const ALPHABET: &[u8] =
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
            let len = self.0.next_below(13);
            let s: String = (0..len)
                .map(|_| ALPHABET[self.0.next_below(ALPHABET.len())] as char)
                .collect();
            Item::new(s)
        }
    }
}

/// Runs `body` once per seed in `0..cases`, reporting the failing seed.
pub(crate) fn for_seeds(cases: u64, mut body: impl FnMut(&mut Gen)) {
    for seed in 0..cases {
        // Decorrelate consecutive seeds through the generator itself.
        let mut g = Gen::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut g)));
        if let Err(payload) = caught {
            eprintln!("property failed for seed {seed}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// One memo table's `(misses, hits, entries, resets)`.
pub(crate) fn counts(stats: ProofMemoStats) -> (u64, u64, u64, u64) {
    (stats.misses, stats.hits, stats.entries, stats.resets)
}

/// Bit patterns of `sizes`.
pub(crate) fn bits(sizes: &[f64]) -> Vec<u64> {
    sizes.iter().map(|x| x.to_bits()).collect()
}

/// Bit-for-bit equality of everything an [`OptimizedPlan`] holds.
pub(crate) fn assert_same_plan(got: &OptimizedPlan, want: &OptimizedPlan, what: &str) {
    assert_eq!(got.plan, want.plan, "{what}: plan");
    assert_eq!(got.spec, want.spec, "{what}: spec");
    let cost = |p: &OptimizedPlan| p.cost.value().to_bits();
    assert_eq!(cost(got), cost(want), "{what}: cost");
    assert_eq!(
        bits(&got.round_sizes),
        bits(&want.round_sizes),
        "{what}: sizes"
    );
}

/// A sound 2-condition, 3-source plan whose step order hides a
/// same-source race unless the serial queues separate the two R3
/// selections, which share a dependency level (mirrors the executor's
/// own regression).
pub(crate) fn queue_order_plan() -> Plan {
    use mutants::{intersect, sjq, sq, union};
    let mut plan = Plan::new(vec![], VarId(0), 2, 3);
    for name in ["X0", "X1", "X2", "U1", "Y0", "Y1", "Y2", "Y2R", "R"] {
        plan.fresh_var(name);
    }
    plan.steps = vec![
        sq(0, 0, 0),
        sq(1, 0, 1),
        sq(2, 0, 2),
        union(3, &[0, 1, 2]),
        sjq(4, 1, 0, 3),
        sjq(5, 1, 1, 3),
        sq(6, 1, 2),
        intersect(7, &[3, 6]),
        union(8, &[4, 5, 7]),
    ];
    plan.result = VarId(8);
    plan
}

/// Records as a source answered them.
type Rows = WrapperResponse<Vec<Tuple>>;

/// An in-memory source with two hooks: `on_cond` sees the condition of
/// every selection, semijoin and probe before it runs (a test may panic
/// there), and `rows` rewrites every record response (a test may answer
/// with a bag).
pub(crate) struct Hooked {
    pub inner: InMemoryWrapper,
    pub on_cond: Box<dyn Fn(&Condition) + Send + Sync>,
    pub rows: fn(Rows) -> Rows,
}

impl Wrapper for Hooked {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }
    fn processing(&self) -> &ProcessingProfile {
        self.inner.processing()
    }
    fn stats(&self) -> &TableStats {
        self.inner.stats()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn select(&self, cond: &Condition) -> Result<WrapperResponse<ItemSet>> {
        (self.on_cond)(cond);
        self.inner.select(cond)
    }
    fn semijoin(&self, cond: &Condition, bindings: &ItemSet) -> Result<WrapperResponse<ItemSet>> {
        (self.on_cond)(cond);
        self.inner.semijoin(cond, bindings)
    }
    fn bloom_semijoin(
        &self,
        cond: &Condition,
        bits: &BloomFilter,
    ) -> Result<WrapperResponse<ItemSet>> {
        (self.on_cond)(cond);
        self.inner.bloom_semijoin(cond, bits)
    }
    fn probe(&self, cond: &Condition, batch: &ItemSet) -> Result<WrapperResponse<ItemSet>> {
        (self.on_cond)(cond);
        self.inner.probe(cond, batch)
    }
    fn select_records(&self, cond: &Condition) -> Result<Rows> {
        (self.on_cond)(cond);
        self.inner.select_records(cond).map(self.rows)
    }
    fn semijoin_records(&self, cond: &Condition, bindings: &ItemSet) -> Result<Rows> {
        (self.on_cond)(cond);
        self.inner.semijoin_records(cond, bindings).map(self.rows)
    }
    fn load(&self) -> Result<Rows> {
        self.inner.load().map(self.rows)
    }
    fn fetch(&self, items: &ItemSet) -> Result<Rows> {
        self.inner.fetch(items).map(self.rows)
    }
    fn fetch_projected(&self, items: &ItemSet, attrs: &[usize]) -> Result<Rows> {
        self.inner.fetch_projected(items, attrs).map(self.rows)
    }
}
