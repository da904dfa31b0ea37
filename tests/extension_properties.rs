//! Property tests for the beyond-the-paper extensions: Bloom filters,
//! adaptive execution, CSV round-trips, and the makespan estimator —
//! driven by the deterministic in-tree generator (see `common::for_seeds`).

mod common;

use common::{for_seeds, Gen};
use fusion::core::evaluate_plan;
use fusion::core::postopt::apply_bloom;
use fusion::core::query::FusionQuery;
use fusion::core::{sja_optimal, NetworkCostModel, TableCostModel};
use fusion::exec::{run, ReoptConfig, ReoptRule, RunOptions, Target};
use fusion::net::{LinkProfile, Network};
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
use fusion::stats::CardinalityFeedback;
use fusion::types::schema::dmv_schema;
use fusion::types::{BloomFilter, Condition, ItemSet};
use fusion::workload::csv::{parse_csv, to_csv};

/// Conditions restricted to the shapes the extension tests exercise
/// (equality on `V` or a range on `D`).
fn ext_conditions(g: &mut Gen, m: usize) -> Vec<Condition> {
    (0..m)
        .map(|_| loop {
            let c = g.condition();
            if !matches!(c.pred, fusion::types::Predicate::Between { .. }) {
                break c;
            }
        })
        .collect()
}

/// Bloom filters never yield false negatives and report consistent
/// structural parameters.
#[test]
fn bloom_has_no_false_negatives() {
    for_seeds(96, |g| {
        let count = g.0.next_below(200);
        let set: ItemSet = (0..count)
            .map(|_| g.item())
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let bits = g.0.next_range(1, 16) as f64;
        let filter = BloomFilter::build(&set, bits);
        for item in &set {
            assert!(filter.may_contain(item));
        }
        assert!(filter.n_bits() >= 64);
        assert!(filter.n_hashes() >= 1);
    });
}

/// The Bloom rewrite preserves plan semantics on arbitrary data: the
/// rewritten plan's result equals the original plan's result exactly
/// (the local re-intersection removes every false positive).
#[test]
fn bloom_rewrite_preserves_semantics() {
    for_seeds(96, |g| {
        let n = 2 + g.0.next_below(2);
        let m = 2 + g.0.next_below(2);
        let rels = g.relations(n);
        let conds = ext_conditions(g, m);
        let bits = g.0.next_range(2, 14) as u8;
        let query = FusionQuery::new(dmv_schema(), conds).unwrap();
        // A model that makes semijoins attractive so rewrites happen.
        let model = TableCostModel::uniform(m, n, 50.0, 1.0, 0.5, 1e9, 5.0, 60.0);
        let base = sja_optimal(&model).plan;
        let rewritten = apply_bloom(&base, &bloom_friendly_model(m, n), bits);
        let a = evaluate_plan(&base, query.conditions(), &rels).unwrap();
        let b = evaluate_plan(&rewritten, query.conditions(), &rels).unwrap();
        assert_eq!(a, b);
    });
}

/// Adaptive execution — the SJA plan re-planned at every round boundary
/// — computes exactly the naive answer on arbitrary populations and
/// conditions, one recorded round per condition.
#[test]
fn adaptive_matches_naive_semantics() {
    for_seeds(96, |g| {
        let n = 2 + g.0.next_below(2);
        let m = 1 + g.0.next_below(3);
        let rels = g.relations(n);
        let conds = ext_conditions(g, m);
        let query = FusionQuery::new(dmv_schema(), conds).unwrap();
        let truth = query.naive_answer(&rels).unwrap();
        let sources = SourceSet::new(
            rels.iter()
                .enumerate()
                .map(|(i, r)| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", i + 1),
                        r.clone(),
                        Capabilities::full(),
                        ProcessingProfile::free(),
                        i as u64,
                    )) as Box<dyn fusion::source::Wrapper>
                })
                .collect(),
        );
        let mut network = Network::uniform(rels.len(), LinkProfile::Wan.link());
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let mut feedback = CardinalityFeedback::new(m, n);
        let rule = ReoptRule::Live {
            model: &model,
            feedback: &mut feedback,
            config: &ReoptConfig::every_round(),
        };
        let target = Target::Spec(&sja_optimal(&model).spec, rule);
        let options = RunOptions::default();
        let out = run(target, &query, &sources, &mut network, options).unwrap();
        assert_eq!(out.outcome.answer, truth);
        assert_eq!(out.reopt.unwrap().rounds.len(), query.m());
    });
}

/// CSV render → parse is the identity on relations.
#[test]
fn csv_round_trip() {
    for_seeds(256, |g| {
        let rel = g.relation();
        let text = to_csv(&rel);
        let back = parse_csv(&text, &dmv_schema()).unwrap();
        assert_eq!(rel.rows(), back.rows());
    });
}

/// A model where Bloom semijoins are estimated cheaper than explicit
/// ones, so `apply_bloom` actually rewrites (TableCostModel's default
/// prices Bloom at infinity).
fn bloom_friendly_model(m: usize, n: usize) -> impl fusion::core::CostModel {
    struct BloomModel(TableCostModel);
    impl fusion::core::CostModel for BloomModel {
        fn n_conditions(&self) -> usize {
            self.0.n_conditions()
        }
        fn n_sources(&self) -> usize {
            self.0.n_sources()
        }
        fn sq_cost(
            &self,
            c: fusion::types::CondId,
            s: fusion::types::SourceId,
        ) -> fusion::types::Cost {
            self.0.sq_cost(c, s)
        }
        fn sjq_cost(
            &self,
            c: fusion::types::CondId,
            s: fusion::types::SourceId,
            k: f64,
        ) -> fusion::types::Cost {
            self.0.sjq_cost(c, s, k)
        }
        fn lq_cost(&self, s: fusion::types::SourceId) -> fusion::types::Cost {
            self.0.lq_cost(s)
        }
        fn sjq_bloom_cost(
            &self,
            _c: fusion::types::CondId,
            _s: fusion::types::SourceId,
            k: f64,
            bits: u8,
        ) -> fusion::types::Cost {
            // Cheaper than any explicit semijoin: bits instead of bytes.
            fusion::types::Cost::new(0.5 + k * bits as f64 / 64.0)
        }
        fn est_sq_items(&self, c: fusion::types::CondId, s: fusion::types::SourceId) -> f64 {
            self.0.est_sq_items(c, s)
        }
        fn domain_size(&self) -> f64 {
            self.0.domain_size()
        }
    }
    BloomModel(TableCostModel::uniform(
        m, n, 50.0, 1.0, 0.5, 1e9, 5.0, 60.0,
    ))
}
