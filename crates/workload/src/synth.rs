//! Parameterized synthetic populations — the experiment workhorse.
//!
//! A synthetic population models `n` autonomous sources over a shared
//! universe of items (entities). Each source holds a random subset of the
//! universe with independently drawn attribute values, so conditions on
//! distinct attributes are independent — the regime where the paper's
//! optimality theorem applies — while conditions on the same attribute
//! correlate.

use crate::scenario::Scenario;
use fusion_core::query::FusionQuery;
use fusion_net::{Link, LinkProfile, Network};
use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
use fusion_stats::SplitMix64;
use fusion_types::{
    Attribute, CmpOp, Condition, Predicate, Relation, Schema, Tuple, Value, ValueType,
};

/// Number of independent numeric attributes in the synthetic schema
/// (bounding the number of mutually independent conditions).
pub(crate) const NUM_ATTRS: usize = 8;

/// Range of each numeric attribute: uniform in `0..ATTR_RANGE`.
pub const ATTR_RANGE: i64 = 10_000;

/// How source capabilities are assigned across the population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapabilityMix {
    /// Every source supports native semijoins and full loads.
    AllFull,
    /// The first `frac` of sources lack native semijoins and emulate with
    /// the given binding batch size (§2.3).
    FractionEmulated {
        /// Fraction of sources without native semijoin, in `[0, 1]`.
        frac: f64,
        /// Bindings per emulated probe.
        batch: usize,
    },
}

/// Specification of a synthetic population.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Number of sources `n`.
    pub n_sources: usize,
    /// Universe of distinct items.
    pub domain_size: usize,
    /// Tuples per source (each a distinct item of the universe).
    pub rows_per_source: usize,
    /// RNG seed.
    pub seed: u64,
    /// Capability assignment.
    pub capability_mix: CapabilityMix,
    /// Link profile for every source (`None` → a deterministic mix of all
    /// profiles).
    pub link: Option<LinkProfile>,
    /// Source-side processing profile.
    pub processing: ProcessingProfile,
}

impl SynthSpec {
    /// A reasonable default population: `n` WAN sources, fully capable,
    /// 10k-item universe, 2k rows each.
    pub fn default_with(n_sources: usize, seed: u64) -> SynthSpec {
        SynthSpec {
            n_sources,
            domain_size: 10_000,
            rows_per_source: 2_000,
            seed,
            capability_mix: CapabilityMix::AllFull,
            link: Some(LinkProfile::Wan),
            processing: ProcessingProfile::indexed_db(),
        }
    }
}

/// The synthetic schema: merge attribute `M` plus eight numeric
/// attributes `A1..A8`.
pub fn synth_schema() -> Schema {
    let mut attrs = vec![Attribute::new("M", ValueType::Str)];
    for k in 1..=NUM_ATTRS {
        attrs.push(Attribute::new(format!("A{k}"), ValueType::Int));
    }
    Schema::new(attrs, "M").expect("static schema is valid")
}

/// Builds a condition with the given target selectivity on attribute
/// `A{attr_no}` (1-based): `A{attr_no} < ⌈sel · range⌉`.
pub fn condition_with_selectivity(attr_no: usize, sel: f64) -> Condition {
    assert!((1..=NUM_ATTRS).contains(&attr_no), "attr out of range");
    let threshold = ((sel.clamp(0.0, 1.0)) * ATTR_RANGE as f64).round() as i64;
    Predicate::cmp(format!("A{attr_no}"), CmpOp::Lt, threshold).into()
}

/// Builds a fusion query with `m ≤ 8` mutually independent conditions of
/// the given selectivities (condition `i` targets attribute `A{i+1}`).
pub fn synth_query(selectivities: &[f64]) -> FusionQuery {
    assert!(
        (1..=NUM_ATTRS).contains(&selectivities.len()),
        "need 1..={NUM_ATTRS} conditions"
    );
    let conditions = selectivities
        .iter()
        .enumerate()
        .map(|(i, &s)| condition_with_selectivity(i + 1, s))
        .collect();
    FusionQuery::new(synth_schema(), conditions).expect("generated query is valid")
}

/// Generates the source relations of a population.
pub fn synth_relations(spec: &SynthSpec) -> Vec<Relation> {
    let schema = synth_schema();
    let mut rng = SplitMix64::new(spec.seed);
    (0..spec.n_sources)
        .map(|_| {
            // Each source holds a random subset of the universe, chosen by
            // a partial Fisher–Yates over item ids.
            let rows = spec.rows_per_source.min(spec.domain_size);
            let mut ids: Vec<usize> = (0..spec.domain_size).collect();
            for i in 0..rows {
                let j = rng.next_range(i, spec.domain_size);
                ids.swap(i, j);
            }
            let tuples: Vec<Tuple> = ids[..rows]
                .iter()
                .map(|&item| {
                    let attrs =
                        (0..NUM_ATTRS).map(|_| Value::Int(rng.next_i64_range(0, ATTR_RANGE)));
                    std::iter::once(Value::str(format!("E{item:07}")))
                        .chain(attrs)
                        .collect()
                })
                .collect();
            Relation::from_rows(schema.clone(), tuples)
        })
        .collect()
}

/// Capabilities of source `j` of `n` under a mix.
pub(crate) fn capabilities_for(mix: CapabilityMix, j: usize, n: usize) -> Capabilities {
    match mix {
        CapabilityMix::AllFull => Capabilities::full(),
        CapabilityMix::FractionEmulated { frac, batch } => {
            let cutoff = (frac.clamp(0.0, 1.0) * n as f64).round() as usize;
            if j < cutoff {
                Capabilities::emulated(batch)
            } else {
                Capabilities::full()
            }
        }
    }
}

/// The link of source `j` under a spec.
fn link_for(spec: &SynthSpec, j: usize) -> Link {
    match spec.link {
        Some(p) => p.link(),
        None => {
            let all = LinkProfile::all();
            all[j % all.len()].link()
        }
    }
}

/// Builds the complete scenario for a spec and query selectivities.
pub fn synth_scenario(spec: &SynthSpec, selectivities: &[f64]) -> Scenario {
    synth_scenario_for(spec, synth_query(selectivities))
}

/// Builds the complete scenario for a spec around any query over
/// [`synth_schema`] — conditions sharing an attribute are correlated.
pub fn synth_scenario_for(spec: &SynthSpec, query: FusionQuery) -> Scenario {
    let relations = synth_relations(spec);
    let n = spec.n_sources;
    let sources = SourceSet::new(
        relations
            .iter()
            .enumerate()
            .map(|(j, r)| {
                Box::new(InMemoryWrapper::new(
                    format!("S{}", j + 1),
                    r.clone(),
                    capabilities_for(spec.capability_mix, j, n),
                    spec.processing,
                    spec.seed.wrapping_add(j as u64),
                )) as Box<dyn fusion_source::Wrapper>
            })
            .collect(),
    );
    let network = Network::new((0..n).map(|j| link_for(spec, j)).collect());
    Scenario::new(
        format!("synth-n{}-m{}", n, query.m()),
        query,
        relations,
        sources,
        network,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_match_spec_and_are_deterministic() {
        let spec = SynthSpec {
            n_sources: 3,
            domain_size: 500,
            rows_per_source: 100,
            seed: 5,
            capability_mix: CapabilityMix::AllFull,
            link: Some(LinkProfile::Wan),
            processing: ProcessingProfile::free(),
        };
        let a = synth_relations(&spec);
        let b = synth_relations(&spec);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), 100);
            assert_eq!(x.rows(), y.rows());
        }
        // Items within a source are distinct.
        assert_eq!(a[0].distinct_items().len(), 100);
    }

    #[test]
    fn conditions_hit_their_target_selectivity() {
        let spec = SynthSpec::default_with(1, 9);
        let rels = synth_relations(&spec);
        for target in [0.05, 0.3, 0.7] {
            let cond = condition_with_selectivity(1, target);
            let got =
                rels[0].select_items(&cond).unwrap().items.len() as f64 / rels[0].len() as f64;
            assert!((got - target).abs() < 0.05, "target {target}, got {got}");
        }
    }

    #[test]
    fn conditions_on_distinct_attributes_are_independent() {
        let spec = SynthSpec::default_with(1, 13);
        let rels = synth_relations(&spec);
        let c1 = condition_with_selectivity(1, 0.5);
        let c2 = condition_with_selectivity(2, 0.5);
        let both: Condition = Predicate::And(vec![c1.pred.clone(), c2.pred.clone()]).into();
        let p12 = rels[0].select_items(&both).unwrap().items.len() as f64 / rels[0].len() as f64;
        assert!((p12 - 0.25).abs() < 0.05, "joint {p12} ≉ 0.25");
    }

    #[test]
    fn capability_mix_assignment() {
        let mix = CapabilityMix::FractionEmulated {
            frac: 0.5,
            batch: 10,
        };
        let caps: Vec<bool> = (0..4)
            .map(|j| capabilities_for(mix, j, 4).native_semijoin)
            .collect();
        assert_eq!(caps, vec![false, false, true, true]);
        assert!(capabilities_for(CapabilityMix::AllFull, 0, 4).native_semijoin);
    }

    #[test]
    fn scenario_builds_and_answers() {
        let spec = SynthSpec {
            n_sources: 4,
            domain_size: 300,
            rows_per_source: 150,
            seed: 21,
            capability_mix: CapabilityMix::AllFull,
            link: None,
            processing: ProcessingProfile::free(),
        };
        let sc = synth_scenario(&spec, &[0.4, 0.4]);
        assert_eq!(sc.n(), 4);
        assert_eq!(sc.m(), 2);
        let truth = sc.ground_truth().unwrap();
        // With 4 sources × 150 rows over 300 items and 40% selectivities,
        // matches are all but guaranteed.
        assert!(!truth.is_empty());
        assert!(sc.domain_size <= 300.0);
    }

    #[test]
    #[should_panic(expected = "attr out of range")]
    fn condition_attr_bounds() {
        let _ = condition_with_selectivity(9, 0.5);
    }
}
