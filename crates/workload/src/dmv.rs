//! The paper's running DMV example (Figure 1) and a scaled-up variant.

use crate::scenario::Scenario;
use fusion_core::query::FusionQuery;
use fusion_net::{LinkProfile, Network};
use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
use fusion_stats::SplitMix64;
use fusion_types::schema::dmv_schema;
use fusion_types::{tuple, Predicate, Relation, Tuple};

/// The three relations of Figure 1, exactly as printed.
pub fn figure1_relations() -> Vec<Relation> {
    let s = dmv_schema();
    vec![
        Relation::from_rows(
            s.clone(),
            vec![
                tuple!["J55", "dui", 1993i64],
                tuple!["T21", "sp", 1994i64],
                tuple!["T80", "dui", 1993i64],
            ],
        ),
        Relation::from_rows(
            s.clone(),
            vec![
                tuple!["T21", "dui", 1996i64],
                tuple!["J55", "sp", 1996i64],
                tuple!["T11", "sp", 1993i64],
            ],
        ),
        Relation::from_rows(
            s,
            vec![
                tuple!["T21", "sp", 1993i64],
                tuple!["S07", "sp", 1996i64],
                tuple!["S07", "sp", 1993i64],
            ],
        ),
    ]
}

/// The paper's fusion query: drivers with both a `dui` and an `sp`
/// violation, possibly recorded at different DMVs.
pub fn figure1_query() -> FusionQuery {
    FusionQuery::new(
        dmv_schema(),
        vec![
            Predicate::eq("V", "dui").into(),
            Predicate::eq("V", "sp").into(),
        ],
    )
    .expect("static query is valid")
}

/// The complete Figure 1 scenario: three fully capable DMV sources on WAN
/// links.
pub fn figure1_scenario() -> Scenario {
    let relations = figure1_relations();
    let sources = SourceSet::new(
        relations
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Box::new(InMemoryWrapper::new(
                    format!("DMV-{}", i + 1),
                    r.clone(),
                    Capabilities::full(),
                    ProcessingProfile::indexed_db(),
                    i as u64,
                )) as Box<dyn fusion_source::Wrapper>
            })
            .collect(),
    );
    let network = Network::uniform(relations.len(), LinkProfile::Wan.link());
    Scenario::new("dmv-figure1", figure1_query(), relations, sources, network)
}

/// Violation codes used by the scaled generator, roughly ordered by
/// frequency.
pub const VIOLATIONS: [&str; 6] = ["sp", "park", "signal", "dui", "reckless", "hit-and-run"];

/// A scaled DMV population: `n_states` sources, `drivers` distinct
/// licenses, `rows_per_state` violation records per state, deterministic
/// under `seed`. Violations are skewed: earlier codes in [`VIOLATIONS`]
/// are more frequent.
pub(crate) fn scaled_dmv_relations(
    n_states: usize,
    drivers: usize,
    rows_per_state: usize,
    seed: u64,
) -> Vec<Relation> {
    let schema = dmv_schema();
    let mut rng = SplitMix64::new(seed);
    // Zipf-ish weights 1/k.
    let weights: Vec<f64> = (1..=VIOLATIONS.len()).map(|k| 1.0 / k as f64).collect();
    let total_w: f64 = weights.iter().sum();
    (0..n_states)
        .map(|_| {
            let rows: Vec<Tuple> = (0..rows_per_state)
                .map(|_| {
                    let d = rng.next_below(drivers);
                    let mut pick = rng.next_f64_range(0.0, total_w);
                    let mut v = VIOLATIONS[0];
                    for (k, w) in weights.iter().enumerate() {
                        if pick < *w {
                            v = VIOLATIONS[k];
                            break;
                        }
                        pick -= w;
                    }
                    let year = rng.next_i64_range(1985, 2000);
                    tuple![format!("L{d:06}"), v, year]
                })
                .collect();
            Relation::from_rows(schema.clone(), rows)
        })
        .collect()
}

/// A scaled DMV scenario: the Figure 1 query over a larger population,
/// with a mix of link profiles.
pub fn scaled_dmv_scenario(
    n_states: usize,
    drivers: usize,
    rows_per_state: usize,
    seed: u64,
) -> Scenario {
    let relations = scaled_dmv_relations(n_states, drivers, rows_per_state, seed);
    let mut rng = SplitMix64::new(seed.wrapping_add(1));
    let profiles = LinkProfile::all();
    let links = (0..n_states)
        .map(|_| rng.choose(&profiles).link())
        .collect();
    let sources = SourceSet::new(
        relations
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Box::new(InMemoryWrapper::new(
                    format!("DMV-{}", i + 1),
                    r.clone(),
                    Capabilities::full(),
                    ProcessingProfile::indexed_db(),
                    seed.wrapping_add(i as u64),
                )) as Box<dyn fusion_source::Wrapper>
            })
            .collect(),
    );
    Scenario::new(
        format!("dmv-scaled-{n_states}x{rows_per_state}"),
        figure1_query(),
        relations,
        sources,
        Network::new(links),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::ItemSet;

    #[test]
    fn figure1_answer() {
        let s = figure1_scenario();
        assert_eq!(
            s.ground_truth().unwrap(),
            ItemSet::from_items(["J55", "T21"])
        );
        assert_eq!(s.n(), 3);
        assert_eq!(s.m(), 2);
        assert_eq!(s.domain_size, 5.0, "J55, T21, T80, T11, S07");
    }

    #[test]
    fn scaled_population_is_deterministic() {
        let a = scaled_dmv_relations(3, 100, 50, 42);
        let b = scaled_dmv_relations(3, 100, 50, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rows(), y.rows());
        }
        let c = scaled_dmv_relations(3, 100, 50, 43);
        assert_ne!(a[0].rows(), c[0].rows());
    }

    #[test]
    fn scaled_population_shape() {
        let rels = scaled_dmv_relations(4, 1000, 200, 7);
        assert_eq!(rels.len(), 4);
        for r in &rels {
            assert_eq!(r.len(), 200);
        }
        // Skew: 'sp' should be the most common violation.
        let sp = rels[0]
            .select_items(&Predicate::eq("V", "sp").into())
            .unwrap()
            .items
            .len();
        let hr = rels[0]
            .select_items(&Predicate::eq("V", "hit-and-run").into())
            .unwrap()
            .items
            .len();
        assert!(sp > hr);
    }

    #[test]
    fn scaled_scenario_has_answers() {
        let s = scaled_dmv_scenario(4, 500, 400, 11);
        let truth = s.ground_truth().unwrap();
        assert!(!truth.is_empty(), "population is dense enough for matches");
        assert!(s.domain_size > 0.0);
    }
}
