//! The bibliographic-search scenario of §1.
//!
//! "In a bibliographic search scenario, one first identifies the documents
//! that satisfy the criteria, and then fetches the documents, usually a
//! few at a time." Several digital libraries each hold *keyword records*
//! `(document, keyword, year)` for overlapping document collections; a
//! fusion query finds the documents carrying all requested keywords,
//! where each keyword may be recorded at any library.

use crate::scenario::Scenario;
use fusion_core::query::FusionQuery;
use fusion_net::{LinkProfile, Network};
use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
use fusion_stats::SplitMix64;
use fusion_types::{Attribute, Condition, Predicate, Relation, Schema, Tuple, ValueType};

/// Keyword vocabulary, most common first.
pub const KEYWORDS: [&str; 10] = [
    "database",
    "systems",
    "query",
    "optimization",
    "distributed",
    "semijoin",
    "mediator",
    "wrapper",
    "internet",
    "fusion",
];

/// The bibliographic schema: `(DOC, KW, Y)` with merge attribute `DOC`.
pub fn biblio_schema() -> Schema {
    Schema::new(
        vec![
            Attribute::new("DOC", ValueType::Str),
            Attribute::new("KW", ValueType::Str),
            Attribute::new("Y", ValueType::Int),
        ],
        "DOC",
    )
    .expect("static schema is valid")
}

/// Generates keyword-record relations for `n_libraries` libraries over
/// `documents` distinct documents, `rows_per_library` records each.
/// Keyword frequencies are Zipf-like over [`KEYWORDS`].
pub fn biblio_relations(
    n_libraries: usize,
    documents: usize,
    rows_per_library: usize,
    seed: u64,
) -> Vec<Relation> {
    let schema = biblio_schema();
    let mut rng = SplitMix64::new(seed);
    let weights: Vec<f64> = (1..=KEYWORDS.len()).map(|k| 1.0 / k as f64).collect();
    let total_w: f64 = weights.iter().sum();
    (0..n_libraries)
        .map(|_| {
            let rows: Vec<Tuple> = (0..rows_per_library)
                .map(|_| {
                    let d = rng.next_below(documents);
                    let mut pick = rng.next_f64_range(0.0, total_w);
                    let mut kw = KEYWORDS[0];
                    for (k, w) in weights.iter().enumerate() {
                        if pick < *w {
                            kw = KEYWORDS[k];
                            break;
                        }
                        pick -= w;
                    }
                    let year = rng.next_i64_range(1985, 1999);
                    Tuple::from_iter([format!("D{d:05}").into(), kw.into(), year.into()])
                })
                .collect();
            Relation::from_rows(schema.clone(), rows)
        })
        .collect()
}

/// A fusion query: documents carrying all the given keywords (each
/// possibly recorded at a different library).
pub fn keyword_query(keywords: &[&str]) -> FusionQuery {
    let conditions: Vec<Condition> = keywords
        .iter()
        .map(|kw| Predicate::eq("KW", *kw).into())
        .collect();
    FusionQuery::new(biblio_schema(), conditions).expect("generated query is valid")
}

/// The full bibliographic scenario: libraries with heterogeneous links
/// (some local, some overseas) and mixed semijoin support — digital
/// libraries of the era rarely accepted passed bindings in bulk.
pub fn biblio_scenario(
    n_libraries: usize,
    documents: usize,
    rows_per_library: usize,
    keywords: &[&str],
    seed: u64,
) -> Scenario {
    let relations = biblio_relations(n_libraries, documents, rows_per_library, seed);
    let profiles = LinkProfile::all();
    let sources = SourceSet::new(
        relations
            .iter()
            .enumerate()
            .map(|(i, r)| {
                // Every third library lacks native semijoins and accepts
                // 20 bindings per probe.
                let caps = if i % 3 == 2 {
                    Capabilities::emulated(20)
                } else {
                    Capabilities::full()
                };
                Box::new(InMemoryWrapper::new(
                    format!("LIB-{}", i + 1),
                    r.clone(),
                    caps,
                    ProcessingProfile::indexed_db(),
                    seed.wrapping_add(i as u64),
                )) as Box<dyn fusion_source::Wrapper>
            })
            .collect(),
    );
    let links = (0..n_libraries)
        .map(|i| profiles[i % profiles.len()].link())
        .collect();
    Scenario::new(
        format!("biblio-{n_libraries}libs"),
        keyword_query(keywords),
        relations,
        sources,
        Network::new(links),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let a = biblio_relations(3, 200, 300, 17);
        let b = biblio_relations(3, 200, 300, 17);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rows(), y.rows());
            assert_eq!(x.len(), 300);
        }
    }

    #[test]
    fn keyword_skew() {
        let rels = biblio_relations(1, 500, 2000, 3);
        let common = rels[0]
            .select_items(&Predicate::eq("KW", "database").into())
            .unwrap()
            .items
            .len();
        let rare = rels[0]
            .select_items(&Predicate::eq("KW", "fusion").into())
            .unwrap()
            .items
            .len();
        assert!(common > rare * 2, "common {common} vs rare {rare}");
    }

    #[test]
    fn scenario_finds_multi_keyword_documents() {
        let sc = biblio_scenario(4, 300, 1500, &["database", "query"], 23);
        let truth = sc.ground_truth().unwrap();
        assert!(!truth.is_empty());
        assert_eq!(sc.m(), 2);
        assert_eq!(sc.n(), 4);
    }

    #[test]
    fn rare_keyword_pair_is_selective() {
        let sc_rare = biblio_scenario(4, 300, 1500, &["fusion", "internet"], 23);
        let sc_common = biblio_scenario(4, 300, 1500, &["database", "systems"], 23);
        let rare = sc_rare.ground_truth().unwrap().len();
        let common = sc_common.ground_truth().unwrap().len();
        assert!(rare < common, "rare {rare} vs common {common}");
    }
}
