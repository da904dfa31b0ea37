//! Fixtures shared by this crate's unit tests: the paper's Figure 1 DMV
//! instance and query, taken from `fusion-workload`.

use fusion_core::query::FusionQuery;
use fusion_net::{LinkProfile, Network};
use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};

/// The three Figure 1 relations behind in-memory wrappers `R1..R3`.
pub(crate) fn dmv_sources(caps: Capabilities) -> SourceSet {
    SourceSet::new(
        fusion_workload::dmv::figure1_relations()
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                Box::new(InMemoryWrapper::new(
                    format!("R{}", i + 1),
                    r,
                    caps,
                    ProcessingProfile::indexed_db(),
                    i as u64,
                )) as Box<dyn fusion_source::Wrapper>
            })
            .collect(),
    )
}

/// Drivers with both a `dui` and an `sp` violation.
pub(crate) fn dmv_query() -> FusionQuery {
    fusion_workload::dmv::figure1_query()
}

/// Three WAN links, one per DMV source.
pub(crate) fn net() -> Network {
    Network::uniform(3, LinkProfile::Wan.link())
}
