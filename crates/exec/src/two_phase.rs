//! The second phase of two-phase fusion query processing (§1).
//!
//! Phase one (the fusion query proper) identifies the merge-attribute
//! items of the matching entities; phase two fetches their full records.
//! "We do not pay the price of fetching full records until we know which
//! ones are needed."
//!
//! [`fetch_records`] is the *broadcast baseline*: every fetch-capable
//! source is asked for every surviving item, in batches bounded by its
//! `fetch_batch` capability. The planned alternative — the cheapest
//! covering assignment over a per-source attribute-coverage catalog —
//! lives in [`crate::phase2`].

use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use fusion_net::{ExchangeKind, MessageSize, Network};
use fusion_source::SourceSet;
use fusion_types::error::Result;
use fusion_types::{Cost, ItemSet, Tuple};

/// The outcome of a phase-two fetch.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// All records of the matching entities, across all sources,
    /// deduplicated.
    pub records: Vec<Tuple>,
    /// Total communication + processing cost of the fetch.
    pub cost: Cost,
    /// Per-source itemization: one [`StepKind::Fetch`] entry per fetch
    /// exchange group, like every other executor path.
    pub ledger: CostLedger,
}

/// Fetches the full records of `answer` items from every source whose
/// capabilities can serve fetches, in `⌈|answer| / fetch_batch⌉`
/// batches per source.
///
/// Fetch-capable sources holding no matching records still cost their
/// round trips — the mediator cannot know in advance which sources hold
/// which entities (that very uncertainty is what makes the data
/// "fusion" data). Sources without `record_fetch` support are skipped
/// entirely instead of burning a doomed exchange.
///
/// # Errors
/// Propagates wrapper failures.
pub fn fetch_records(
    answer: &ItemSet,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<FetchOutcome> {
    let mut records: Vec<Tuple> = Vec::new();
    let mut ledger = CostLedger::new();
    if answer.is_empty() {
        return Ok(FetchOutcome {
            records,
            cost: Cost::ZERO,
            ledger,
        });
    }
    for (step, (id, w)) in sources.iter().enumerate() {
        let caps = w.capabilities();
        if !caps.record_fetch {
            continue;
        }
        let mut comm = Cost::ZERO;
        let mut proc = Cost::ZERO;
        let mut round_trips = 0usize;
        let mut items_out = 0usize;
        let items = answer.as_slice();
        for chunk in items.chunks(caps.fetch_batch.max(1)) {
            let batch: ItemSet = chunk.iter().cloned().collect();
            let resp = w.fetch(&batch)?;
            let req_bytes =
                MessageSize::sjq_request(&fusion_types::Predicate::Const(true).into(), &batch);
            let resp_bytes = MessageSize::tuples_response(&resp.payload);
            comm += network.exchange(id, ExchangeKind::Fetch, req_bytes, resp_bytes);
            comm += Cost::new(caps.query_fee());
            proc += Cost::new(
                w.processing()
                    .cost(resp.tuples_examined, resp.payload.len()),
            );
            round_trips += 1;
            items_out += resp.payload.len();
            records.extend(resp.payload);
        }
        ledger.push(LedgerEntry {
            step,
            kind: StepKind::Fetch,
            source: Some(id),
            comm,
            proc,
            round_trips,
            items_out,
            attempts: round_trips,
            failed_cost: Cost::ZERO,
        });
    }
    records.sort_by(|a, b| a.values().cmp(b.values()));
    records.dedup();
    let cost = ledger.total();
    Ok(FetchOutcome {
        records,
        cost,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_net::LinkProfile;
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Relation};

    fn sources() -> SourceSet {
        let s = dmv_schema();
        SourceSet::new(vec![
            Box::new(InMemoryWrapper::new(
                "R1",
                Relation::from_rows(
                    s.clone(),
                    vec![
                        tuple!["J55", "dui", 1993i64],
                        tuple!["T21", "sp", 1994i64],
                        tuple!["T80", "dui", 1993i64],
                    ],
                ),
                Capabilities::full(),
                ProcessingProfile::free(),
                0,
            )),
            Box::new(InMemoryWrapper::new(
                "R2",
                Relation::from_rows(
                    s,
                    vec![tuple!["T21", "dui", 1996i64], tuple!["J55", "sp", 1996i64]],
                ),
                Capabilities::full(),
                ProcessingProfile::free(),
                1,
            )),
        ])
    }

    #[test]
    fn fetches_all_records_of_matching_items() {
        let sources = sources();
        let mut net = Network::uniform(2, LinkProfile::Wan.link());
        let answer = ItemSet::from_items(["J55", "T21"]);
        let out = fetch_records(&answer, &sources, &mut net).unwrap();
        assert_eq!(out.records.len(), 4, "two records per driver");
        assert!(out
            .records
            .iter()
            .all(|t| answer.contains(&t.item(&dmv_schema()))));
        assert!(out.cost > Cost::ZERO);
        assert_eq!(net.count_kind(ExchangeKind::Fetch), 2);
        // One per-source ledger entry each, itemized like every other
        // executor path.
        assert_eq!(out.ledger.count_kind(StepKind::Fetch), 2);
        assert_eq!(out.ledger.total(), out.cost);
    }

    #[test]
    fn empty_answer_is_free() {
        let sources = sources();
        let mut net = Network::uniform(2, LinkProfile::Wan.link());
        let out = fetch_records(&ItemSet::empty(), &sources, &mut net).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.cost, Cost::ZERO);
        assert!(net.trace().is_empty());
    }

    #[test]
    fn duplicate_records_are_deduplicated() {
        // Same record at both sources (replicated data).
        let s = dmv_schema();
        let rel = Relation::from_rows(s, vec![tuple!["X1", "dui", 2000i64]]);
        let sources = SourceSet::new(vec![
            Box::new(InMemoryWrapper::fully_capable("A", rel.clone())),
            Box::new(InMemoryWrapper::fully_capable("B", rel)),
        ]);
        let mut net = Network::uniform(2, LinkProfile::Lan.link());
        let out = fetch_records(&ItemSet::from_items(["X1"]), &sources, &mut net).unwrap();
        assert_eq!(out.records.len(), 1);
    }

    #[test]
    fn fetch_incapable_sources_are_skipped() {
        let s = dmv_schema();
        let rel = Relation::from_rows(s, vec![tuple!["X1", "dui", 2000i64]]);
        let sources = SourceSet::new(vec![
            Box::new(InMemoryWrapper::new(
                "A",
                rel.clone(),
                Capabilities::full(),
                ProcessingProfile::free(),
                0,
            )),
            Box::new(InMemoryWrapper::new(
                "B",
                rel,
                Capabilities::selection_only(),
                ProcessingProfile::free(),
                1,
            )),
        ]);
        let mut net = Network::uniform(2, LinkProfile::Wan.link());
        let out = fetch_records(&ItemSet::from_items(["X1"]), &sources, &mut net).unwrap();
        assert_eq!(out.records.len(), 1, "the capable replica still serves");
        assert_eq!(
            net.count_kind(ExchangeKind::Fetch),
            1,
            "B never round-trips"
        );
        assert_eq!(out.ledger.count_kind(StepKind::Fetch), 1);
    }

    #[test]
    fn bounded_fetch_batches_split_round_trips() {
        let s = dmv_schema();
        let rows: Vec<_> = (0..7)
            .map(|i| tuple![format!("X{i}"), "dui", 2000i64])
            .collect();
        let rel = Relation::from_rows(s, rows);
        let answer = rel.distinct_items();
        let sources = SourceSet::new(vec![Box::new(InMemoryWrapper::new(
            "A",
            rel,
            Capabilities::full().with_fetch_batch(3),
            ProcessingProfile::free(),
            0,
        ))]);
        let mut net = Network::uniform(1, LinkProfile::Wan.link());
        let out = fetch_records(&answer, &sources, &mut net).unwrap();
        assert_eq!(out.records.len(), 7);
        assert_eq!(net.count_kind(ExchangeKind::Fetch), 3, "⌈7/3⌉ batches");
        assert_eq!(out.ledger.round_trips(), 3);
    }
}
