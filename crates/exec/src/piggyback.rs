//! One-phase fusion query processing: record piggybacking (§6).
//!
//! The paper's conclusions name "moving away from the two-phase approach"
//! as future work: plans whose source queries "return other attributes in
//! addition to the merge attributes". This module implements the natural
//! first step — **final-round piggybacking**. The plan executes normally
//! up to its last condition; the last round's queries return *full
//! records* instead of items. Every answer item satisfies the last
//! condition at some source, so the piggybacked round yields at least one
//! witnessing record per matching entity — the "show me each match"
//! deliverable of a bibliographic search — with **zero extra round
//! trips**, at the price of shipping whole tuples where items would do.
//!
//! The two-phase counterpart with the same deliverable is
//! [`fetch_first_records`]: execute the item-only plan, then sweep the
//! sources, fetching records only for still-uncovered items.
//!
//! [`fetch_first_records`]: crate::piggyback::fetch_first_records

use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use crate::phase2::fetch_full_records;
use crate::step::{exec_sq, run_semijoin, Delivery, StepValue};
use fusion_core::plan::{SimplePlanSpec, SourceChoice};
use fusion_core::query::FusionQuery;
use fusion_net::{ExchangeKind, MessageSize, Network};
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};
use fusion_types::{Cost, ItemSet, SourceId, Tuple};

/// The outcome of a piggybacked execution.
#[derive(Debug, Clone)]
pub struct PiggybackOutcome {
    /// The query answer.
    pub answer: ItemSet,
    /// For every answer item, at least one full record witnessing the
    /// final condition (sorted, deduplicated).
    pub records: Vec<Tuple>,
    /// Per-step executed costs.
    pub ledger: CostLedger,
}

impl PiggybackOutcome {
    /// Total executed cost.
    pub fn total_cost(&self) -> Cost {
        self.ledger.total()
    }
}

/// Executes a condition-at-a-time spec with the final round returning
/// full records.
///
/// # Errors
/// Fails on malformed specs, capability violations (record semijoins
/// require native semijoin support), and evaluation errors.
pub fn execute_piggyback(
    spec: &SimplePlanSpec,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<PiggybackOutcome> {
    spec.validate(sources.len())?;
    if spec.order.len() != query.m() {
        return Err(FusionError::invalid_plan(format!(
            "spec covers {} conditions, query has {}",
            spec.order.len(),
            query.m()
        )));
    }
    let conditions = query.conditions();
    let m = spec.order.len();
    let mut ledger = CostLedger::new();
    let mut current: Option<ItemSet> = None;
    let mut step = 0usize;
    // All rounds but the last: plain item processing.
    for r in 0..m - 1 {
        let cond = &conditions[spec.order[r].0];
        let mut round_union = ItemSet::empty();
        let mut any_selection = false;
        for (j, choice) in spec.choices[r].iter().enumerate() {
            let source = SourceId(j);
            let mut d = Delivery::plain(network, step, source);
            let done = match choice {
                SourceChoice::Selection => {
                    any_selection = true;
                    exec_sq(&mut d, cond, sources)?
                }
                SourceChoice::Semijoin => {
                    let bindings = current
                        .as_ref()
                        .expect("validated: round 0 has no semijoins");
                    run_semijoin(&mut d, cond, bindings, sources)?
                }
            };
            ledger.push(done.entry);
            let StepValue::Items(items) = done.value else {
                unreachable!("plain delivery never drops a step");
            };
            round_union = round_union.union(&items);
            step += 1;
        }
        current = Some(match current {
            None => round_union,
            Some(prev) if any_selection => prev.intersect(&round_union),
            Some(_) => round_union,
        });
    }
    // Final round: record-returning queries.
    let cond = &conditions[spec.order[m - 1].0];
    let prev = current;
    let mut records: Vec<Tuple> = Vec::new();
    let mut any_selection = false;
    for (j, choice) in spec.choices[m - 1].iter().enumerate() {
        let source = SourceId(j);
        let w = sources.get(source);
        let (resp, kind) = match choice {
            SourceChoice::Selection => {
                any_selection = true;
                (w.select_records(cond)?, StepKind::Selection)
            }
            SourceChoice::Semijoin => {
                let bindings = prev.as_ref().expect("validated").clone();
                (w.semijoin_records(cond, &bindings)?, StepKind::Semijoin)
            }
        };
        let req = match choice {
            SourceChoice::Selection => MessageSize::sq_request(cond),
            SourceChoice::Semijoin => {
                MessageSize::sjq_request(cond, prev.as_ref().expect("validated"))
            }
        };
        let resp_bytes = MessageSize::tuples_response(&resp.payload);
        let exchange_kind = match kind {
            StepKind::Semijoin => ExchangeKind::Semijoin,
            _ => ExchangeKind::Selection,
        };
        let comm = network.exchange(source, exchange_kind, req, resp_bytes);
        let proc = Cost::new(
            w.processing()
                .cost(resp.tuples_examined, resp.payload.len()),
        );
        ledger.push(LedgerEntry {
            step,
            kind,
            source: Some(source),
            comm,
            proc,
            round_trips: 1,
            items_out: resp.payload.len(),
            attempts: 1,
            failed_cost: Cost::ZERO,
        });
        records.extend(resp.payload);
        step += 1;
    }
    let schema = query.schema();
    let round_items: ItemSet = records.iter().map(|t| t.item(schema)).collect();
    let answer = match prev {
        None => round_items,
        Some(prev) if any_selection => prev.intersect(&round_items),
        Some(_) => round_items,
    };
    records.retain(|t| answer.contains(&t.item(schema)));
    records.sort_by(|a, b| a.values().cmp(b.values()));
    records.dedup();
    Ok(PiggybackOutcome {
        answer,
        records,
        ledger,
    })
}

/// The two-phase counterpart with the same deliverable (≥ 1 witnessing
/// record per answer item): sweeps the fetch-capable sources in order,
/// fetching records only for the items not yet covered — batched and
/// priced exactly as phase two's fetches are — and stopping early once
/// every item has one.
///
/// # Errors
/// Propagates wrapper failures.
pub fn fetch_first_records(
    answer: &ItemSet,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<(Vec<Tuple>, Cost)> {
    let mut uncovered = answer.clone();
    let mut records = Vec::new();
    let mut cost = Cost::ZERO;
    for (step, (id, w)) in sources.iter().enumerate() {
        if uncovered.is_empty() {
            break;
        }
        if !w.capabilities().record_fetch {
            continue;
        }
        let schema = w.schema();
        let (rows, entry) = fetch_full_records(&uncovered, id, step, schema, sources, network)?;
        cost += entry.total();
        // Keep one record per newly covered item.
        let mut newly: Vec<Tuple> = Vec::new();
        for t in rows {
            let item = t.item(schema);
            if uncovered.contains(&item) && !newly.iter().any(|x| x.item(schema) == item) {
                newly.push(t);
            }
        }
        let newly_items: ItemSet = newly.iter().map(|t| t.item(schema)).collect();
        uncovered = uncovered.difference(&newly_items);
        records.extend(newly);
    }
    records.sort_by(|a, b| a.values().cmp(b.values()));
    Ok((records, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::sja_optimal;
    use fusion_types::ItemSet;
    use fusion_workload::dmv;

    #[test]
    fn piggyback_answers_match_and_carry_witnesses() {
        let scenario = dmv::figure1_scenario();
        let model = scenario.cost_model();
        let opt = sja_optimal(&model);
        let mut network = scenario.network();
        let out =
            execute_piggyback(&opt.spec, &scenario.query, &scenario.sources, &mut network).unwrap();
        assert_eq!(out.answer, ItemSet::from_items(["J55", "T21"]));
        // Every answer item has at least one witnessing record of the
        // final condition.
        let schema = scenario.query.schema();
        for item in &out.answer {
            assert!(
                out.records.iter().any(|t| &t.item(schema) == item),
                "no witness for {item}"
            );
        }
        // Witness records satisfy the final condition.
        let last = &scenario.query.conditions()[opt.spec.order.last().unwrap().0];
        for t in &out.records {
            assert!(
                last.eval(t, schema).unwrap(),
                "{t} fails the last condition"
            );
        }
    }

    #[test]
    fn two_phase_first_records_covers_all_items() {
        let scenario = dmv::figure1_scenario();
        let answer = ItemSet::from_items(["J55", "T21"]);
        let mut network = scenario.network();
        let (records, cost) =
            fetch_first_records(&answer, &scenario.sources, &mut network).unwrap();
        assert_eq!(records.len(), 2, "one record per item");
        let schema = scenario.query.schema();
        let covered: ItemSet = records.iter().map(|t| t.item(schema)).collect();
        assert_eq!(covered, answer);
        assert!(cost > Cost::ZERO);
    }

    #[test]
    fn empty_answer_fetches_nothing() {
        let scenario = dmv::figure1_scenario();
        let mut network = scenario.network();
        let (records, cost) =
            fetch_first_records(&ItemSet::empty(), &scenario.sources, &mut network).unwrap();
        assert!(records.is_empty());
        assert_eq!(cost, Cost::ZERO);
    }

    #[test]
    fn first_records_honour_fetch_capabilities_like_the_broadcast_path() {
        use crate::two_phase::fetch_records;
        use fusion_net::LinkProfile;
        use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, Wrapper};
        use fusion_types::schema::dmv_schema;
        use fusion_types::{tuple, Relation};

        // R1 cannot serve fetches at all; R2 takes 3 items per request
        // and charges 0.25 per round trip.
        let rows: Vec<Tuple> = (0..7)
            .map(|i| tuple![format!("L{i}"), "dui", 1990 + i as i64])
            .collect();
        let caps = [
            Capabilities::selection_only(),
            Capabilities::full()
                .with_fetch_batch(3)
                .with_fee_millis(250),
        ];
        let sources = SourceSet::new(
            caps.iter()
                .enumerate()
                .map(|(j, c)| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", j + 1),
                        Relation::from_rows(dmv_schema(), rows.clone()),
                        *c,
                        ProcessingProfile::indexed_db(),
                        j as u64,
                    )) as Box<dyn Wrapper>
                })
                .collect(),
        );
        let answer: ItemSet = rows.iter().map(|t| t.item(&dmv_schema())).collect();
        let mut network = Network::uniform(2, LinkProfile::Wan.link());
        let (records, cost) = fetch_first_records(&answer, &sources, &mut network).unwrap();
        assert_eq!(records.len(), 7, "one record per item, all from R2");
        assert_eq!(network.trace().len(), 3, "⌈7 / 3⌉ fetch round trips");
        assert!(network.trace().iter().all(|e| e.source == SourceId(1)));
        // With one capable source holding everything, the sweep is the
        // broadcast fetch: same batches, same fees, same cost.
        let mut broadcast_net = Network::uniform(2, LinkProfile::Wan.link());
        let broadcast = fetch_records(&answer, &sources, &mut broadcast_net).unwrap();
        assert_eq!(cost, broadcast.cost);
        assert_eq!(network.trace(), broadcast_net.trace());
    }
}
