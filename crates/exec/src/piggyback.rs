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

use std::collections::HashSet;

use crate::ledger::{CostLedger, StepKind};
use crate::phase2::fetch_full_records;
use crate::step::{proc_cost, Delivery, PlanRun};
use fusion_core::plan::{SimplePlanSpec, SourceChoice};
use fusion_core::query::FusionQuery;
use fusion_net::{ExchangeKind, MessageSize, Network};
use fusion_source::SourceSet;
use fusion_types::error::Result;
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
/// full records: rounds `0..m−1` run as the steps of `spec.build(n)`,
/// then the final round's queries ship records in place of items.
///
/// # Errors
/// Fails on malformed or unsound specs, capability violations (record
/// semijoins require native semijoin support), and evaluation errors.
pub fn execute_piggyback(
    spec: &SimplePlanSpec,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<PiggybackOutcome> {
    let n = sources.len();
    let plan = spec.build(n)?;
    fusion_core::analyze::ensure_sound(&plan)?;
    let mut run = PlanRun::new(&plan, query, sources, network, None, false)?;
    // The final round is the plan's tail: n remote steps, a union, and an
    // intersect unless the round is all semijoins (or the only one).
    let m = spec.order.len();
    let choices = &spec.choices[m - 1];
    let any_selection = choices.contains(&SourceChoice::Selection);
    let first = plan.steps.len() - n - 1 - usize::from(m > 1 && any_selection);
    for idx in 0..first {
        run.step(idx, network, None)?;
    }
    let mut ledger = CostLedger::new();
    for entry in (0..first).filter_map(|idx| run.entry(idx)) {
        ledger.push(entry.clone());
    }
    // The running set the final round reads: the previous round's result.
    let prev = first
        .checked_sub(1)
        .and_then(|idx| plan.steps[idx].defined_var())
        .map(|v| run.var(v));
    let cond = &query.conditions()[spec.order[m - 1].0];
    let mut records: Vec<Tuple> = Vec::new();
    for (j, choice) in choices.iter().enumerate() {
        let source = SourceId(j);
        let w = sources.get(source);
        let mut d = Delivery::plain(&mut *network, first + j, source);
        let (resp, kind, exchange, req) = match (choice, prev) {
            (SourceChoice::Selection, _) => (
                w.select_records(cond)?,
                StepKind::Selection,
                ExchangeKind::Selection,
                MessageSize::sq_request(cond),
            ),
            (SourceChoice::Semijoin, Some(bindings)) if !bindings.is_empty() => (
                w.semijoin_records(cond, bindings)?,
                StepKind::Semijoin,
                ExchangeKind::Semijoin,
                MessageSize::sjq_request(cond, bindings),
            ),
            // X ⋉ ∅ = ∅ at the mediator: free, as in the item plan.
            (SourceChoice::Semijoin, _) => {
                ledger.push(d.blank(StepKind::Semijoin));
                continue;
            }
        };
        // Plain delivery never drops a step.
        let (Ok(entry) | Err(entry)) = d.once(
            kind,
            exchange,
            req,
            MessageSize::tuples_response(&resp.payload),
            proc_cost(w, resp.tuples_examined, resp.payload.len()),
            resp.payload.len(),
        );
        ledger.push(entry);
        records.extend(resp.payload);
    }
    let schema = query.schema();
    let round_items: ItemSet = records.iter().map(|t| t.item(schema)).collect();
    let answer = match prev {
        Some(prev) if any_selection => prev.intersect(&round_items),
        _ => round_items,
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
        let mut newly = HashSet::new();
        for t in rows {
            let item = t.item(schema);
            if uncovered.contains(&item) && newly.insert(item) {
                records.push(t);
            }
        }
        uncovered = uncovered.difference(&newly.into_iter().collect());
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
    fn an_empty_final_semijoin_is_free() {
        use crate::execute_plan;
        use fusion_core::plan::SimplePlanSpec;
        use fusion_types::schema::dmv_schema;
        use fusion_types::Predicate;

        // No row has `V = 'nope'`: the final round semijoins an empty
        // running set, which the item plan prices at zero.
        let scenario = dmv::figure1_scenario();
        let query = FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "nope").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap();
        let spec = SimplePlanSpec::all_semijoin(2, 3);
        let mut plan_net = scenario.network();
        let plan = spec.build(3).unwrap();
        let items = execute_plan(&plan, &query, &scenario.sources, &mut plan_net).unwrap();
        let mut network = scenario.network();
        let out = execute_piggyback(&spec, &query, &scenario.sources, &mut network).unwrap();
        assert!(out.answer.is_empty() && out.records.is_empty());
        assert_eq!(network.trace().len(), 3, "the three selections only");
        assert_eq!(network.trace(), plan_net.trace());
        assert_eq!(out.total_cost(), items.total_cost());
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
