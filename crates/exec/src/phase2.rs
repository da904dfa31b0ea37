//! Phase-two runtime: executing a certified covering [`FetchPlan`].
//!
//! [`fusion_core::phase2`] plans the cheapest covering assignment for
//! the non-merge attributes of the surviving items; this module runs
//! it:
//!
//! * [`execute_fetch_plan`] performs the batched per-source fetch
//!   exchanges sequentially, serves cache-covered items at zero cost
//!   ([`StepKind::FetchCached`]), stitches the responses into records,
//!   and harvests full-record fetches back into the answer cache. Its
//!   `replan` argument adds fault tolerance: exchanges run through the
//!   same retry loop as phase one, and when a source is given up on,
//!   its undelivered coverage is *re-planned* over the surviving
//!   sources. Only coverage nothing can replace degrades the record
//!   set to [`Completeness::Subset`], with the missing attributes named
//!   per item.
//! * [`fetch_planned`] is the plan→certify→execute convenience the CLI,
//!   the mediator server, and the parity battery share.
//!
//! Record semantics: each output tuple holds the merge attribute plus
//! the requested attributes, in schema order. When the request covers
//! every non-merge attribute, records are full tuples and the output is
//! byte-identical (sorted, deduplicated) to the broadcast baseline
//! [`crate::two_phase::fetch_records`] over consistent replicas. An
//! item whose attributes arrive from several sources yields one
//! composite record, stitched from the lexicographically least row of
//! each contributing source.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::cached::{commit_inserts, PendingInsert};
use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use crate::retry::{Completeness, RetryPolicy};
use crate::step::{proc_cost, Attempted, Delivery, Exchanger, SourceFt};
use fusion_cache::{AnswerCache, Harvest};
use fusion_core::cost::NetworkCostModel;
use fusion_core::phase2::{
    certify_fetch_plan, non_merge_attrs, plan_fetch, CoverageCatalog, FetchAssignment,
    FetchCertificate, FetchPlan,
};
use fusion_net::{ExchangeKind, MessageSize, Network};
use fusion_source::{SourceSet, WrapperResponse};
use fusion_types::error::{FusionError, Result};
use fusion_types::{Cost, Item, ItemSet, Predicate, Schema, SourceId, Tuple, Value};

/// The result of executing a phase-two fetch plan.
#[derive(Debug, Clone)]
pub struct Phase2Outcome {
    /// Assembled records: merge attribute plus the requested attributes,
    /// in schema order; sorted by value, deduplicated.
    pub records: Vec<Tuple>,
    /// Per-assignment itemization ([`StepKind::Fetch`] entries, plus one
    /// [`StepKind::FetchCached`] entry when the cache served items).
    pub ledger: CostLedger,
    /// Exact when every (item, attribute) pair was delivered; a sound
    /// subset naming the dead sources otherwise.
    pub completeness: Completeness,
    /// Items whose records could not be completed, with the names of
    /// the attributes nothing could supply. These items emit no record.
    pub missing: Vec<(Item, Vec<String>)>,
    /// Records served from the answer cache without an exchange.
    pub cached_served: usize,
}

impl Phase2Outcome {
    /// Total executed cost, failed attempts included.
    pub fn total_cost(&self) -> Cost {
        self.ledger.total()
    }
}

/// The output column layout for a request: merge index plus the
/// requested non-merge indexes, ascending (schema order).
fn record_columns(schema: &Schema, attrs: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> = attrs.to_vec();
    cols.push(schema.merge_index());
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Projects a full-schema row to the given column layout.
fn project(row: &Tuple, cols: &[usize]) -> Tuple {
    cols.iter().map(|&c| row.get(c).clone()).collect()
}

/// Full records the answer cache can serve for `answer` items without
/// an exchange: rows harvested by earlier phase-two fetches (entries
/// whose condition is `M IN (...)` over the merge attribute — exactly
/// the shape [`execute_fetch_plan`] commits). Each served item maps to
/// every row the lowest qualifying source holds for it.
pub fn cached_phase2_rows(
    cache: &AnswerCache,
    answer: &ItemSet,
    schema: &Schema,
) -> BTreeMap<Item, Vec<Tuple>> {
    let merge = &schema.merge_attribute().name;
    let mut best: BTreeMap<Item, (SourceId, Vec<Tuple>)> = BTreeMap::new();
    for entry in cache.entries() {
        if !entry.exact {
            continue;
        }
        let Predicate::InList { attr, values } = &entry.cond.pred else {
            continue;
        };
        if attr != merge {
            continue;
        }
        let listed: BTreeSet<&Value> = values.iter().collect();
        for item in answer {
            if !listed.contains(item.value()) {
                continue;
            }
            let rows: Vec<Tuple> = entry
                .tuples()
                .filter(|t| t.arity() == schema.arity() && &t.item(schema) == item)
                .cloned()
                .collect();
            if rows.is_empty() {
                continue;
            }
            match best.get(item) {
                Some((src, _)) if *src <= entry.source => {}
                _ => {
                    best.insert(item.clone(), (entry.source, rows));
                }
            }
        }
    }
    best.into_iter()
        .map(|(i, (_, mut rows))| {
            rows.sort_by(|a, b| a.values().cmp(b.values()));
            rows.dedup();
            (i, rows)
        })
        .collect()
}

/// One executed assignment, ready for record assembly and harvest.
struct Executed {
    /// Coverage responsibility actually delivered.
    covers: Vec<(Item, Vec<usize>)>,
    /// Column layout of the rows (merge ∪ assignment attrs, ascending).
    layout: Vec<usize>,
    /// Delivered rows per item, sorted and deduplicated.
    rows: BTreeMap<Item, Vec<Tuple>>,
    /// Raw payload rows in wrapper order (cache harvest material).
    raw: Vec<Tuple>,
    /// Items the delivered batches asked for (harvest condition).
    requested: ItemSet,
    /// The source that served the assignment.
    source: SourceId,
    /// The assignment's ledger step (harvest commit order).
    step: usize,
    /// The price paid (cache eviction weight on harvest).
    paid: Cost,
}

/// One batched fetch call at the wrapper, projected into the
/// assignment's column layout whether or not the source projects.
/// Returns the projected payload plus the *wire* response size: a
/// source without projection support ships its full tuples and the
/// mediator projects locally, so the wire carries the full rows.
fn fetch_batch(
    w: &dyn fusion_source::Wrapper,
    batch: &ItemSet,
    schema: &Schema,
    layout: &[usize],
) -> Result<(WrapperResponse<Vec<Tuple>>, usize)> {
    if w.capabilities().projection && layout.len() < schema.arity() {
        let resp = w.fetch_projected(batch, layout)?;
        let wire = MessageSize::tuples_response(&resp.payload);
        Ok((resp, wire))
    } else {
        let full = w.fetch(batch)?;
        let wire = MessageSize::tuples_response(&full.payload);
        Ok((
            WrapperResponse {
                payload: full.payload.iter().map(|t| project(t, layout)).collect(),
                tuples_examined: full.tuples_examined,
            },
            wire,
        ))
    }
}

/// Groups delivered payload rows by item and sorts them for
/// deterministic stitching.
fn rows_by_item(raw: &[Tuple], merge_pos: usize) -> BTreeMap<Item, Vec<Tuple>> {
    let mut rows: BTreeMap<Item, Vec<Tuple>> = BTreeMap::new();
    for t in raw {
        rows.entry(Item(t.get(merge_pos).clone()))
            .or_default()
            .push(t.clone());
    }
    for list in rows.values_mut() {
        list.sort_by(|a, b| a.values().cmp(b.values()));
        list.dedup();
    }
    rows
}

/// What an assignment execution yields: the exchange result (absent
/// when the source delivered nothing), its ledger entry, and the covers
/// of every undelivered item, back for re-planning.
type AssignmentResult = (Option<Executed>, LedgerEntry, Vec<(Item, Vec<usize>)>);

/// Runs the batched exchanges of one assignment through `d`. Under
/// retried delivery a dead source, or one that exhausts the policy
/// mid-way, hands the covers of every undelivered item back; plain
/// delivery always delivers everything.
fn exec_assignment<E: Exchanger>(
    d: &mut Delivery<'_, E>,
    asg: &FetchAssignment,
    schema: &Schema,
    sources: &SourceSet,
) -> Result<AssignmentResult> {
    let kind = StepKind::Fetch;
    if d.dead() {
        return Ok((None, d.dropped(kind, 0, Cost::ZERO), asg.covers.clone()));
    }
    let w = sources.get(asg.source);
    let caps = w.capabilities();
    let layout = record_columns(schema, &asg.attrs);
    let merge_pos = layout
        .iter()
        .position(|&c| c == schema.merge_index())
        .expect("layout contains the merge index");
    let mut entry = d.blank(kind);
    let mut raw: Vec<Tuple> = Vec::new();
    let items = asg.items.as_slice();
    let batch_size = caps.fetch_batch.max(1);
    // Items of the batches delivered before the source was given up on;
    // `None` while every batch has been delivered.
    let mut delivered_before_loss: Option<ItemSet> = None;
    for (b, chunk) in items.chunks(batch_size).enumerate() {
        let batch: ItemSet = chunk.iter().cloned().collect();
        let (resp, resp_bytes) = fetch_batch(w, &batch, schema, &layout)?;
        let req_bytes = MessageSize::sjq_request(&Predicate::Const(true).into(), &batch);
        let spent = d.spent + entry.comm + entry.proc + entry.failed_cost;
        match d.send(ExchangeKind::Fetch, req_bytes, resp_bytes, spent) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => {
                // The order `two_phase::fetch_records` accumulates in, so
                // ledgers agree to the last bit at any per-query fee.
                entry.comm += comm;
                entry.comm += Cost::new(caps.query_fee());
                entry.proc += proc_cost(w, resp.tuples_examined, resp.payload.len());
                entry.round_trips += 1;
                entry.attempts += attempts;
                entry.failed_cost += failed;
                raw.extend(resp.payload);
            }
            Attempted::Exhausted { attempts, failed } => {
                entry.attempts += attempts;
                entry.failed_cost += failed;
                delivered_before_loss = Some(items[..b * batch_size].iter().cloned().collect());
                break;
            }
        }
    }
    entry.items_out = raw.len();
    let (covers, requested, undelivered) = match delivered_before_loss {
        None => (asg.covers.clone(), asg.items.clone(), Vec::new()),
        Some(delivered) => {
            let (kept, lost) = asg
                .covers
                .iter()
                .cloned()
                .partition(|(i, _)| delivered.contains(i));
            if delivered.is_empty() {
                return Ok((None, entry, lost));
            }
            (kept, delivered, lost)
        }
    };
    let executed = Executed {
        covers,
        layout,
        rows: rows_by_item(&raw, merge_pos),
        raw,
        requested,
        source: asg.source,
        step: d.step,
        paid: entry.total(),
    };
    Ok((Some(executed), entry, undelivered))
}

/// Every full record `source` holds for `items`, in wrapper order: a
/// one-source assignment outside any plan, delivered plainly in batches
/// of the source's `fetch_batch`, with its [`StepKind::Fetch`] entry.
pub(crate) fn fetch_full_records(
    items: &ItemSet,
    source: SourceId,
    step: usize,
    schema: &Schema,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<(Vec<Tuple>, LedgerEntry)> {
    let asg = FetchAssignment {
        source,
        items: items.clone(),
        attrs: non_merge_attrs(schema),
        covers: Vec::new(),
        batches: 0,
        est_cost: Cost::ZERO,
    };
    let mut d = Delivery::plain(network, step, source);
    let (done, entry, _) = exec_assignment(&mut d, &asg, schema, sources)?;
    Ok((done.map_or_else(Vec::new, |e| e.raw), entry))
}

/// What [`assemble`] yields: the output records, the items whose named
/// attributes could not be delivered, and the cached-row serve count.
type Assembled = (Vec<Tuple>, Vec<(Item, Vec<String>)>, usize);

/// Stitches executed assignments and cached rows into the output record
/// set. Returns `(records, missing, cached_served)`.
fn assemble(
    schema: &Schema,
    req_attrs: &[usize],
    executed: &[Executed],
    cached_rows: &BTreeMap<Item, Vec<Tuple>>,
    cached: &ItemSet,
    planned_missing: &[&[(Item, Vec<usize>)]],
) -> Assembled {
    let cols = record_columns(schema, req_attrs);
    let req: BTreeSet<usize> = req_attrs.iter().copied().collect();
    let mut missing: BTreeMap<Item, BTreeSet<usize>> = BTreeMap::new();
    for list in planned_missing {
        for (item, attrs) in *list {
            missing
                .entry(item.clone())
                .or_default()
                .extend(attrs.iter().copied());
        }
    }
    // Contributions per item: which executed assignment delivered which
    // attributes. A promised item the source returned no row for is a
    // catalog lie (the server's replica assumption): its attributes are
    // simply missing.
    let mut contribs: BTreeMap<Item, Vec<(usize, Vec<usize>)>> = BTreeMap::new();
    for (t, e) in executed.iter().enumerate() {
        for (item, attrs) in &e.covers {
            if e.rows.contains_key(item) {
                contribs
                    .entry(item.clone())
                    .or_default()
                    .push((t, attrs.clone()));
            } else {
                missing
                    .entry(item.clone())
                    .or_default()
                    .extend(attrs.iter().copied());
            }
        }
    }
    let mut records: Vec<Tuple> = Vec::new();
    let mut cached_served = 0usize;
    for item in cached {
        match cached_rows.get(item) {
            Some(rows) => {
                records.extend(rows.iter().map(|r| project(r, &cols)));
                cached_served += rows.len();
            }
            None => {
                missing
                    .entry(item.clone())
                    .or_default()
                    .extend(req.iter().copied());
            }
        }
    }
    for (item, parts) in &contribs {
        if missing.contains_key(item) {
            continue;
        }
        let have: BTreeSet<usize> = parts.iter().flat_map(|(_, a)| a.iter().copied()).collect();
        if have != req {
            let gap: BTreeSet<usize> = req.difference(&have).copied().collect();
            missing.entry(item.clone()).or_default().extend(gap);
            continue;
        }
        if parts.len() == 1 {
            // Single-source coverage: every row of the item, projected
            // from the assignment layout to the output layout.
            let e = &executed[parts[0].0];
            let pick: Vec<usize> = cols
                .iter()
                .map(|c| e.layout.iter().position(|l| l == c).expect("covered"))
                .collect();
            records.extend(e.rows[item].iter().map(|r| project(r, &pick)));
        } else {
            // Split coverage: one composite record, stitched from the
            // least row of each contributing source.
            let mut values: Vec<Option<Value>> = vec![None; cols.len()];
            let merge_out = cols
                .iter()
                .position(|&c| c == schema.merge_index())
                .expect("merge in layout");
            values[merge_out] = Some(item.value().clone());
            for (t, attrs) in parts {
                let e = &executed[*t];
                let row = &e.rows[item][0];
                for a in attrs {
                    let out = cols.iter().position(|c| c == a).expect("requested");
                    let src = e.layout.iter().position(|l| l == a).expect("covered");
                    values[out] = Some(row.get(src).clone());
                }
            }
            records.push(values.into_iter().map(|v| v.expect("covered")).collect());
        }
    }
    records.sort_by(|a, b| a.values().cmp(b.values()));
    records.dedup();
    let missing_named: Vec<(Item, Vec<String>)> = missing
        .into_iter()
        .map(|(item, attrs)| {
            (
                item,
                attrs
                    .into_iter()
                    .map(|a| schema.attribute(a).name.clone())
                    .collect(),
            )
        })
        .collect();
    (records, missing_named, cached_served)
}

/// Cache harvest: full-record fetches (layout = whole schema) become
/// `M IN (...)` entries, so the next query's phase two can serve those
/// items without an exchange.
fn harvest(schema: &Schema, executed: &[Executed]) -> Vec<PendingInsert> {
    let merge = &schema.merge_attribute().name;
    executed
        .iter()
        .filter(|e| e.layout.len() == schema.arity() && !e.requested.is_empty())
        .map(|e| PendingInsert {
            step: e.step,
            source: e.source,
            cond: Predicate::InList {
                attr: merge.clone(),
                values: e.requested.iter().map(|i| i.value().clone()).collect(),
            }
            .into(),
            rows: Arc::new(Harvest::new(e.raw.clone())),
            refetch: e.paid,
        })
        .collect()
}

/// Executes a fetch plan's assignments in order. With `replan` — a
/// retry policy plus the catalog and model the plan was made from —
/// exchanges are retried, and when a source is given up on its
/// undelivered coverage is re-planned over the surviving sources; only
/// coverage nothing can replace is reported missing. Without it,
/// delivery is plain (the network's fault plan is ignored) and nothing
/// is ever re-planned.
///
/// # Errors
/// Propagates wrapper failures; fails on a retry policy that fails
/// `RetryPolicy::check`, and when the plan expects cached items but no
/// cache is given.
pub fn execute_fetch_plan(
    plan: &FetchPlan,
    schema: &Schema,
    sources: &SourceSet,
    network: &mut Network,
    replan: Option<(&RetryPolicy, &CoverageCatalog, &NetworkCostModel)>,
    cache: Option<&mut AnswerCache>,
) -> Result<Phase2Outcome> {
    replan.map_or(Ok(()), |(policy, ..)| policy.check())?;
    let mut fts = vec![SourceFt::default(); sources.len()];
    let mut live: Option<CoverageCatalog> = None;
    let mut queue: VecDeque<FetchAssignment> = plan.assignments.iter().cloned().collect();
    let mut ledger = CostLedger::new();
    let mut executed = Vec::with_capacity(queue.len());
    let mut extra_missing: Vec<(Item, Vec<usize>)> = Vec::new();
    let mut dead: BTreeSet<SourceId> = BTreeSet::new();
    let mut spent = Cost::ZERO;
    let mut step = 0usize;
    while let Some(asg) = queue.pop_front() {
        let mut d = Delivery {
            net: &mut *network,
            step,
            source: asg.source,
            retry: replan.map(|(policy, ..)| (policy, &mut fts[asg.source.0])),
            spent,
        };
        let (done, entry, undelivered) = exec_assignment(&mut d, &asg, schema, sources)?;
        spent += entry.total();
        ledger.push(entry);
        step += 1;
        executed.extend(done);
        let Some((_, catalog, model)) = replan.filter(|_| !undelivered.is_empty()) else {
            continue;
        };
        // The source is dead: strike it from the live catalog and
        // re-cover its undelivered pairs from the survivors. Items
        // with identical residual needs re-plan as one group.
        dead.insert(asg.source);
        let live = live.get_or_insert_with(|| catalog.clone());
        live.set(asg.source, BTreeSet::new(), ItemSet::empty());
        let mut groups: BTreeMap<Vec<usize>, Vec<Item>> = BTreeMap::new();
        for (item, attrs) in undelivered {
            groups.entry(attrs).or_default().push(item);
        }
        for (attrs, items) in groups {
            let set: ItemSet = items.into_iter().collect();
            let sub = plan_fetch(&set, &attrs, live, model, plan.arity, &ItemSet::empty());
            extra_missing.extend(sub.missing);
            queue.extend(sub.assignments);
        }
    }
    // The tail: serve the cached items, assemble records, fold
    // completeness, commit the harvest.
    if !plan.cached.is_empty() && cache.is_none() {
        return Err(FusionError::execution(
            "fetch plan serves cached items but no answer cache was provided",
        ));
    }
    let cached_rows = cache
        .as_ref()
        .map(|c| cached_phase2_rows(c, &plan.cached, schema))
        .unwrap_or_default();
    let (records, missing, cached_served) = assemble(
        schema,
        &plan.attrs,
        &executed,
        &cached_rows,
        &plan.cached,
        &[&plan.missing, &extra_missing],
    );
    if !plan.cached.is_empty() {
        ledger.push(LedgerEntry {
            step,
            kind: StepKind::FetchCached,
            source: None,
            comm: Cost::ZERO,
            proc: Cost::ZERO,
            round_trips: 0,
            items_out: cached_served,
            attempts: 0,
            failed_cost: Cost::ZERO,
        });
    }
    let completeness = if missing.is_empty() {
        Completeness::Exact
    } else {
        Completeness::Subset {
            missing_sources: dead.iter().copied().collect(),
            missing_conditions: Vec::new(),
        }
    };
    if let Some(cache) = cache {
        let failed: Vec<bool> = (0..sources.len())
            .map(|j| dead.contains(&SourceId(j)))
            .collect();
        commit_inserts(
            cache,
            harvest(schema, &executed),
            completeness.is_exact(),
            &failed,
        );
    }
    Ok(Phase2Outcome {
        records,
        ledger,
        completeness,
        missing,
        cached_served,
    })
}

/// Plan → certify → execute, the surface the CLI, the mediator server,
/// and the parity battery share. Items the answer cache can serve are
/// planned at zero cost; with a retry policy execution is fault
/// tolerant and re-plans around dead sources.
///
/// # Errors
/// Fails when the planner emits an uncertifiable plan (a planner bug by
/// construction) or execution fails.
#[allow(clippy::too_many_arguments)]
pub fn fetch_planned(
    answer: &ItemSet,
    attrs: &[usize],
    catalog: &CoverageCatalog,
    model: &NetworkCostModel,
    schema: &Schema,
    sources: &SourceSet,
    network: &mut Network,
    cache: Option<&mut AnswerCache>,
    policy: Option<&RetryPolicy>,
) -> Result<(FetchPlan, FetchCertificate, Phase2Outcome)> {
    let cached: ItemSet = cache.as_ref().map_or_else(ItemSet::empty, |c| {
        cached_phase2_rows(c, answer, schema).into_keys().collect()
    });
    let plan = plan_fetch(answer, attrs, catalog, model, schema.arity(), &cached);
    let cert = certify_fetch_plan(&plan, answer, catalog, model)?;
    let replan = policy.map(|p| (p, catalog, model));
    let outcome = execute_fetch_plan(&plan, schema, sources, network, replan, cache)?;
    Ok((plan, cert, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_phase::fetch_records;
    use fusion_core::query::FusionQuery;
    use fusion_net::{FaultPlan, LinkProfile};
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Relation};

    fn global_rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                tuple![
                    format!("L{i:03}"),
                    if i % 3 == 0 { "dui" } else { "sp" },
                    (1990 + (i % 10)) as i64
                ]
            })
            .collect()
    }

    fn world(
        caps: &[Capabilities],
        slices: &[std::ops::Range<usize>],
    ) -> (SourceSet, Network, Vec<Relation>) {
        let s = dmv_schema();
        let rows = global_rows(40);
        let rels: Vec<Relation> = slices
            .iter()
            .map(|r| Relation::from_rows(s.clone(), rows[r.clone()].to_vec()))
            .collect();
        let sources = SourceSet::new(
            caps.iter()
                .zip(&rels)
                .enumerate()
                .map(|(j, (c, r))| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", j + 1),
                        r.clone(),
                        *c,
                        ProcessingProfile::free(),
                        j as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        );
        let network = Network::uniform(caps.len(), LinkProfile::Wan.link());
        (sources, network, rels)
    }

    fn model_of(sources: &SourceSet, network: &Network) -> NetworkCostModel {
        let q = FusionQuery::new(dmv_schema(), vec![Predicate::eq("V", "dui").into()]).unwrap();
        NetworkCostModel::new(sources, network, &q, None)
    }

    fn answer_of(rels: &[Relation]) -> ItemSet {
        rels.iter()
            .map(Relation::distinct_items)
            .fold(ItemSet::empty(), |a, b| a.union(&b))
    }

    #[test]
    fn planned_full_request_matches_broadcast_byte_for_byte() {
        let caps = [Capabilities::full(), Capabilities::full()];
        let schema = dmv_schema();
        // Overlapping replicas of a consistent world.
        let (sources, mut network, rels) = world(&caps, &[0..30, 10..40]);
        let answer = answer_of(&rels);
        let model = model_of(&sources, &network);
        let catalog = CoverageCatalog::from_relations(&schema, &rels, &[true, true]);
        let (plan, cert, out) = fetch_planned(
            &answer,
            &non_merge_attrs(&schema),
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            None,
            None,
        )
        .unwrap();
        let (bsources, mut bnet, _) = world(&caps, &[0..30, 10..40]);
        let broadcast = fetch_records(&answer, &bsources, &mut bnet).unwrap();
        assert_eq!(out.records, broadcast.records, "byte-identical record sets");
        assert!(out.completeness.is_exact());
        assert!(
            out.total_cost() < broadcast.cost,
            "covering beats broadcast under overlap: {} vs {}",
            out.total_cost(),
            broadcast.cost
        );
        assert!(plan.planned_cost.value() >= cert.lower_bound);
    }

    #[test]
    fn harvest_then_warm_run_serves_from_cache_at_zero_cost() {
        let caps = [Capabilities::full()];
        let schema = dmv_schema();
        let (sources, mut network, rels) = world(&caps, std::slice::from_ref(&(0..40)));
        let answer = answer_of(&rels);
        let model = model_of(&sources, &network);
        let catalog = CoverageCatalog::from_relations(&schema, &rels, &[true]);
        let attrs = non_merge_attrs(&schema);
        let mut cache = AnswerCache::new(1 << 20);
        let (_, _, cold) = fetch_planned(
            &answer,
            &attrs,
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            Some(&mut cache),
            None,
        )
        .unwrap();
        assert!(cold.total_cost() > Cost::ZERO);
        assert_eq!(cold.cached_served, 0);
        let (warm_plan, _, warm) = fetch_planned(
            &answer,
            &attrs,
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            Some(&mut cache),
            None,
        )
        .unwrap();
        assert_eq!(warm_plan.assignments.len(), 0, "everything cached");
        assert_eq!(warm.total_cost(), Cost::ZERO);
        assert_eq!(warm.records, cold.records, "warm/cold byte parity");
        assert_eq!(warm.ledger.count_kind(StepKind::FetchCached), 1);
        assert_eq!(warm.cached_served, warm.records.len());
    }

    #[test]
    fn dead_source_coverage_is_replanned_onto_the_survivor() {
        let caps = [Capabilities::full(), Capabilities::full()];
        let schema = dmv_schema();
        let (sources, mut network, rels) = world(&caps, &[0..40, 0..40]);
        let answer = answer_of(&rels);
        let model = model_of(&sources, &network);
        let catalog = CoverageCatalog::from_relations(&schema, &rels, &[true, true]);
        let attrs = non_merge_attrs(&schema);
        let plan = plan_fetch(
            &answer,
            &attrs,
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        assert_eq!(plan.assignments.len(), 1);
        let victim = plan.assignments[0].source;
        network.set_fault_plan(FaultPlan::none(2).with_outage(victim, 0));
        let policy = RetryPolicy::default();
        let out = execute_fetch_plan(
            &plan,
            &schema,
            &sources,
            &mut network,
            Some((&policy, &catalog, &model)),
            None,
        )
        .unwrap();
        assert!(
            out.completeness.is_exact(),
            "the replica re-covers everything: {:?}",
            out.completeness
        );
        assert!(out.missing.is_empty());
        assert_eq!(out.records.len(), answer.len());
        assert!(
            out.ledger.failed_total() > Cost::ZERO,
            "the outage is billed"
        );
        let survivor = SourceId(1 - victim.0);
        assert!(out
            .ledger
            .entries()
            .iter()
            .any(|e| e.source == Some(survivor) && e.round_trips > 0));
    }

    #[test]
    fn uncoverable_outage_degrades_to_named_subset() {
        let caps = [Capabilities::full(), Capabilities::full()];
        let schema = dmv_schema();
        let (sources, mut network, rels) = world(&caps, &[0..40, 0..40]);
        let answer = answer_of(&rels);
        let model = model_of(&sources, &network);
        // Only R1 can supply D; R2 covers V alone.
        let mut catalog = CoverageCatalog::new(2);
        catalog.set(SourceId(0), [1, 2].into(), answer.clone());
        catalog.set(SourceId(1), [1].into(), answer.clone());
        let plan = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        network.set_fault_plan(FaultPlan::none(2).with_outage(SourceId(0), 0));
        let policy = RetryPolicy::default();
        let out = execute_fetch_plan(
            &plan,
            &schema,
            &sources,
            &mut network,
            Some((&policy, &catalog, &model)),
            None,
        )
        .unwrap();
        match &out.completeness {
            Completeness::Subset {
                missing_sources, ..
            } => assert_eq!(missing_sources, &vec![SourceId(0)]),
            c => panic!("expected subset, got {c}"),
        }
        assert!(!out.missing.is_empty());
        assert!(
            out.missing
                .iter()
                .all(|(_, names)| names.contains(&"D".to_string())),
            "the lost attribute is named"
        );
    }

    #[test]
    fn catalog_overpromise_lands_in_missing_not_records() {
        // The replica assumption promises items R2 does not hold.
        let caps = [Capabilities::full()];
        let schema = dmv_schema();
        let (sources, mut network, rels) = world(&caps, std::slice::from_ref(&(0..20)));
        let model = model_of(&sources, &network);
        let answer = {
            let rows = global_rows(40);
            Relation::from_rows(schema.clone(), rows).distinct_items()
        };
        let catalog = CoverageCatalog::assume_full(&schema, &answer, &[true]);
        let (_, _, out) = fetch_planned(
            &answer,
            &non_merge_attrs(&schema),
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            None,
            None,
        )
        .unwrap();
        assert_eq!(out.records.len(), rels[0].distinct_items().len());
        assert_eq!(out.missing.len(), 20, "unheld items are named, not faked");
        assert!(!out.completeness.is_exact());
    }

    #[test]
    fn projected_fetch_is_cheaper_than_full_rows_for_narrow_requests() {
        let schema = dmv_schema();
        let proj = [Capabilities::full()];
        let (sources, mut network, rels) = world(&proj, std::slice::from_ref(&(0..40)));
        let answer = answer_of(&rels);
        let model = model_of(&sources, &network);
        let catalog = CoverageCatalog::from_relations(&schema, &rels, &[true]);
        let (_, _, narrow) = fetch_planned(
            &answer,
            &[1],
            &catalog,
            &model,
            &schema,
            &sources,
            &mut network,
            None,
            None,
        )
        .unwrap();
        let noproj = [Capabilities::full().with_projection(false)];
        let (fsources, mut fnet, frels) = world(&noproj, std::slice::from_ref(&(0..40)));
        let fmodel = model_of(&fsources, &fnet);
        let fcatalog = CoverageCatalog::from_relations(&schema, &frels, &[true]);
        let (_, _, full) = fetch_planned(
            &answer,
            &[1],
            &fcatalog,
            &fmodel,
            &schema,
            &fsources,
            &mut fnet,
            None,
            None,
        )
        .unwrap();
        assert_eq!(narrow.records, full.records, "same records either way");
        assert!(
            narrow.total_cost() < full.total_cost(),
            "projection trims the response payload"
        );
    }
}
