//! Phase-two retrieval planning: covering assignments for non-merge
//! attributes.
//!
//! The paper defers "two-phase retrieval of non-merge attributes" to
//! future work: after the M-value fusion converges, the mediator knows
//! *which* items survive but not their full records, and "we do not pay
//! the price of fetching full records until we know which ones are
//! needed". This module plans that second phase over genuinely
//! heterogeneous sources:
//!
//! - a [`CoverageCatalog`] declares, per source, which non-merge
//!   attributes the source can supply and for which items;
//! - [`plan_fetch`] computes the cheapest covering assignment — every
//!   surviving item gets every requested attribute from exactly one
//!   source — by greedy weighted set cover over the (item, attribute)
//!   universe, priced by `NetworkCostModel::fetch_cost` (batched round
//!   trips, projection support, paid-per-query fees);
//! - every plan carries an admissible lower bound
//!   (`NetworkCostModel::fetch_attr_floor`, SPJU-style payload size
//!   reasoning: any covering plan must at least ship each assigned
//!   attribute value once), and [`certify_fetch_plan`] checks the
//!   partition discipline, batch bounds, and the bound itself;
//! - [`redundant_fetch_findings`] lints plans whose items are split
//!   across sources when a single source covers everything they need.
//!
//! Items already resident in the answer cache are priced at zero and
//! excluded from the universe; the runtime serves them without an
//! exchange.

use std::collections::BTreeSet;

use crate::analyze::{Diagnostic, Severity};
use crate::cost::NetworkCostModel;
use fusion_types::error::{FusionError, Result};
use fusion_types::{Cost, Item, ItemSet, Relation, Schema, SourceId};

/// What one source can supply in phase two: a set of non-merge
/// attribute indexes and the items it holds. An empty entry means the
/// source cannot participate (no fetch support, or simply no data).
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceCoverage {
    /// Non-merge schema indexes the source can supply.
    pub attrs: BTreeSet<usize>,
    /// Items the source holds records for.
    pub items: ItemSet,
}

/// Per-source attribute coverage, the planner's map of the federation.
///
/// Builders drop sources whose capabilities cannot serve fetches, so an
/// entry in the catalog is a source the runtime may actually dispatch
/// to.
#[derive(Debug, Clone)]
pub struct CoverageCatalog {
    entries: Vec<SourceCoverage>,
}

/// The non-merge attribute indexes of a schema, ascending.
pub fn non_merge_attrs(schema: &Schema) -> Vec<usize> {
    (0..schema.arity())
        .filter(|&a| a != schema.merge_index())
        .collect()
}

impl CoverageCatalog {
    /// An empty catalog over `n_sources` sources (no coverage anywhere).
    pub fn new(n_sources: usize) -> CoverageCatalog {
        CoverageCatalog {
            entries: vec![SourceCoverage::default(); n_sources],
        }
    }

    /// Exact coverage from ground-truth relations: source `j` covers
    /// every non-merge attribute for exactly the items it holds.
    /// Sources whose `fetchable[j]` is false get no coverage.
    pub fn from_relations(
        schema: &Schema,
        relations: &[Relation],
        fetchable: &[bool],
    ) -> CoverageCatalog {
        let all: BTreeSet<usize> = non_merge_attrs(schema).into_iter().collect();
        CoverageCatalog {
            entries: relations
                .iter()
                .enumerate()
                .map(|(j, r)| {
                    if fetchable.get(j).copied().unwrap_or(false) {
                        SourceCoverage {
                            attrs: all.clone(),
                            items: r.distinct_items(),
                        }
                    } else {
                        SourceCoverage::default()
                    }
                })
                .collect(),
        }
    }

    /// Replica assumption: every fetchable source covers every
    /// non-merge attribute for every item in `universe`. The mediator
    /// server uses this when it has no per-source ground truth; a
    /// source that turns out not to hold an item simply returns no row
    /// for it.
    pub fn assume_full(schema: &Schema, universe: &ItemSet, fetchable: &[bool]) -> CoverageCatalog {
        let all: BTreeSet<usize> = non_merge_attrs(schema).into_iter().collect();
        CoverageCatalog {
            entries: fetchable
                .iter()
                .map(|&f| {
                    if f {
                        SourceCoverage {
                            attrs: all.clone(),
                            items: universe.clone(),
                        }
                    } else {
                        SourceCoverage::default()
                    }
                })
                .collect(),
        }
    }

    /// Overrides one source's coverage (heterogeneity axes for tests,
    /// benchmarks, and scenario builders).
    pub fn set(&mut self, source: SourceId, attrs: BTreeSet<usize>, items: ItemSet) {
        self.entries[source.0] = SourceCoverage { attrs, items };
    }

    /// Number of sources the catalog describes.
    pub(crate) fn n_sources(&self) -> usize {
        self.entries.len()
    }

    /// The coverage entry of `source`.
    pub(crate) fn entry(&self, source: SourceId) -> &SourceCoverage {
        &self.entries[source.0]
    }

    /// Whether `source` can supply attribute `attr` for `item`.
    pub(crate) fn covers(&self, source: SourceId, item: &Item, attr: usize) -> bool {
        let e = &self.entries[source.0];
        e.attrs.contains(&attr) && e.items.contains(item)
    }
}

/// One batched per-source fetch exchange group of a [`FetchPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FetchAssignment {
    /// The source to fetch from.
    pub source: SourceId,
    /// The M-values shipped to the source.
    pub items: ItemSet,
    /// The projection list (non-merge schema indexes, ascending) the
    /// exchange requests; the merge attribute rides along implicitly.
    pub attrs: Vec<usize>,
    /// Exact coverage responsibility: for each item, the attributes
    /// *this* assignment supplies in the assembled record, sorted by
    /// item. A superset of nothing: the union over assignments
    /// partitions the (item, attribute) universe.
    pub covers: Vec<(Item, Vec<usize>)>,
    /// Round trips (`⌈|items| / fetch_batch⌉`).
    pub batches: usize,
    /// The cost model's price for this exchange group.
    pub est_cost: Cost,
}

/// A phase-two retrieval plan: batched per-source fetch exchanges that
/// cover every surviving (item, attribute) pair exactly once, plus the
/// items the cache already covers and the pairs nothing can supply.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPlan {
    /// Requested non-merge attribute indexes, ascending.
    pub attrs: Vec<usize>,
    /// Schema arity the payloads were priced against.
    pub arity: usize,
    /// Items served from the answer cache at zero exchange cost.
    pub cached: ItemSet,
    /// The covering assignment, in the order the greedy chose it.
    pub assignments: Vec<FetchAssignment>,
    /// (item, attributes) pairs no fetchable source covers; executing
    /// the plan yields a `Subset`-complete record set naming these.
    pub missing: Vec<(Item, Vec<usize>)>,
    /// Total estimated cost of all assignments.
    pub planned_cost: Cost,
    /// Admissible lower bound on *any* covering plan's cost (cached
    /// items contribute zero).
    pub lower_bound: f64,
}

/// Plans the cheapest covering assignment for `answer`: every item not
/// in `cached` gets every attribute in `attrs` from exactly one source,
/// chosen by greedy weighted set cover (cost per newly covered pair,
/// ties to the lower source id). `attrs` are non-merge schema indexes;
/// `arity` is the schema arity the cost model prices payloads against.
///
/// Pairs no fetchable source covers land in [`FetchPlan::missing`]
/// instead of failing the plan: phase two degrades to a sound subset
/// exactly like phase one does under dead sources.
pub fn plan_fetch(
    answer: &ItemSet,
    attrs: &[usize],
    catalog: &CoverageCatalog,
    model: &NetworkCostModel,
    arity: usize,
    cached: &ItemSet,
) -> FetchPlan {
    let mut req: Vec<usize> = attrs.to_vec();
    req.sort_unstable();
    req.dedup();
    let cached_covered = answer.intersect(cached);
    let work: Vec<Item> = answer.difference(&cached_covered).iter().cloned().collect();
    let n = catalog.n_sources();
    let usable: Vec<bool> = (0..n)
        .map(|j| model.fetch_attr_floor(SourceId(j), arity).is_finite())
        .collect();

    // Split the universe into coverable pairs (the greedy's input) and
    // missing pairs, and price the admissible floor of the former.
    let mut remaining: Vec<BTreeSet<usize>> = Vec::with_capacity(work.len());
    let mut missing: Vec<(Item, Vec<usize>)> = Vec::new();
    let mut lower_bound = 0.0;
    for item in &work {
        let mut have = BTreeSet::new();
        let mut miss = Vec::new();
        for &a in &req {
            let floor = (0..n)
                .filter(|&j| usable[j] && catalog.covers(SourceId(j), item, a))
                .map(|j| model.fetch_attr_floor(SourceId(j), arity))
                .fold(f64::INFINITY, f64::min);
            if floor.is_finite() {
                have.insert(a);
                lower_bound += floor;
            } else {
                miss.push(a);
            }
        }
        if !miss.is_empty() {
            missing.push((item.clone(), miss));
        }
        remaining.push(have);
    }

    let mut assignments = Vec::new();
    let mut planned_cost = Cost::ZERO;
    loop {
        // Score every source by cost per newly covered (item, attr).
        let mut best: Option<(f64, usize)> = None;
        for (j, &ok) in usable.iter().enumerate().take(n) {
            if !ok {
                continue;
            }
            let cov = catalog.entry(SourceId(j));
            let mut gain = 0usize;
            let mut k = 0usize;
            let mut union: BTreeSet<usize> = BTreeSet::new();
            for (idx, item) in work.iter().enumerate() {
                if remaining[idx].is_empty() || !cov.items.contains(item) {
                    continue;
                }
                let need: Vec<usize> = remaining[idx]
                    .iter()
                    .filter(|a| cov.attrs.contains(a))
                    .copied()
                    .collect();
                if !need.is_empty() {
                    gain += need.len();
                    k += 1;
                    union.extend(need);
                }
            }
            if gain == 0 {
                continue;
            }
            let cost = model.fetch_cost(SourceId(j), k, union.len(), arity);
            let ratio = cost.value() / gain as f64;
            if best.is_none_or(|(r, _)| ratio < r) {
                best = Some((ratio, j));
            }
        }
        let Some((_, j)) = best else { break };

        // Commit the winner: exact per-item responsibility, then remove
        // the covered pairs from the universe.
        let cov = catalog.entry(SourceId(j));
        let mut covers: Vec<(Item, Vec<usize>)> = Vec::new();
        let mut union: BTreeSet<usize> = BTreeSet::new();
        for (idx, item) in work.iter().enumerate() {
            if remaining[idx].is_empty() || !cov.items.contains(item) {
                continue;
            }
            let need: Vec<usize> = remaining[idx]
                .iter()
                .filter(|a| cov.attrs.contains(a))
                .copied()
                .collect();
            if need.is_empty() {
                continue;
            }
            for a in &need {
                remaining[idx].remove(a);
            }
            union.extend(need.iter().copied());
            covers.push((item.clone(), need));
        }
        let items: ItemSet = covers.iter().map(|(i, _)| i.clone()).collect();
        let caps = model.source_capabilities(SourceId(j));
        let est_cost = model.fetch_cost(SourceId(j), items.len(), union.len(), arity);
        planned_cost += est_cost;
        assignments.push(FetchAssignment {
            source: SourceId(j),
            items: items.clone(),
            attrs: union.into_iter().collect(),
            covers,
            batches: caps.fetch_batches_for(items.len()),
            est_cost,
        });
    }

    FetchPlan {
        attrs: req,
        arity,
        cached: cached_covered,
        assignments,
        missing,
        planned_cost,
        lower_bound,
    }
}

/// A verified phase-two plan certificate: the covering assignment
/// partitions the universe, respects the catalog and the batch bounds,
/// and its price dominates the admissible lower bound.
#[derive(Debug, Clone, Copy)]
pub struct FetchCertificate {
    /// (item, attribute) pairs covered by assignments.
    pub pairs_covered: usize,
    /// Number of fetch exchange groups.
    pub n_assignments: usize,
    /// Total round trips over all assignments.
    pub round_trips: usize,
    /// The plan's admissible lower bound.
    pub lower_bound: f64,
    /// The plan's estimated cost.
    pub planned: Cost,
}

/// Checks a [`FetchPlan`] against its inputs.
///
/// # Errors
/// Fails when any (item, attribute) pair of `answer` (outside the
/// cached set) is covered zero or multiple times, when an assignment
/// claims coverage its catalog entry cannot supply, when a batch count
/// disagrees with the source's `fetch_batch` bound, or when the planned
/// cost undercuts the admissible lower bound.
pub fn certify_fetch_plan(
    plan: &FetchPlan,
    answer: &ItemSet,
    catalog: &CoverageCatalog,
    model: &NetworkCostModel,
) -> Result<FetchCertificate> {
    let mut covered: std::collections::BTreeMap<(Item, usize), usize> =
        std::collections::BTreeMap::new();
    let mut round_trips = 0usize;
    for (t, asg) in plan.assignments.iter().enumerate() {
        let caps = model.source_capabilities(asg.source);
        if !caps.record_fetch {
            return Err(FusionError::execution(format!(
                "fetch plan assignment {} targets source R{} which cannot serve fetches",
                t + 1,
                asg.source.0 + 1
            )));
        }
        if asg.batches != caps.fetch_batches_for(asg.items.len()) {
            return Err(FusionError::execution(format!(
                "fetch plan assignment {} claims {} batches for {} items (bound {})",
                t + 1,
                asg.batches,
                asg.items.len(),
                caps.fetch_batch
            )));
        }
        round_trips += asg.batches;
        for (item, attrs) in &asg.covers {
            if !asg.items.contains(item) {
                return Err(FusionError::execution(format!(
                    "fetch plan assignment {} covers {item} without requesting it",
                    t + 1
                )));
            }
            for &a in attrs {
                if !catalog.covers(asg.source, item, a) {
                    return Err(FusionError::execution(format!(
                        "fetch plan assignment {} claims attribute {a} of {item} \
                         beyond source R{}'s coverage",
                        t + 1,
                        asg.source.0 + 1
                    )));
                }
                *covered.entry((item.clone(), a)).or_insert(0) += 1;
            }
        }
    }
    for ((item, a), count) in &covered {
        if *count != 1 {
            return Err(FusionError::execution(format!(
                "fetch plan covers attribute {a} of {item} {count} times"
            )));
        }
    }
    let missing: std::collections::BTreeSet<(Item, usize)> = plan
        .missing
        .iter()
        .flat_map(|(i, attrs)| attrs.iter().map(move |&a| (i.clone(), a)))
        .collect();
    for item in answer {
        if plan.cached.contains(item) {
            continue;
        }
        for &a in &plan.attrs {
            let key = (item.clone(), a);
            if missing.contains(&key) {
                continue;
            }
            if !covered.contains_key(&key) {
                return Err(FusionError::execution(format!(
                    "fetch plan leaves attribute {a} of {item} uncovered and unreported"
                )));
            }
        }
    }
    if plan.planned_cost.value() + 1e-9 < plan.lower_bound {
        return Err(FusionError::execution(format!(
            "fetch plan cost {} undercuts its admissible lower bound {}",
            plan.planned_cost, plan.lower_bound
        )));
    }
    Ok(FetchCertificate {
        pairs_covered: covered.len(),
        n_assignments: plan.assignments.len(),
        round_trips,
        lower_bound: plan.lower_bound,
        planned: plan.planned_cost,
    })
}

/// Lints a [`FetchPlan`] for redundant split fetches: an item whose
/// attributes are supplied by two or more sources when a single one of
/// the involved sources covers every attribute the item needs. The
/// greedy can produce such splits when batching economics favor them,
/// so the finding is a warning, not an error. `step` is the 1-based
/// index of the *second* assignment touching the item.
pub fn redundant_fetch_findings(plan: &FetchPlan, catalog: &CoverageCatalog) -> Vec<Diagnostic> {
    let mut per_item: std::collections::BTreeMap<&Item, Vec<(usize, &FetchAssignment)>> =
        std::collections::BTreeMap::new();
    for (t, asg) in plan.assignments.iter().enumerate() {
        for (item, _) in &asg.covers {
            per_item.entry(item).or_default().push((t, asg));
        }
    }
    let mut out = Vec::new();
    for (item, touched) in per_item {
        if touched.len() < 2 {
            continue;
        }
        let all_attrs: BTreeSet<usize> = touched
            .iter()
            .flat_map(|(_, asg)| {
                asg.covers
                    .iter()
                    .find(|(i, _)| i == item)
                    .map(|(_, attrs)| attrs.clone())
                    .unwrap_or_default()
            })
            .collect();
        let full_cover = touched.iter().find(|(_, asg)| {
            let e = catalog.entry(asg.source);
            e.items.contains(item) && all_attrs.iter().all(|a| e.attrs.contains(a))
        });
        if let Some((_, winner)) = full_cover {
            let second = touched[1].0;
            out.push(Diagnostic {
                rule: "redundant-phase2-fetch",
                severity: Severity::Warning,
                step: second + 1,
                message: format!(
                    "item {item} is fetched from {} sources but R{} covers all \
                     of its requested attributes alone",
                    touched.len(),
                    winner.source.0 + 1
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::FusionQuery;
    use fusion_net::{LinkProfile, Network};
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Predicate, Tuple};

    /// A consistent replicated world: one global relation, each source
    /// holding a slice of its rows.
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

    fn world(caps: &[Capabilities], slices: &[std::ops::Range<usize>]) -> (SourceSet, Network) {
        let s = dmv_schema();
        let rows = global_rows(40);
        let sources = SourceSet::new(
            caps.iter()
                .zip(slices)
                .enumerate()
                .map(|(j, (c, r))| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", j + 1),
                        Relation::from_rows(s.clone(), rows[r.clone()].to_vec()),
                        *c,
                        ProcessingProfile::free(),
                        j as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        );
        let network = Network::uniform(caps.len(), LinkProfile::Wan.link());
        (sources, network)
    }

    fn model_of(sources: &SourceSet, network: &Network) -> NetworkCostModel {
        let q = FusionQuery::new(dmv_schema(), vec![Predicate::eq("V", "dui").into()]).unwrap();
        NetworkCostModel::new(sources, network, &q, None)
    }

    fn relations(sources: &SourceSet) -> Vec<Relation> {
        // Rebuild the ground truth the same way `world` sliced it.
        let s = dmv_schema();
        let rows = global_rows(40);
        let n = sources.len();
        let per = 40 / n;
        (0..n)
            .map(|j| Relation::from_rows(s.clone(), rows[j * per..(j + 1) * per].to_vec()))
            .collect()
    }

    fn answer_of(rels: &[Relation]) -> ItemSet {
        rels.iter()
            .map(Relation::distinct_items)
            .fold(ItemSet::empty(), |a, b| a.union(&b))
    }

    #[test]
    fn full_overlap_plans_one_source_and_certifies() {
        let caps = [Capabilities::full(), Capabilities::full()];
        let (sources, network) = world(&caps, &[0..40, 0..40]);
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rows = global_rows(40);
        let rel = Relation::from_rows(schema.clone(), rows);
        let answer = rel.distinct_items();
        let catalog = CoverageCatalog::from_relations(&schema, &[rel.clone(), rel], &[true, true]);
        let plan = plan_fetch(
            &answer,
            &non_merge_attrs(&schema),
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        assert!(plan.missing.is_empty());
        assert_eq!(plan.assignments.len(), 1, "one replica suffices");
        let cert = certify_fetch_plan(&plan, &answer, &catalog, &model).unwrap();
        assert_eq!(cert.pairs_covered, answer.len() * 2);
        assert!(plan.planned_cost.value() >= plan.lower_bound);
        assert!(redundant_fetch_findings(&plan, &catalog).is_empty());
    }

    #[test]
    fn disjoint_attribute_coverage_splits_and_partitions() {
        let caps = [Capabilities::full(), Capabilities::full()];
        let (sources, network) = world(&caps, &[0..40, 0..40]);
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rows = global_rows(40);
        let rel = Relation::from_rows(schema.clone(), rows);
        let answer = rel.distinct_items();
        let mut catalog = CoverageCatalog::new(2);
        catalog.set(SourceId(0), [1].into(), answer.clone());
        catalog.set(SourceId(1), [2].into(), answer.clone());
        let plan = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        assert!(plan.missing.is_empty());
        assert_eq!(plan.assignments.len(), 2);
        certify_fetch_plan(&plan, &answer, &catalog, &model).unwrap();
        // No single source covers both attributes: the split is forced,
        // not redundant.
        assert!(redundant_fetch_findings(&plan, &catalog).is_empty());
    }

    #[test]
    fn uncoverable_attributes_are_named_missing() {
        let caps = [Capabilities::full()];
        let (sources, network) = world(&caps, std::slice::from_ref(&(0..40)));
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rel = Relation::from_rows(schema.clone(), global_rows(40));
        let answer = rel.distinct_items();
        let mut catalog = CoverageCatalog::new(1);
        catalog.set(SourceId(0), [1].into(), answer.clone());
        let plan = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        assert!(!plan.missing.is_empty());
        assert_eq!(plan.missing.len(), answer.len());
        assert!(plan.missing.iter().all(|(_, a)| a == &vec![2]));
        certify_fetch_plan(&plan, &answer, &catalog, &model).unwrap();
    }

    #[test]
    fn cached_items_are_excluded_and_priced_zero() {
        let caps = [Capabilities::full()];
        let (sources, network) = world(&caps, std::slice::from_ref(&(0..40)));
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rel = Relation::from_rows(schema.clone(), global_rows(40));
        let answer = rel.distinct_items();
        let catalog = CoverageCatalog::from_relations(&schema, &[rel], &[true]);
        let cached: ItemSet = answer.iter().take(20).cloned().collect();
        let cold = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        let warm = plan_fetch(&answer, &[1, 2], &catalog, &model, schema.arity(), &cached);
        assert_eq!(warm.cached.len(), 20);
        assert!(warm.planned_cost < cold.planned_cost);
        assert!(warm.lower_bound < cold.lower_bound);
        certify_fetch_plan(&warm, &answer, &catalog, &model).unwrap();
    }

    #[test]
    fn paid_tier_shifts_the_covering_choice() {
        let paid = Capabilities::full().with_fee_millis(50_000);
        let caps = [paid, Capabilities::full()];
        let (sources, network) = world(&caps, &[0..40, 0..40]);
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rel = Relation::from_rows(schema.clone(), global_rows(40));
        let answer = rel.distinct_items();
        let catalog = CoverageCatalog::from_relations(&schema, &[rel.clone(), rel], &[true, true]);
        let plan = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(
            plan.assignments[0].source,
            SourceId(1),
            "the free tier must win"
        );
    }

    #[test]
    fn redundant_split_mutant_is_flagged() {
        let caps = [Capabilities::full(), Capabilities::full()];
        let (sources, network) = world(&caps, &[0..40, 0..40]);
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rel = Relation::from_rows(schema.clone(), global_rows(40));
        let answer = rel.distinct_items();
        let catalog = CoverageCatalog::from_relations(&schema, &[rel.clone(), rel], &[true, true]);
        let sane = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        assert!(redundant_fetch_findings(&sane, &catalog).is_empty());
        // Mutant: split one item's two attributes across both replicas
        // even though either covers both.
        let item = answer.iter().next().unwrap().clone();
        let one: ItemSet = [item.clone()].into_iter().collect();
        let mutant = FetchPlan {
            attrs: vec![1, 2],
            arity: 3,
            cached: ItemSet::empty(),
            assignments: vec![
                FetchAssignment {
                    source: SourceId(0),
                    items: one.clone(),
                    attrs: vec![1],
                    covers: vec![(item.clone(), vec![1])],
                    batches: 1,
                    est_cost: Cost::new(1.0),
                },
                FetchAssignment {
                    source: SourceId(1),
                    items: one,
                    attrs: vec![2],
                    covers: vec![(item, vec![2])],
                    batches: 1,
                    est_cost: Cost::new(1.0),
                },
            ],
            missing: Vec::new(),
            planned_cost: Cost::new(2.0),
            lower_bound: 0.0,
        };
        let findings = redundant_fetch_findings(&mutant, &catalog);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "redundant-phase2-fetch");
    }

    #[test]
    fn double_coverage_mutant_fails_certification() {
        let caps = [Capabilities::full(), Capabilities::full()];
        let (sources, network) = world(&caps, &[0..20, 20..40]);
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rels = relations(&sources);
        let answer = answer_of(&rels);
        let catalog = CoverageCatalog::from_relations(&schema, &rels, &[true, true]);
        let mut plan = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        certify_fetch_plan(&plan, &answer, &catalog, &model).unwrap();
        // Mutant: duplicate the first assignment — every pair it covers
        // is now covered twice.
        let dup = plan.assignments[0].clone();
        plan.assignments.push(dup);
        let err = certify_fetch_plan(&plan, &answer, &catalog, &model).unwrap_err();
        assert!(err.to_string().contains("times"), "{err}");
    }

    #[test]
    fn undercut_lower_bound_mutant_fails_certification() {
        let caps = [Capabilities::full()];
        let (sources, network) = world(&caps, std::slice::from_ref(&(0..40)));
        let model = model_of(&sources, &network);
        let schema = dmv_schema();
        let rel = Relation::from_rows(schema.clone(), global_rows(40));
        let answer = rel.distinct_items();
        let catalog = CoverageCatalog::from_relations(&schema, &[rel], &[true]);
        let mut plan = plan_fetch(
            &answer,
            &[1, 2],
            &catalog,
            &model,
            schema.arity(),
            &ItemSet::empty(),
        );
        plan.lower_bound = plan.planned_cost.value() * 2.0;
        assert!(certify_fetch_plan(&plan, &answer, &catalog, &model).is_err());
    }
}
