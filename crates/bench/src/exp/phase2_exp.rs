//! E24: cost-based phase-two retrieval vs the broadcast baseline.
//!
//! One consistent global table is sliced over three sources; the sweep
//! varies how much the slices overlap and how steeply the later
//! sources are priced. At every point four worlds are measured:
//!
//! * **broadcast** — the baseline fetch: every fetch-capable source
//!   ships its rows for the whole answer;
//! * **planned** — the covering planner's fetch: every surviving item
//!   gets every requested attribute from exactly one source, chosen by
//!   greedy weighted set-cover under the network cost model (fees,
//!   bounded fetch batches, projection pushdown included);
//! * **warm** — the same planned fetch re-run against the answer cache
//!   the first run harvested: served entirely locally, zero exchange
//!   cost;
//! * **outage** — the planned fetch with the first source dead from
//!   the start: coverage is re-planned onto survivors, and whatever
//!   only the dead source held degrades to a certified `Subset`
//!   naming the missing attributes.
//!
//! Correctness is asserted at every point: the planned record set is
//! byte-identical to broadcast (consistent replicas, full-attribute
//! request), never costs more, and costs strictly less wherever more
//! than one item is multiply covered; the warm run byte-matches at
//! exactly zero cost. Emits `BENCH_e24.json`.

use crate::json::{write_artifact, Json};
use crate::table::{fmt3, Table};
use fusion_cache::AnswerCache;
use fusion_core::cost::NetworkCostModel;
use fusion_core::phase2::{non_merge_attrs, CoverageCatalog};
use fusion_core::query::FusionQuery;
use fusion_exec::{fetch_planned, fetch_records, RetryPolicy};
use fusion_net::{FaultPlan, LinkProfile, Network};
use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
use fusion_types::schema::dmv_schema;
use fusion_types::{tuple, ItemSet, Relation, SourceId, Tuple};

/// Sources slicing the global table.
const N_SOURCES: usize = 3;

/// Rows in the consistent global table.
const N_ROWS: usize = 60;

/// Overlap fractions swept: how far each slice reaches into its
/// neighbours' territory (0 = exact partition).
pub const OVERLAPS: [f64; 4] = [0.0, 0.3, 0.6, 1.0];

/// Per-query fee steps swept (millicost per fetch exchange, applied to
/// every source after the first — the "later sources are paid" skew).
pub const FEES: [u64; 2] = [0, 250];

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct Phase2Row {
    /// Slice overlap fraction.
    pub overlap: f64,
    /// Fee (millicost/query) on sources after the first.
    pub fee_millis: u64,
    /// Items held by more than one source.
    pub overlap_items: usize,
    /// Broadcast baseline executed cost.
    pub broadcast: f64,
    /// Covering planner executed cost.
    pub planned: f64,
    /// Planner's certified admissible lower bound.
    pub lower_bound: f64,
    /// Planned record set byte-identical to broadcast.
    pub identical: bool,
    /// Warm (cache-served) re-run executed cost.
    pub warm: f64,
    /// Warm record set byte-identical to the cold run.
    pub warm_identical: bool,
    /// Records delivered with source 0 dead from the start.
    pub outage_records: usize,
    /// Items left incomplete by the outage (certified `Subset` size).
    pub outage_missing: usize,
}

fn global_rows() -> Vec<Tuple> {
    (0..N_ROWS)
        .map(|i| {
            tuple![
                format!("L{i:03}"),
                ["dui", "sp", "park"][i % 3],
                (1990 + (i % 10)) as i64
            ]
        })
        .collect()
}

/// Slices the table so adjacent sources share `overlap` of a slice's
/// width, and prices every source after the first at `fee_millis`.
fn world(overlap: f64, fee_millis: u64) -> (Vec<Relation>, SourceSet, Network) {
    let schema = dmv_schema();
    let rows = global_rows();
    let base = N_ROWS / N_SOURCES;
    let len = ((base as f64) * (1.0 + overlap)).round() as usize;
    // Each slice grows symmetrically around its partition cell, so
    // rising overlap reaches into *both* neighbours' territory.
    let extra = len.saturating_sub(base);
    let rels: Vec<Relation> = (0..N_SOURCES)
        .map(|j| {
            let start = (j * base)
                .saturating_sub(extra / 2)
                .min(N_ROWS.saturating_sub(len));
            let end = (start + len).min(N_ROWS);
            Relation::from_rows(schema.clone(), rows[start..end].to_vec())
        })
        .collect();
    let sources = SourceSet::new(
        rels.iter()
            .enumerate()
            .map(|(j, r)| {
                let caps = if j == 0 {
                    Capabilities::full()
                } else {
                    Capabilities::full().with_fee_millis(fee_millis)
                };
                Box::new(InMemoryWrapper::new(
                    format!("R{}", j + 1),
                    r.clone(),
                    caps,
                    ProcessingProfile::free(),
                    j as u64,
                )) as Box<dyn Wrapper>
            })
            .collect(),
    );
    let network = Network::uniform(N_SOURCES, LinkProfile::Wan.link());
    (rels, sources, network)
}

fn answer_of(rels: &[Relation]) -> ItemSet {
    rels.iter()
        .map(Relation::distinct_items)
        .fold(ItemSet::empty(), |a, b| a.union(&b))
}

fn overlap_items(rels: &[Relation]) -> usize {
    let mut seen = std::collections::BTreeMap::new();
    for r in rels {
        for item in &r.distinct_items() {
            *seen.entry(item.clone()).or_insert(0usize) += 1;
        }
    }
    seen.values().filter(|&&c| c > 1).count()
}

fn model_of(sources: &SourceSet, network: &Network) -> NetworkCostModel {
    let q = FusionQuery::new(
        dmv_schema(),
        vec![fusion_types::Predicate::eq("V", "dui").into()],
    )
    .expect("e24 query is well-formed");
    NetworkCostModel::new(sources, network, &q, None)
}

/// Measures one (overlap, fee) sweep point.
fn run_point(overlap: f64, fee_millis: u64) -> Phase2Row {
    let schema = dmv_schema();
    let attrs = non_merge_attrs(&schema);
    let (rels, _, _) = world(overlap, fee_millis);
    let answer = answer_of(&rels);
    let fetchable = vec![true; N_SOURCES];
    let catalog = CoverageCatalog::from_relations(&schema, &rels, &fetchable);

    // Broadcast baseline.
    let (_, bsources, mut bnet) = world(overlap, fee_millis);
    let broadcast = fetch_records(&answer, &bsources, &mut bnet).expect("broadcast fetch");

    // Planned covering fetch, harvesting into a cache.
    let mut cache = AnswerCache::new(1 << 22);
    let (_, psources, mut pnet) = world(overlap, fee_millis);
    let model = model_of(&psources, &pnet);
    let (plan, cert, cold) = fetch_planned(
        &answer,
        &attrs,
        &catalog,
        &model,
        &schema,
        &psources,
        &mut pnet,
        Some(&mut cache),
        None,
    )
    .expect("planned fetch");
    assert!(cold.completeness.is_exact(), "planned fetch must be exact");
    let _ = plan;

    // Warm re-run against the harvested cache.
    let (_, wsources, mut wnet) = world(overlap, fee_millis);
    let wmodel = model_of(&wsources, &wnet);
    let (_, _, warm) = fetch_planned(
        &answer,
        &attrs,
        &catalog,
        &wmodel,
        &schema,
        &wsources,
        &mut wnet,
        Some(&mut cache),
        None,
    )
    .expect("warm fetch");

    // Outage: source 0 dead from the first attempt.
    let (_, osources, mut onet) = world(overlap, fee_millis);
    onet.set_fault_plan(FaultPlan::none(N_SOURCES).with_outage(SourceId(0), 0));
    let omodel = model_of(&osources, &onet);
    let policy = RetryPolicy::default();
    let (_, _, out) = fetch_planned(
        &answer,
        &attrs,
        &catalog,
        &omodel,
        &schema,
        &osources,
        &mut onet,
        None,
        Some(&policy),
    )
    .expect("outage fetch");

    Phase2Row {
        overlap,
        fee_millis,
        overlap_items: overlap_items(&rels),
        broadcast: broadcast.cost.value(),
        planned: cold.total_cost().value(),
        lower_bound: cert.lower_bound,
        identical: cold.records == broadcast.records,
        warm: warm.total_cost().value(),
        warm_identical: warm.records == cold.records,
        outage_records: out.records.len(),
        outage_missing: out.missing.len(),
    }
}

/// The full sweep, fee-major then overlap.
pub fn sweep() -> Vec<Phase2Row> {
    let mut rows = Vec::new();
    for &fee in &FEES {
        for &overlap in &OVERLAPS {
            rows.push(run_point(overlap, fee));
        }
    }
    rows
}

fn row_json(r: &Phase2Row) -> Json {
    Json::obj([
        ("overlap", Json::Num(r.overlap)),
        ("fee_millis", Json::Int(r.fee_millis as i64)),
        ("overlap_items", Json::Int(r.overlap_items as i64)),
        ("broadcast_cost", Json::Num(r.broadcast)),
        ("planned_cost", Json::Num(r.planned)),
        ("lower_bound", Json::Num(r.lower_bound)),
        ("identical", Json::Bool(r.identical)),
        ("warm_cost", Json::Num(r.warm)),
        ("warm_identical", Json::Bool(r.warm_identical)),
        ("outage_records", Json::Int(r.outage_records as i64)),
        ("outage_missing", Json::Int(r.outage_missing as i64)),
    ])
}

fn artifact(rows: &[Phase2Row]) -> Json {
    Json::obj([
        ("experiment", Json::Str("e24-phase2".into())),
        ("n_sources", Json::Int(N_SOURCES as i64)),
        ("n_rows", Json::Int(N_ROWS as i64)),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
    ])
}

/// E24: covering-planner phase-two fetch vs broadcast, over an
/// overlap × pricing sweep with warm-cache and outage columns. Emits
/// `BENCH_e24.json`.
pub fn e24_phase2() {
    let rows = sweep();
    let mut t = Table::new(
        "E24: phase-two covering planner vs broadcast fetch".to_string(),
        &[
            "overlap",
            "fee",
            "multi-items",
            "broadcast",
            "planned",
            "bound",
            "warm",
            "outage miss",
        ],
    );
    for r in &rows {
        t.row(vec![
            format!("{:.1}", r.overlap),
            r.fee_millis.to_string(),
            r.overlap_items.to_string(),
            fmt3(r.broadcast),
            fmt3(r.planned),
            fmt3(r.lower_bound),
            fmt3(r.warm),
            r.outage_missing.to_string(),
        ]);
    }
    t.print();
    println!(
        "every planned record set byte-compared against broadcast; warm \
         re-runs byte-compared against cold at zero exchange cost; outage \
         runs certified Subset with named missing attributes"
    );
    let path = write_artifact("BENCH_e24.json", &artifact(&rows)).expect("write BENCH_e24");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: byte-identical record sets at every
    /// sweep point, planned never above broadcast, and strictly below
    /// wherever more than one item is multiply covered.
    #[test]
    fn planned_beats_broadcast_at_every_overlapping_sweep_point() {
        for r in sweep() {
            assert!(r.identical, "record sets diverged at {r:?}");
            assert!(
                r.planned <= r.broadcast + 1e-9,
                "planned above broadcast at {r:?}"
            );
            if r.overlap_items > 1 {
                assert!(r.planned < r.broadcast, "no strict win at {r:?}");
            }
            assert!(r.planned + 1e-9 >= r.lower_bound, "bound violated at {r:?}");
        }
    }

    /// Warm re-runs serve every record from the harvested cache at
    /// exactly zero cost, byte-identically.
    #[test]
    fn warm_reruns_are_free_and_identical() {
        for r in sweep() {
            assert!(r.warm_identical, "warm bytes diverged at {r:?}");
            assert_eq!(r.warm, 0.0, "warm run paid for exchanges at {r:?}");
        }
    }

    /// Killing source 0 leaves its exclusive slice uncoverable exactly
    /// when slices don't fully overlap; everything else still arrives.
    #[test]
    fn outage_missing_shrinks_as_overlap_grows() {
        let rows = sweep();
        let at = |overlap: f64| {
            rows.iter()
                .find(|r| r.fee_millis == 0 && (r.overlap - overlap).abs() < 1e-9)
                .expect("sweep point present")
                .outage_missing
        };
        assert!(at(0.0) > 0, "partitioned world must lose source 0's slice");
        assert!(
            at(1.0) < at(0.0),
            "full overlap must recover more coverage than none"
        );
    }
}
