//! A cost model derived from source statistics, capabilities, and link
//! parameters — the model an actual mediator would run with.

use super::CostModel;
use crate::query::FusionQuery;
use fusion_net::message::ENVELOPE_BYTES;
use fusion_net::{MessageSize, Network};
use fusion_source::{Capabilities, ProcessingProfile, SourceSet};
use fusion_stats::estimate_selectivity;
use fusion_types::{CondId, Cost, Predicate, SourceId};

/// Per-source data the model snapshots at construction time.
#[derive(Debug, Clone)]
struct SourceProfile {
    link: fusion_net::Link,
    caps: Capabilities,
    proc: ProcessingProfile,
    rows: f64,
    avg_item_bytes: f64,
    avg_tuple_bytes: f64,
}

/// Estimates query costs the way a real mediator would: from per-source
/// statistics (selectivity × cardinality), per-source capabilities (§2.3
/// semijoin emulation pricing), and per-source link parameters (§2.4
/// communication pricing).
#[derive(Debug, Clone)]
pub struct NetworkCostModel {
    m: usize,
    sources: Vec<SourceProfile>,
    /// `est[i][j]`: estimated items returned by `sq(c_i, R_j)`.
    est: Vec<Vec<f64>>,
    /// Whether `c_i` is a single comparison an index can serve (affects
    /// the estimated tuples examined at the source).
    index_served: Vec<bool>,
    /// Request bytes of `sq(c_i, ·)`.
    cond_wire: Vec<usize>,
    domain: f64,
}

impl NetworkCostModel {
    /// Builds the model from the live sources, the network, and the query.
    ///
    /// `domain_hint` is the number of distinct items across all sources if
    /// known (e.g. from a catalog); otherwise the model uses the sum of
    /// per-source distinct counts — an upper bound that is exact for
    /// disjoint sources.
    pub fn new(
        sources: &SourceSet,
        network: &Network,
        query: &FusionQuery,
        domain_hint: Option<f64>,
    ) -> NetworkCostModel {
        let m = query.m();
        let mut profiles = Vec::with_capacity(sources.len());
        let mut est = vec![Vec::with_capacity(sources.len()); m];
        for (id, w) in sources.iter() {
            let stats = w.stats();
            profiles.push(SourceProfile {
                link: *network.link(id),
                caps: *w.capabilities(),
                proc: *w.processing(),
                rows: stats.rows as f64,
                avg_item_bytes: stats.avg_item_bytes,
                avg_tuple_bytes: stats.avg_tuple_bytes,
            });
            for (i, cond) in query.conditions().iter().enumerate() {
                let sel = estimate_selectivity(&cond.pred, stats);
                // Result cardinality: qualifying tuples, capped by the
                // distinct items of the source.
                let items = (sel * stats.rows as f64).min(stats.distinct_items as f64);
                est[i].push(items);
            }
        }
        let domain = domain_hint.unwrap_or_else(|| {
            sources
                .iter()
                .map(|(_, w)| w.stats().distinct_items as f64)
                .sum()
        });
        let index_served = query
            .conditions()
            .iter()
            .map(|c| matches!(c.pred, Predicate::Cmp { .. }))
            .collect();
        let cond_wire = query
            .conditions()
            .iter()
            .map(MessageSize::sq_request)
            .collect();
        NetworkCostModel {
            m,
            sources: profiles,
            est,
            index_served,
            cond_wire,
            domain,
        }
    }

    fn profile(&self, source: SourceId) -> &SourceProfile {
        &self.sources[source.0]
    }

    /// The capability record the model snapshotted for `source`.
    pub fn source_capabilities(&self, source: SourceId) -> &Capabilities {
        &self.profile(source).caps
    }

    /// Prices a phase-two fetch assignment at `source`: `k` surviving
    /// M-values shipped in `⌈k / fetch_batch⌉` round trips, each paying
    /// its own envelope, overhead, latency, and per-query fee. The
    /// response ships `attrs + 1` of the schema's `arity` values per
    /// record when the source accepts projection lists, full tuples
    /// otherwise. `Cost::INFINITE` when the source cannot serve record
    /// fetches at all.
    pub fn fetch_cost(&self, source: SourceId, k: usize, attrs: usize, arity: usize) -> Cost {
        let p = self.profile(source);
        if !p.caps.record_fetch {
            return Cost::INFINITE;
        }
        if k == 0 {
            return Cost::ZERO;
        }
        let batches = p.caps.fetch_batches_for(k) as f64;
        let per_value = p.avg_tuple_bytes / arity.max(1) as f64;
        let resp_per_record = if p.caps.projection {
            per_value * (attrs + 1) as f64
        } else {
            p.avg_tuple_bytes
        };
        let req = batches * ENVELOPE_BYTES as f64 + k as f64 * p.avg_item_bytes;
        let resp = batches * ENVELOPE_BYTES as f64 + k as f64 * resp_per_record;
        let comm =
            batches * (p.link.overhead + 2.0 * p.link.latency) + (req + resp) / p.link.bandwidth;
        // Each M-value is probed against the source's merge index, and
        // each matching record is shipped back.
        let work = batches * p.proc.fixed
            + p.proc.per_tuple_examined * k as f64
            + p.proc.per_item_returned * k as f64;
        Cost::new(comm + work + batches * p.caps.query_fee())
    }

    /// Admissible per-(item, attribute) floor of any phase-two fetch at
    /// `source`: the transfer time of one attribute value alone, with
    /// every fixed per-exchange cost (envelope, latency, fee, source
    /// work) dropped. Any feasible assignment that covers the pair at
    /// this source pays at least this much, so summing the per-pair
    /// minimum over sources lower-bounds every covering plan.
    pub fn fetch_attr_floor(&self, source: SourceId, arity: usize) -> f64 {
        let p = self.profile(source);
        if !p.caps.record_fetch {
            return f64::INFINITY;
        }
        (p.avg_tuple_bytes / arity.max(1) as f64) / p.link.bandwidth
    }

    /// Estimated tuples a source examines to answer `sq(c_i, ·)`.
    fn est_examined(&self, cond: CondId, source: SourceId) -> f64 {
        if self.index_served[cond.0] {
            self.est[cond.0][source.0]
        } else {
            self.profile(source).rows
        }
    }
}

impl CostModel for NetworkCostModel {
    fn n_conditions(&self) -> usize {
        self.m
    }

    fn n_sources(&self) -> usize {
        self.sources.len()
    }

    fn sq_cost(&self, cond: CondId, source: SourceId) -> Cost {
        let p = self.profile(source);
        let returned = self.est[cond.0][source.0];
        let req = self.cond_wire[cond.0] as f64;
        let resp = MessageSize::items_response_estimated(returned, p.avg_item_bytes);
        let comm = p.link.overhead + 2.0 * p.link.latency + (req + resp) / p.link.bandwidth;
        let work = p
            .proc
            .cost(self.est_examined(cond, source) as usize, returned as usize);
        Cost::new(comm + work + p.caps.query_fee())
    }

    fn sjq_cost(&self, cond: CondId, source: SourceId, est_items: f64) -> Cost {
        let p = self.profile(source);
        let k = est_items.max(0.0);
        if k == 0.0 {
            // The executor short-circuits a semijoin over ∅ to a free
            // local no-op (no round trip); price it the same way.
            return Cost::ZERO;
        }
        let hit = self.source_sel(cond, source);
        let returned = k * hit;
        if p.caps.native_semijoin {
            let req = self.cond_wire[cond.0] as f64 + k * p.avg_item_bytes;
            let resp = MessageSize::items_response_estimated(returned, p.avg_item_bytes);
            let comm = p.link.overhead + 2.0 * p.link.latency + (req + resp) / p.link.bandwidth;
            // Each binding is probed against the source's merge index.
            let work = p.proc.cost(k as usize, returned as usize);
            return Cost::new(comm + work + p.caps.query_fee());
        }
        if !p.caps.passed_bindings {
            return Cost::INFINITE;
        }
        // Emulation (§2.3): ⌈k / batch⌉ selection round trips, each with
        // its own envelope, condition text, overhead, and latency.
        let batch = p.caps.binding_batch.max(1) as f64;
        let probes = (k / batch).ceil().max(if k > 0.0 { 1.0 } else { 0.0 });
        let req = probes * self.cond_wire[cond.0] as f64 + k * p.avg_item_bytes;
        let resp = probes * ENVELOPE_BYTES as f64 + returned * p.avg_item_bytes;
        let comm =
            probes * (p.link.overhead + 2.0 * p.link.latency) + (req + resp) / p.link.bandwidth;
        let work = probes * p.proc.fixed
            + p.proc.per_tuple_examined * k
            + p.proc.per_item_returned * returned;
        // A paid tier charges per round trip: emulation multiplies the
        // fee by the probe count, which is what shifts SJA away from
        // per-binding emulation at paid sources.
        Cost::new(comm + work + probes * p.caps.query_fee())
    }

    fn sjq_bloom_cost(&self, cond: CondId, source: SourceId, est_items: f64, bits: u8) -> Cost {
        let p = self.profile(source);
        if !p.caps.bloom_semijoin {
            return Cost::INFINITE;
        }
        let k = est_items.max(0.0);
        // Filter bytes: k·bits/8 plus a small header.
        let filter_bytes = 8.0 + (k * bits as f64 / 8.0).max(8.0);
        let req = self.cond_wire[cond.0] as f64 + filter_bytes;
        // The source returns the true matches plus false positives among
        // the rest of its qualifying items.
        let true_matches = k * self.source_sel(cond, source);
        let fpr = fusion_types::bloom::expected_fpr_for_bits(bits as f64);
        let returned = true_matches + fpr * (self.est[cond.0][source.0] - true_matches).max(0.0);
        let resp = MessageSize::items_response_estimated(returned, p.avg_item_bytes);
        let comm = p.link.overhead + 2.0 * p.link.latency + (req + resp) / p.link.bandwidth;
        // The source evaluates the condition, then filters each
        // qualifying item through the Bloom filter.
        let work = p
            .proc
            .cost(self.est_examined(cond, source) as usize, returned as usize);
        Cost::new(comm + work + p.caps.query_fee())
    }

    fn lq_cost(&self, source: SourceId) -> Cost {
        let p = self.profile(source);
        if !p.caps.full_load {
            return Cost::INFINITE;
        }
        let req = MessageSize::lq_request() as f64;
        let resp = ENVELOPE_BYTES as f64 + p.rows * p.avg_tuple_bytes;
        let comm = p.link.overhead + 2.0 * p.link.latency + (req + resp) / p.link.bandwidth;
        let work = p.proc.cost(p.rows as usize, p.rows as usize);
        Cost::new(comm + work + p.caps.query_fee())
    }

    fn est_sq_items(&self, cond: CondId, source: SourceId) -> f64 {
        self.est[cond.0][source.0]
    }

    fn domain_size(&self) -> f64 {
        self.domain
    }

    fn plan_key(&self, words: &mut Vec<u64>) -> bool {
        // Everything is destructured without `..`: a field added later to
        // the model, a link, a capability record or a processing profile
        // fails to compile here rather than silently leaving the key.
        let NetworkCostModel {
            m: _, // the memo keys `n_conditions()` itself
            sources,
            est,
            index_served,
            cond_wire,
            domain,
        } = self;
        words.push(domain.to_bits());
        for source in sources {
            let SourceProfile {
                link,
                caps,
                proc,
                rows,
                avg_item_bytes,
                avg_tuple_bytes,
            } = source;
            let fusion_net::Link {
                latency,
                bandwidth,
                overhead,
            } = link;
            let Capabilities {
                native_semijoin,
                full_load,
                binding_batch,
                passed_bindings,
                bloom_semijoin,
                record_fetch,
                projection,
                fetch_batch,
                fee_millis,
            } = *caps;
            let ProcessingProfile {
                fixed,
                per_tuple_examined,
                per_item_returned,
            } = proc;
            let flags = [
                native_semijoin,
                full_load,
                passed_bindings,
                bloom_semijoin,
                record_fetch,
                projection,
            ];
            let floats = [
                latency,
                bandwidth,
                overhead,
                fixed,
                per_tuple_examined,
                per_item_returned,
                rows,
                avg_item_bytes,
                avg_tuple_bytes,
            ];
            words.push(
                flags
                    .iter()
                    .fold(0, |bits, &flag| bits << 1 | u64::from(flag)),
            );
            words.extend([binding_batch as u64, fetch_batch as u64, fee_millis]);
            words.extend(floats.map(|x| x.to_bits()));
        }
        for ((row, &indexed), &wire) in est.iter().zip(index_served).zip(cond_wire) {
            words.extend(row.iter().map(|x| x.to_bits()));
            words.extend([u64::from(indexed), wire as u64]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_net::LinkProfile;
    use fusion_source::InMemoryWrapper;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Relation};

    fn mk_sources(caps2: Capabilities) -> SourceSet {
        let s = dmv_schema();
        let mk_rows = |offset: usize| -> Vec<fusion_types::Tuple> {
            (0..200)
                .map(|i| {
                    tuple![
                        format!("L{:04}", i + offset),
                        if i % 10 == 0 { "dui" } else { "sp" },
                        (1990 + (i % 10)) as i64
                    ]
                })
                .collect()
        };
        SourceSet::new(vec![
            Box::new(InMemoryWrapper::new(
                "R1",
                Relation::from_rows(s.clone(), mk_rows(0)),
                Capabilities::full(),
                ProcessingProfile::indexed_db(),
                1,
            )),
            Box::new(InMemoryWrapper::new(
                "R2",
                Relation::from_rows(s, mk_rows(100)),
                caps2,
                ProcessingProfile::indexed_db(),
                2,
            )),
        ])
    }

    fn mk_query() -> FusionQuery {
        FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap()
    }

    fn mk_model(caps2: Capabilities) -> NetworkCostModel {
        let sources = mk_sources(caps2);
        let network = Network::uniform(2, LinkProfile::Wan.link());
        NetworkCostModel::new(&sources, &network, &mk_query(), None)
    }

    #[test]
    fn selective_condition_costs_less_to_ship() {
        let m = mk_model(Capabilities::full());
        // c1 (dui, 10%) returns fewer items than c2 (sp, 90%).
        let c_dui = m.sq_cost(CondId(0), SourceId(0));
        let c_sp = m.sq_cost(CondId(1), SourceId(0));
        assert!(c_dui < c_sp, "dui={c_dui} sp={c_sp}");
        assert!(m.est_sq_items(CondId(0), SourceId(0)) < m.est_sq_items(CondId(1), SourceId(0)));
    }

    #[test]
    fn small_semijoin_beats_selection_large_loses() {
        let m = mk_model(Capabilities::full());
        // Shipping 2 bindings for 'sp' is cheaper than fetching ~180 items.
        let sj_small = m.sjq_cost(CondId(1), SourceId(0), 2.0);
        let sel = m.sq_cost(CondId(1), SourceId(0));
        assert!(sj_small < sel, "sj={sj_small} sel={sel}");
        // Shipping 10x the domain is worse than a plain selection.
        let sj_huge = m.sjq_cost(CondId(1), SourceId(0), 4000.0);
        assert!(sj_huge > sel);
    }

    #[test]
    fn emulated_semijoin_costs_more_than_native() {
        let native = mk_model(Capabilities::full());
        let emulated = mk_model(Capabilities::emulated(1));
        let k = 50.0;
        let c_native = native.sjq_cost(CondId(0), SourceId(1), k);
        let c_emulated = emulated.sjq_cost(CondId(0), SourceId(1), k);
        assert!(
            c_emulated > c_native * 5.0,
            "per-binding emulation should be much pricier: {c_emulated} vs {c_native}"
        );
        // Batched emulation sits in between.
        let batched = mk_model(Capabilities::emulated(25));
        let c_batched = batched.sjq_cost(CondId(0), SourceId(1), k);
        assert!(c_native < c_batched && c_batched < c_emulated);
    }

    #[test]
    fn unsupported_operations_are_infinite() {
        let m = mk_model(Capabilities::selection_only());
        assert!(m.sjq_cost(CondId(0), SourceId(1), 10.0).is_infinite());
        assert!(m.lq_cost(SourceId(1)).is_infinite());
        // Selections still work.
        assert!(m.sq_cost(CondId(0), SourceId(1)).is_finite());
    }

    #[test]
    fn sjq_cost_monotone_and_subadditive() {
        for caps in [Capabilities::full(), Capabilities::emulated(10)] {
            let m = mk_model(caps);
            let f = |k: f64| m.sjq_cost(CondId(0), SourceId(1), k);
            let mut prev = f(0.0);
            for k in [1.0, 5.0, 20.0, 100.0, 500.0] {
                let c = f(k);
                assert!(c >= prev, "monotonicity violated at {k}");
                prev = c;
            }
            for (x, y) in [(10.0, 20.0), (1.0, 1.0), (100.0, 300.0)] {
                assert!(
                    f(x + y) <= f(x) + f(y) + Cost::new(1e-9),
                    "sub-additivity violated at {x}+{y}"
                );
            }
        }
    }

    #[test]
    fn lq_scales_with_source_size_and_domain_defaults_to_sum() {
        let m = mk_model(Capabilities::full());
        assert!(m.lq_cost(SourceId(0)).is_finite());
        // Two 200-row sources with distinct items: domain = 400.
        assert_eq!(m.domain_size(), 400.0);
    }

    #[test]
    fn zero_item_semijoin_costs_nothing_extra_under_emulation() {
        let m = mk_model(Capabilities::emulated(10));
        let c = m.sjq_cost(CondId(0), SourceId(1), 0.0);
        // No probes needed: communication cost is zero.
        assert_eq!(c, Cost::ZERO);
    }

    #[test]
    fn query_fee_is_charged_per_round_trip() {
        let free = mk_model(Capabilities::full());
        let paid = mk_model(Capabilities::full().with_fee_millis(3000));
        let j = SourceId(1);
        let dc = paid.sq_cost(CondId(0), j).value() - free.sq_cost(CondId(0), j).value();
        assert!((dc - 3.0).abs() < 1e-9, "sq fee delta {dc}");
        let dn =
            paid.sjq_cost(CondId(0), j, 20.0).value() - free.sjq_cost(CondId(0), j, 20.0).value();
        assert!((dn - 3.0).abs() < 1e-9, "native sjq fee delta {dn}");
        let dl = paid.lq_cost(j).value() - free.lq_cost(j).value();
        assert!((dl - 3.0).abs() < 1e-9, "lq fee delta {dl}");
        // Emulation pays the fee once per probe: 20 bindings at batch 5
        // are 4 probes.
        let free_e = mk_model(Capabilities::emulated(5));
        let paid_e = mk_model(Capabilities::emulated(5).with_fee_millis(3000));
        let de = paid_e.sjq_cost(CondId(0), j, 20.0).value()
            - free_e.sjq_cost(CondId(0), j, 20.0).value();
        assert!((de - 12.0).abs() < 1e-9, "emulated fee delta {de}");
    }

    #[test]
    fn fetch_cost_batches_and_projects() {
        let m = mk_model(Capabilities::full());
        let j = SourceId(1);
        assert_eq!(m.fetch_cost(j, 0, 2, 3), Cost::ZERO);
        // More items cost more; a projection of fewer attributes costs
        // less than the full tuple.
        let narrow = m.fetch_cost(j, 50, 1, 3);
        let wide = m.fetch_cost(j, 50, 2, 3);
        assert!(narrow < wide, "narrow={narrow} wide={wide}");
        assert!(m.fetch_cost(j, 10, 2, 3) < m.fetch_cost(j, 50, 2, 3));
        // A bounded batch splits into extra round trips and costs more.
        let bounded = mk_model(Capabilities::full().with_fetch_batch(10));
        assert!(bounded.fetch_cost(j, 50, 2, 3) > m.fetch_cost(j, 50, 2, 3));
        // No fetch support prices at infinity; no projection support
        // prices the full tuple even for narrow requests.
        let none = mk_model(Capabilities::full().with_fetch(false));
        assert!(none.fetch_cost(j, 10, 2, 3).is_infinite());
        assert!(none.fetch_attr_floor(j, 3).is_infinite());
        let flat = mk_model(Capabilities::full().with_projection(false));
        assert_eq!(flat.fetch_cost(j, 50, 1, 3), flat.fetch_cost(j, 50, 2, 3));
    }

    #[test]
    fn fetch_attr_floor_is_admissible_against_fetch_cost() {
        for caps in [
            Capabilities::full(),
            Capabilities::full()
                .with_fetch_batch(7)
                .with_fee_millis(500),
            Capabilities::full().with_projection(false),
        ] {
            let m = mk_model(caps);
            let j = SourceId(1);
            for k in [1usize, 10, 50] {
                for attrs in [1usize, 2] {
                    let floor = m.fetch_attr_floor(j, 3) * (k * attrs) as f64;
                    let actual = m.fetch_cost(j, k, attrs, 3);
                    assert!(
                        floor <= actual.value() + 1e-12,
                        "floor {floor} exceeds cost {actual} at k={k} attrs={attrs}"
                    );
                }
            }
        }
    }
}
