//! The wrapper interface the mediator talks to.

use crate::capability::{Capabilities, ProcessingProfile};
use crate::engine::SourceEngine;
use fusion_stats::TableStats;
use fusion_types::error::{FusionError, Result};
use fusion_types::{Condition, ItemSet, Relation, SharedRecords, Tuple};

/// A wrapper's answer: the payload plus how much work producing it took.
#[derive(Debug, Clone, PartialEq)]
pub struct WrapperResponse<T> {
    /// The query result.
    pub payload: T,
    /// Tuples the source engine examined (drives processing cost).
    pub tuples_examined: usize,
}

/// The operations a wrapper exports to the mediator (§2.1).
///
/// Implementations must respect their advertised [`Capabilities`]: calling
/// an unsupported operation is an error, mirroring the paper's treatment of
/// unsupported queries as infinitely expensive.
///
/// Wrappers are `Send + Sync`: the parallel executor issues queries to
/// different sources from worker threads through a shared
/// [`crate::SourceSet`]. Every operation already takes `&self`, so a
/// wrapper without interior mutability satisfies the bounds for free.
pub trait Wrapper: Send + Sync {
    /// Human-readable source name.
    fn name(&self) -> &str;

    /// What this source can do.
    fn capabilities(&self) -> &Capabilities;

    /// What this source's work costs.
    fn processing(&self) -> &ProcessingProfile;

    /// Statistics describing the exported relation.
    fn stats(&self) -> &TableStats;

    /// The common schema the wrapper exports (§2.1).
    fn schema(&self) -> &fusion_types::Schema;

    /// Selection query `sq(c, R)`.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    fn select(&self, cond: &Condition) -> Result<WrapperResponse<ItemSet>>;

    /// Native semijoin query `sjq(c, R, bindings)`.
    ///
    /// # Errors
    /// Fails with [`FusionError::Unsupported`] when the source lacks native
    /// semijoin support.
    fn semijoin(&self, cond: &Condition, bindings: &ItemSet) -> Result<WrapperResponse<ItemSet>>;

    /// Bloom-filter semijoin: returns every item satisfying `cond` that
    /// passes `filter` — a superset of the exact semijoin the mediator
    /// re-intersects with its set locally.
    ///
    /// # Errors
    /// Fails with [`FusionError::Unsupported`] when the source does not
    /// accept Bloom filters.
    fn bloom_semijoin(
        &self,
        cond: &Condition,
        filter: &fusion_types::BloomFilter,
    ) -> Result<WrapperResponse<ItemSet>>;

    /// One emulated-semijoin probe: evaluates `c AND M IN (batch)` as a
    /// selection (§2.3). `batch` must respect `capabilities().binding_batch`.
    ///
    /// # Errors
    /// Fails with [`FusionError::Unsupported`] when the source rejects
    /// passed bindings, or when the batch exceeds the advertised limit.
    fn probe(&self, cond: &Condition, batch: &ItemSet) -> Result<WrapperResponse<ItemSet>>;

    /// Selection query returning **full records** instead of items (the
    /// §6 one-phase direction: "source queries that return other
    /// attributes in addition to the merge attributes").
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    fn select_records(&self, cond: &Condition) -> Result<WrapperResponse<Vec<Tuple>>>;

    /// [`Wrapper::select_records`] by reference: the same records for the
    /// same work. The default takes the owned records as they come.
    ///
    /// # Errors
    /// As [`Wrapper::select_records`].
    fn select_shared(&self, cond: &Condition) -> Result<WrapperResponse<SharedRecords>> {
        self.select_records(cond).map(|r| WrapperResponse {
            payload: r.payload.into(),
            tuples_examined: r.tuples_examined,
        })
    }

    /// Semijoin query returning full records: every tuple satisfying
    /// `cond` whose item is in `bindings`.
    ///
    /// # Errors
    /// Fails with [`FusionError::Unsupported`] when the source lacks
    /// native semijoin support.
    fn semijoin_records(
        &self,
        cond: &Condition,
        bindings: &ItemSet,
    ) -> Result<WrapperResponse<Vec<Tuple>>>;

    /// Full load `lq(R)`.
    ///
    /// # Errors
    /// Fails with [`FusionError::Unsupported`] when the source refuses
    /// full loads.
    fn load(&self) -> Result<WrapperResponse<Vec<Tuple>>>;

    /// Phase-two record fetch: full tuples for the given items.
    ///
    /// # Errors
    /// [`FusionError::Unsupported`] when the source cannot serve record
    /// fetches (`Capabilities::record_fetch` is false); otherwise
    /// propagates evaluation errors.
    fn fetch(&self, items: &ItemSet) -> Result<WrapperResponse<Vec<Tuple>>>;

    /// Phase-two projected fetch: for each matching record, only the
    /// values at the given schema indexes, in that order.
    ///
    /// # Errors
    /// [`FusionError::Unsupported`] when the source cannot serve record
    /// fetches or does not accept projection lists; otherwise propagates
    /// evaluation errors.
    fn fetch_projected(
        &self,
        items: &ItemSet,
        attrs: &[usize],
    ) -> Result<WrapperResponse<Vec<Tuple>>>;
}

/// A wrapper over an in-memory [`SourceEngine`].
#[derive(Debug, Clone)]
pub struct InMemoryWrapper {
    name: String,
    engine: SourceEngine,
    capabilities: Capabilities,
    processing: ProcessingProfile,
    stats: TableStats,
}

impl InMemoryWrapper {
    /// Builds a wrapper around `relation` with the given capabilities and
    /// processing profile. Statistics are computed eagerly (deterministic
    /// under `stats_seed`).
    pub fn new(
        name: impl Into<String>,
        relation: Relation,
        capabilities: Capabilities,
        processing: ProcessingProfile,
        stats_seed: u64,
    ) -> InMemoryWrapper {
        let stats = TableStats::build(&relation, stats_seed);
        InMemoryWrapper {
            name: name.into(),
            engine: SourceEngine::new(relation),
            capabilities,
            processing,
            stats,
        }
    }

    /// Convenience constructor: fully capable source with default costs.
    pub fn fully_capable(name: impl Into<String>, relation: Relation) -> InMemoryWrapper {
        InMemoryWrapper::new(
            name,
            relation,
            Capabilities::full(),
            ProcessingProfile::default(),
            0,
        )
    }
}

impl Wrapper for InMemoryWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> &Capabilities {
        &self.capabilities
    }

    fn processing(&self) -> &ProcessingProfile {
        &self.processing
    }

    fn stats(&self) -> &TableStats {
        &self.stats
    }

    fn schema(&self) -> &fusion_types::Schema {
        self.engine.relation().schema()
    }

    fn select(&self, cond: &Condition) -> Result<WrapperResponse<ItemSet>> {
        let out = self.engine.select(cond)?;
        Ok(WrapperResponse {
            payload: out.items,
            tuples_examined: out.tuples_examined,
        })
    }

    fn semijoin(&self, cond: &Condition, bindings: &ItemSet) -> Result<WrapperResponse<ItemSet>> {
        if !self.capabilities.native_semijoin {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` has no native semijoin", self.name),
            });
        }
        let out = self.engine.semijoin(cond, bindings)?;
        Ok(WrapperResponse {
            payload: out.items,
            tuples_examined: out.tuples_examined,
        })
    }

    fn bloom_semijoin(
        &self,
        cond: &Condition,
        filter: &fusion_types::BloomFilter,
    ) -> Result<WrapperResponse<ItemSet>> {
        if !self.capabilities.bloom_semijoin {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` rejects Bloom-filter semijoins", self.name),
            });
        }
        let out = self.engine.bloom_semijoin(cond, filter)?;
        Ok(WrapperResponse {
            payload: out.items,
            tuples_examined: out.tuples_examined,
        })
    }

    fn probe(&self, cond: &Condition, batch: &ItemSet) -> Result<WrapperResponse<ItemSet>> {
        if !self.capabilities.passed_bindings {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` rejects passed bindings", self.name),
            });
        }
        if batch.len() > self.capabilities.binding_batch {
            return Err(FusionError::Unsupported {
                detail: format!(
                    "probe batch of {} exceeds source `{}` limit of {}",
                    batch.len(),
                    self.name,
                    self.capabilities.binding_batch
                ),
            });
        }
        // The probe *is* the selection `cond AND M IN (batch)`; the engine
        // evaluates it as a semijoin, which is equivalent.
        let out = self.engine.semijoin(cond, batch)?;
        Ok(WrapperResponse {
            payload: out.items,
            tuples_examined: out.tuples_examined,
        })
    }

    fn select_records(&self, cond: &Condition) -> Result<WrapperResponse<Vec<Tuple>>> {
        let (records, examined) = self.engine.select_records(cond)?;
        Ok(WrapperResponse {
            payload: records,
            tuples_examined: examined,
        })
    }

    fn select_shared(&self, cond: &Condition) -> Result<WrapperResponse<SharedRecords>> {
        let relation = self.engine.relation();
        let payload = relation.select_shared(cond)?;
        Ok(WrapperResponse {
            payload,
            tuples_examined: relation.len(),
        })
    }

    fn semijoin_records(
        &self,
        cond: &Condition,
        bindings: &ItemSet,
    ) -> Result<WrapperResponse<Vec<Tuple>>> {
        if !self.capabilities.native_semijoin {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` has no native semijoin", self.name),
            });
        }
        let (records, examined) = self.engine.semijoin_records(cond, bindings)?;
        Ok(WrapperResponse {
            payload: records,
            tuples_examined: examined,
        })
    }

    fn load(&self) -> Result<WrapperResponse<Vec<Tuple>>> {
        if !self.capabilities.full_load {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` refuses full loads", self.name),
            });
        }
        let (tuples, examined) = self.engine.load();
        Ok(WrapperResponse {
            payload: tuples,
            tuples_examined: examined,
        })
    }

    fn fetch(&self, items: &ItemSet) -> Result<WrapperResponse<Vec<Tuple>>> {
        if !self.capabilities.record_fetch {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` cannot serve record fetches", self.name),
            });
        }
        let (tuples, examined) = self.engine.fetch(items);
        Ok(WrapperResponse {
            payload: tuples,
            tuples_examined: examined,
        })
    }

    fn fetch_projected(
        &self,
        items: &ItemSet,
        attrs: &[usize],
    ) -> Result<WrapperResponse<Vec<Tuple>>> {
        if !self.capabilities.record_fetch {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` cannot serve record fetches", self.name),
            });
        }
        if !self.capabilities.projection {
            return Err(FusionError::Unsupported {
                detail: format!("source `{}` does not accept fetch projections", self.name),
            });
        }
        let (tuples, examined) = self.engine.fetch_projected(items, attrs);
        Ok(WrapperResponse {
            payload: tuples,
            tuples_examined: examined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Predicate};

    fn rel() -> Relation {
        Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["J55", "dui", 1993i64],
                tuple!["T21", "sp", 1994i64],
                tuple!["T80", "dui", 1993i64],
            ],
        )
    }

    #[test]
    fn select_and_semijoin_roundtrip() {
        let w = InMemoryWrapper::fully_capable("R1", rel());
        let sel = w.select(&Predicate::eq("V", "dui").into()).unwrap();
        assert_eq!(sel.payload, ItemSet::from_items(["J55", "T80"]));
        let sj = w
            .semijoin(
                &Predicate::eq("V", "sp").into(),
                &ItemSet::from_items(["J55", "T21"]),
            )
            .unwrap();
        assert_eq!(sj.payload, ItemSet::from_items(["T21"]));
    }

    #[test]
    fn semijoin_rejected_without_capability() {
        let w = InMemoryWrapper::new(
            "R1",
            rel(),
            Capabilities::emulated(5),
            ProcessingProfile::free(),
            0,
        );
        let err = w
            .semijoin(
                &Predicate::eq("V", "sp").into(),
                &ItemSet::from_items(["J55"]),
            )
            .unwrap_err();
        assert!(matches!(err, FusionError::Unsupported { .. }));
        // ...but probes work.
        let p = w
            .probe(
                &Predicate::eq("V", "sp").into(),
                &ItemSet::from_items(["T21"]),
            )
            .unwrap();
        assert_eq!(p.payload, ItemSet::from_items(["T21"]));
    }

    #[test]
    fn probe_respects_batch_limit() {
        let w = InMemoryWrapper::new(
            "R1",
            rel(),
            Capabilities::emulated(2),
            ProcessingProfile::free(),
            0,
        );
        let big = ItemSet::from_items(["a", "b", "c"]);
        assert!(w.probe(&Predicate::eq("V", "sp").into(), &big).is_err());
    }

    #[test]
    fn probe_rejected_without_passed_bindings() {
        let w = InMemoryWrapper::new(
            "R1",
            rel(),
            Capabilities::selection_only(),
            ProcessingProfile::free(),
            0,
        );
        assert!(w
            .probe(
                &Predicate::eq("V", "sp").into(),
                &ItemSet::from_items(["T21"])
            )
            .is_err());
        assert!(w.load().is_err(), "selection-only refuses loads too");
    }

    #[test]
    fn load_and_fetch() {
        let w = InMemoryWrapper::fully_capable("R1", rel());
        assert_eq!(w.load().unwrap().payload.len(), 3);
        let f = w.fetch(&ItemSet::from_items(["T80"])).unwrap();
        assert_eq!(f.payload, vec![tuple!["T80", "dui", 1993i64]]);
    }

    #[test]
    fn probe_equals_explicit_selection() {
        // The emulated probe must return exactly what the selection
        // `cond AND M IN (batch)` would.
        let w = InMemoryWrapper::fully_capable("R1", rel());
        let cond: Condition = Predicate::eq("V", "dui").into();
        let batch = ItemSet::from_items(["J55", "T21"]);
        let probe = w.probe(&cond, &batch).unwrap().payload;
        let explicit: Condition = Predicate::And(vec![
            cond.pred,
            Predicate::InList {
                attr: "L".to_string(),
                values: batch.iter().map(|i| i.value().clone()).collect(),
            },
        ])
        .into();
        let select = w.select(&explicit).unwrap().payload;
        assert_eq!(probe, select);
    }

    #[test]
    fn stats_are_available() {
        let w = InMemoryWrapper::fully_capable("R1", rel());
        assert_eq!(w.stats().rows, 3);
        assert_eq!(w.stats().distinct_items, 3);
    }
}
