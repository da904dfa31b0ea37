//! Actual-cost accounting for executed plans.

use fusion_types::{Cost, SourceId};

/// What a ledger entry's step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Remote selection query.
    Selection,
    /// Remote semijoin query (native).
    Semijoin,
    /// Remote semijoin emulated as passed-binding probes (§2.3).
    EmulatedSemijoin,
    /// Remote Bloom-filter semijoin (extension).
    BloomSemijoin,
    /// Remote full-source load.
    Load,
    /// Free local mediator operation (∪, ∩, −, local selection).
    Local,
    /// Selection served entirely from the answer cache (exact hit).
    CacheHit,
    /// Selection served from a broader cached answer through a local
    /// residual filter (subsumption hit).
    CacheResidual,
    /// Selection served from another in-flight query's merged fetch
    /// (exact equivalence — no filter).
    ShareHit,
    /// Selection served from another in-flight query's merged fetch
    /// through a local residual filter (proper containment).
    ShareResidual,
    /// Marker: a certified mid-flight plan switch fired *before* the step
    /// this entry names. Free (local decision), but recorded so replays
    /// reproduce the switch bit-for-bit; `items_out` holds the observed
    /// round cardinality that violated its believed interval.
    Reopt,
    /// Phase-two record fetch exchange (one batched fetch round trip
    /// group at one source).
    Fetch,
    /// Phase-two records served from the answer cache without an
    /// exchange (priced zero).
    FetchCached,
}

impl std::fmt::Display for StepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StepKind::Selection => "sq",
            StepKind::Semijoin => "sjq",
            StepKind::EmulatedSemijoin => "sjq(emulated)",
            StepKind::BloomSemijoin => "sjq(bloom)",
            StepKind::Load => "lq",
            StepKind::Local => "local",
            StepKind::CacheHit => "sq(cache)",
            StepKind::CacheResidual => "sq(residual)",
            StepKind::ShareHit => "sq(share)",
            StepKind::ShareResidual => "sq(share-residual)",
            StepKind::Reopt => "reopt",
            StepKind::Fetch => "fetch",
            StepKind::FetchCached => "fetch-cached",
        };
        write!(f, "{s}")
    }
}

/// The executed cost of one plan step.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Index of the step in the plan.
    pub step: usize,
    /// What the step did.
    pub kind: StepKind,
    /// Source contacted, if remote.
    pub source: Option<SourceId>,
    /// Communication cost (link charges).
    pub comm: Cost,
    /// Source-side processing cost.
    pub proc: Cost,
    /// Round trips performed (1 for native operations, the number of
    /// probe batches for emulated semijoins, 0 for local steps).
    pub round_trips: usize,
    /// Items (or tuples, for loads) produced by the step.
    pub items_out: usize,
    /// Network attempts made, including failed ones. Equals
    /// `round_trips` when no fault was injected; 0 for local steps.
    pub attempts: usize,
    /// Communication cost paid on failed attempts (requests that drew an
    /// injected error, timeout, or outage). Zero when faults are off.
    pub failed_cost: Cost,
}

impl LedgerEntry {
    /// Total cost of the step, failed attempts included.
    pub(crate) fn total(&self) -> Cost {
        self.comm + self.proc + self.failed_cost
    }
}

/// The executed costs of a whole plan, step by step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    entries: Vec<LedgerEntry>,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub(crate) fn new() -> CostLedger {
        CostLedger::default()
    }

    /// Records one step.
    pub(crate) fn push(&mut self, entry: LedgerEntry) {
        self.entries.push(entry);
    }

    /// All entries, in execution order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Total executed cost (communication + processing).
    pub fn total(&self) -> Cost {
        self.entries.iter().map(LedgerEntry::total).sum()
    }

    /// Total communication cost.
    pub fn comm_total(&self) -> Cost {
        self.entries.iter().map(|e| e.comm).sum()
    }

    /// Total source-processing cost.
    pub fn proc_total(&self) -> Cost {
        self.entries.iter().map(|e| e.proc).sum()
    }

    /// Total cost charged to one source.
    pub fn cost_for_source(&self, source: SourceId) -> Cost {
        self.entries
            .iter()
            .filter(|e| e.source == Some(source))
            .map(LedgerEntry::total)
            .sum()
    }

    /// Number of executed steps of a kind.
    pub fn count_kind(&self, kind: StepKind) -> usize {
        self.entries.iter().filter(|e| e.kind == kind).count()
    }

    /// Total round trips performed.
    pub fn round_trips(&self) -> usize {
        self.entries.iter().map(|e| e.round_trips).sum()
    }

    /// Total network attempts, failed ones included.
    pub fn attempts_total(&self) -> usize {
        self.entries.iter().map(|e| e.attempts).sum()
    }

    /// Total communication cost paid on failed attempts.
    pub fn failed_total(&self) -> Cost {
        self.entries.iter().map(|e| e.failed_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        step: usize,
        kind: StepKind,
        source: Option<usize>,
        comm: f64,
        proc: f64,
    ) -> LedgerEntry {
        LedgerEntry {
            step,
            kind,
            source: source.map(SourceId),
            comm: Cost::new(comm),
            proc: Cost::new(proc),
            round_trips: usize::from(source.is_some()),
            items_out: 0,
            attempts: usize::from(source.is_some()),
            failed_cost: Cost::ZERO,
        }
    }

    #[test]
    fn totals_and_filters() {
        let mut l = CostLedger::new();
        l.push(entry(0, StepKind::Selection, Some(0), 1.0, 0.5));
        l.push(entry(1, StepKind::Semijoin, Some(1), 2.0, 0.25));
        l.push(entry(2, StepKind::Local, None, 0.0, 0.0));
        assert_eq!(l.total(), Cost::new(3.75));
        assert_eq!(l.comm_total(), Cost::new(3.0));
        assert_eq!(l.proc_total(), Cost::new(0.75));
        assert_eq!(l.cost_for_source(SourceId(0)), Cost::new(1.5));
        assert_eq!(l.cost_for_source(SourceId(1)), Cost::new(2.25));
        assert_eq!(l.count_kind(StepKind::Local), 1);
        assert_eq!(l.round_trips(), 2);
        assert_eq!(l.entries().len(), 3);
        assert_eq!(l.attempts_total(), 2);
        assert_eq!(l.failed_total(), Cost::ZERO);
    }

    #[test]
    fn failed_attempts_itemized() {
        let mut e = entry(0, StepKind::Selection, Some(0), 1.0, 0.5);
        e.attempts = 3;
        e.failed_cost = Cost::new(0.75);
        assert_eq!(e.total(), Cost::new(2.25));
        let mut l = CostLedger::new();
        l.push(e);
        assert_eq!(l.attempts_total(), 3);
        assert_eq!(l.failed_total(), Cost::new(0.75));
        assert_eq!(l.total(), Cost::new(2.25));
    }

    #[test]
    fn kind_display() {
        assert_eq!(StepKind::EmulatedSemijoin.to_string(), "sjq(emulated)");
        assert_eq!(StepKind::Load.to_string(), "lq");
    }
}
