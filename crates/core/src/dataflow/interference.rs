//! Static interference analysis over the shared state of the executors.
//!
//! The dataflow pass of this module's parent proves *which* steps may
//! run concurrently; this file proves they may do so *safely*. Every
//! step — and every cache-side event a cached run performs around the
//! steps — is assigned a read/write **footprint** over the shared
//! resources of the executor family:
//!
//! * plan variables and loaded relations (the SSA slots),
//! * the per-source network shard (trace segment + fault-schedule
//!   cursor behind [`fusion_net::Network`]'s source handles),
//! * per-`(source, condition)` answer-cache keys,
//! * per-source epoch counters,
//! * the cache's shared LRU clock and statistics,
//! * the per-step ledger slot.
//!
//! A **happens-before** relation is then built from the certified stage
//! schedule (stage barriers, per-source serial queues, data
//! dependencies, and the cached executor's lookup → execute → bump →
//! commit phasing). Two events that are unordered under happens-before
//! yet have conflicting footprints (one writes what the other touches)
//! constitute an *interference*: the analysis reports the pair, the
//! contended resource, and a concrete **witness** — two linear
//! extensions of the happens-before order that differ only in which of
//! the pair goes first, exactly the schedules a model checker must
//! replay to exhibit (or refute) divergence.
//!
//! The three `*_findings` rules report the interference classes the
//! executors must stay free of: conflicting same-stage step footprints,
//! cache commits racing epoch bumps, and epoch reads (cache lookups)
//! racing epoch bumps. The analysis is plan-level: the server's critical
//! sections are certified over its own operation log, in `fusion-exec`.

use super::{dependencies, stage_levels};
use crate::analyze::{Diagnostic, Severity};
use crate::plan::{Plan, Step};
use fusion_types::error::Result;

/// One unit of shared executor state an event can read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// An SSA item-set variable slot.
    Var(usize),
    /// A loaded-relation slot.
    Rel(usize),
    /// Source `j`'s network shard: its pending trace segment and its
    /// positional fault-schedule cursor. Every exchange is a
    /// read-modify-write of this resource.
    NetShard(usize),
    /// The answer-cache entry keyed by `(source, condition)`.
    CacheKey(usize, usize),
    /// The cache's shared LRU clock and hit/miss statistics.
    CacheLru,
    /// Source `j`'s cache epoch counter.
    Epoch(usize),
    /// The step's slot in the cost ledger.
    LedgerSlot(usize),
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::Var(v) => write!(f, "var v{v}"),
            Resource::Rel(r) => write!(f, "rel t{r}"),
            Resource::NetShard(j) => write!(f, "R{}'s network shard", j + 1),
            Resource::CacheKey(j, c) => write!(f, "cache key (R{}, c{})", j + 1, c + 1),
            Resource::CacheLru => write!(f, "cache LRU clock"),
            Resource::Epoch(j) => write!(f, "R{}'s epoch counter", j + 1),
            Resource::LedgerSlot(t) => write!(f, "ledger slot #{}", t + 1),
        }
    }
}

/// The read and write sets of one event, kept sorted and deduplicated so
/// conflict detection is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// Resources the event reads.
    pub reads: Vec<Resource>,
    /// Resources the event writes (every write implies a read).
    pub writes: Vec<Resource>,
}

impl Footprint {
    fn normalized(mut self) -> Footprint {
        self.reads.sort_unstable();
        self.reads.dedup();
        self.writes.sort_unstable();
        self.writes.dedup();
        self
    }

    /// The first resource (in [`Resource`] order) on which this
    /// footprint conflicts with `other`: one side writes it and the
    /// other reads or writes it. `None` means the events commute.
    pub fn conflicts_with(&self, other: &Footprint) -> Option<Resource> {
        let hit = |writes: &[Resource], foot: &Footprint| {
            writes
                .iter()
                .copied()
                .filter(|r| foot.reads.contains(r) || foot.writes.contains(r))
                .min()
        };
        match (hit(&self.writes, other), hit(&other.writes, self)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The footprint of executing plan step `idx` (the step body only; the
/// cache events around a cached run have their own `event_footprint`s).
///
/// Remote steps read-modify-write their source's network shard (the
/// exchange appends a trace segment and advances the positional fault
/// cursor); every step writes its SSA output and its ledger slot.
pub(crate) fn step_footprint(plan: &Plan, idx: usize) -> Footprint {
    let mut f = Footprint {
        reads: Vec::new(),
        writes: vec![Resource::LedgerSlot(idx)],
    };
    match &plan.steps[idx] {
        Step::Sq { out, source, .. } => {
            f.reads.push(Resource::NetShard(source.0));
            f.writes.push(Resource::NetShard(source.0));
            f.writes.push(Resource::Var(out.0));
        }
        Step::Sjq {
            out, source, input, ..
        }
        | Step::SjqBloom {
            out, source, input, ..
        } => {
            f.reads.push(Resource::Var(input.0));
            f.reads.push(Resource::NetShard(source.0));
            f.writes.push(Resource::NetShard(source.0));
            f.writes.push(Resource::Var(out.0));
        }
        Step::Lq { out, source } => {
            f.reads.push(Resource::NetShard(source.0));
            f.writes.push(Resource::NetShard(source.0));
            f.writes.push(Resource::Rel(out.0));
        }
        Step::LocalSq { out, rel, .. } => {
            f.reads.push(Resource::Rel(rel.0));
            f.writes.push(Resource::Var(out.0));
        }
        Step::Union { out, inputs } | Step::Intersect { out, inputs } => {
            f.reads.extend(inputs.iter().map(|v| Resource::Var(v.0)));
            f.writes.push(Resource::Var(out.0));
        }
        Step::Diff { out, left, right } => {
            f.reads.push(Resource::Var(left.0));
            f.reads.push(Resource::Var(right.0));
            f.writes.push(Resource::Var(out.0));
        }
    }
    f.normalized()
}

/// The footprints of every step of `plan`, in step order.
pub(crate) fn plan_footprints(plan: &Plan) -> Vec<Footprint> {
    (0..plan.steps.len())
        .map(|t| step_footprint(plan, t))
        .collect()
}

/// One atomic action of a (possibly cached) plan execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The cache lookup for selection step `step` (reads the source's
    /// epoch and cache key, touches the LRU clock).
    Lookup {
        /// The `sq` step being looked up.
        step: usize,
    },
    /// Executing step `step` (footprint: `step_footprint`).
    Exec {
        /// The step index.
        step: usize,
    },
    /// The post-run fault-recovery epoch bump of source `source`
    /// (reads the source's committed failure count, writes its epoch).
    EpochBump {
        /// The source whose epoch may advance.
        source: usize,
    },
    /// Admitting the pending answer of selection step `step` to the
    /// cache (reads the epoch and failed flag, writes the cache key).
    Commit {
        /// The `sq` step whose answer is admitted.
        step: usize,
    },
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Lookup { step } => write!(f, "lookup#{}", step + 1),
            Event::Exec { step } => write!(f, "step#{}", step + 1),
            Event::EpochBump { source } => write!(f, "bump[R{}]", source + 1),
            Event::Commit { step } => write!(f, "commit#{}", step + 1),
        }
    }
}

/// The footprint of one event.
///
/// # Panics
/// Panics when a `Lookup`/`Commit` event names a step that is not a
/// selection — those events only exist for `sq` steps.
pub(crate) fn event_footprint(plan: &Plan, event: Event) -> Footprint {
    match event {
        Event::Exec { step } => step_footprint(plan, step),
        Event::Lookup { step } => {
            let Step::Sq { cond, source, .. } = &plan.steps[step] else {
                panic!("lookup event on non-selection step #{step}");
            };
            Footprint {
                reads: vec![
                    Resource::Epoch(source.0),
                    Resource::CacheKey(source.0, cond.0),
                ],
                writes: vec![Resource::CacheLru],
            }
            .normalized()
        }
        Event::EpochBump { source } => Footprint {
            reads: vec![Resource::NetShard(source)],
            writes: vec![Resource::Epoch(source)],
        }
        .normalized(),
        Event::Commit { step } => {
            let Step::Sq { cond, source, .. } = &plan.steps[step] else {
                panic!("commit event on non-selection step #{step}");
            };
            Footprint {
                reads: vec![Resource::Epoch(source.0), Resource::NetShard(source.0)],
                writes: vec![Resource::CacheKey(source.0, cond.0), Resource::CacheLru],
            }
            .normalized()
        }
    }
}

/// An interference: two events unordered under happens-before whose
/// footprints conflict, with the witness schedules that realize both
/// orders.
#[derive(Debug, Clone)]
pub struct Interference {
    /// The earlier-indexed event of the pair.
    pub a: Event,
    /// The later-indexed event of the pair.
    pub b: Event,
    /// The contended resource.
    pub resource: Resource,
    /// Two complete schedules differing in the pair's order.
    pub witness: Witness,
}

impl std::fmt::Display for Interference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} and {} may run concurrently but conflict on {}; {}",
            self.a, self.b, self.resource, self.witness
        )
    }
}

/// A concrete counterexample pair of schedules: both are linear
/// extensions of the happens-before order, the first running the
/// interfering pair one way round, the second the other.
#[derive(Debug, Clone)]
pub struct Witness {
    /// A schedule running the pair in `(a, b)` order.
    pub first: Vec<Event>,
    /// A schedule running the pair in `(b, a)` order.
    pub second: Vec<Event>,
}

fn render_schedule(s: &[Event]) -> String {
    s.iter()
        .map(std::string::ToString::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "witness schedules [{}] vs [{}]",
            render_schedule(&self.first),
            render_schedule(&self.second)
        )
    }
}

/// The event graph of one execution: events with footprints plus the
/// happens-before edges a schedule guarantees. [`EventGraph::certified`]
/// builds the graph the real executors implement; [`EventGraph::push`] /
/// [`EventGraph::add_edge`] let tests model broken (mutant) schedules.
#[derive(Debug, Clone, Default)]
pub struct EventGraph {
    events: Vec<Event>,
    foots: Vec<Footprint>,
    succ: Vec<Vec<usize>>,
}

impl EventGraph {
    /// An empty graph.
    pub fn new() -> EventGraph {
        EventGraph::default()
    }

    /// The events, in insertion order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The footprint of event `i`.
    pub fn footprint(&self, i: usize) -> &Footprint {
        &self.foots[i]
    }

    /// Adds an event, returning its index.
    pub fn push(&mut self, plan: &Plan, event: Event) -> usize {
        self.events.push(event);
        self.foots.push(event_footprint(plan, event));
        self.succ.push(Vec::new());
        self.events.len() - 1
    }

    /// Adds the happens-before edge `a → b`.
    ///
    /// # Panics
    /// Panics when either index is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(b < self.events.len(), "edge target out of range");
        if !self.succ[a].contains(&b) {
            self.succ[a].push(b);
        }
    }

    /// The event graph the parallel/cached executors implement for
    /// `stages` (a stage partition of the plan's steps):
    ///
    /// * cached runs resolve every selection lookup first, chained in
    ///   plan order (the pre-resolution pass);
    /// * steps execute under stage barriers (every stage-`s` step
    ///   happens before every stage-`s+1` step) plus the plan's data
    ///   dependencies;
    /// * cached runs then bump recovery epochs (chained by source) and
    ///   finally admit pending answers (chained in step order) — the
    ///   lookup → execute → bump → commit phasing of `commit_inserts`.
    ///
    /// With `cached = false`, only the `Exec` events exist; the cached
    /// graph is a strict superset, so certifying it certifies both
    /// modes.
    pub fn certified(plan: &Plan, stages: &[Vec<usize>], cached: bool) -> EventGraph {
        let mut g = EventGraph::new();
        let (_, deps) = dependencies(plan);
        let mut last_lookup: Option<usize> = None;
        if cached {
            for (idx, step) in plan.steps.iter().enumerate() {
                if matches!(step, Step::Sq { .. }) {
                    let id = g.push(plan, Event::Lookup { step: idx });
                    if let Some(prev) = last_lookup {
                        g.add_edge(prev, id);
                    }
                    last_lookup = Some(id);
                }
            }
        }
        let exec_id: Vec<usize> = (0..plan.steps.len())
            .map(|idx| g.push(plan, Event::Exec { step: idx }))
            .collect();
        if let (Some(last), Some(first_stage)) = (last_lookup, stages.first()) {
            for &t in first_stage {
                g.add_edge(last, exec_id[t]);
            }
        }
        for (t, ds) in deps.iter().enumerate() {
            for &d in ds {
                g.add_edge(exec_id[d], exec_id[t]);
            }
        }
        for pair in stages.windows(2) {
            for &a in &pair[0] {
                for &b in &pair[1] {
                    g.add_edge(exec_id[a], exec_id[b]);
                }
            }
        }
        if cached {
            let mut prev: Option<usize> = None;
            for j in 0..plan.n_sources {
                let id = g.push(plan, Event::EpochBump { source: j });
                match prev {
                    Some(p) => g.add_edge(p, id),
                    None => {
                        // The first bump waits for the whole run: the
                        // last stage suffices, barriers imply the rest.
                        for &t in stages.last().map_or(&[][..], Vec::as_slice) {
                            g.add_edge(exec_id[t], id);
                        }
                        if let (Some(last), true) = (last_lookup, stages.is_empty()) {
                            g.add_edge(last, id);
                        }
                    }
                }
                prev = Some(id);
            }
            for (idx, step) in plan.steps.iter().enumerate() {
                if matches!(step, Step::Sq { .. }) {
                    let id = g.push(plan, Event::Commit { step: idx });
                    match prev {
                        Some(p) => g.add_edge(p, id),
                        None => {
                            for &t in stages.last().map_or(&[][..], Vec::as_slice) {
                                g.add_edge(exec_id[t], id);
                            }
                        }
                    }
                    prev = Some(id);
                }
            }
        }
        g
    }

    /// The happens-before closure: `hb[a][b]` iff `a` strictly precedes
    /// `b` in every schedule the graph admits.
    pub fn happens_before(&self) -> Vec<Vec<bool>> {
        let n = self.events.len();
        let mut hb = vec![vec![false; n]; n];
        for (start, row) in hb.iter_mut().enumerate() {
            let mut stack: Vec<usize> = self.succ[start].clone();
            while let Some(v) = stack.pop() {
                if !row[v] {
                    row[v] = true;
                    stack.extend(self.succ[v].iter().copied());
                }
            }
        }
        hb
    }

    /// A linear extension preferring `early` as soon as it is available
    /// and delaying `late` until it is forced — the two calls
    /// `linearize(a, b)` / `linearize(b, a)` realize both orders of an
    /// unordered pair.
    fn linearize(&self, early: usize, late: usize) -> Vec<Event> {
        let n = self.events.len();
        let mut indeg = vec![0usize; n];
        for succs in &self.succ {
            for &v in succs {
                indeg[v] += 1;
            }
        }
        let mut done = vec![false; n];
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let avail = (0..n).filter(|&v| !done[v] && indeg[v] == 0);
            let pick = if !done[early] && indeg[early] == 0 {
                early
            } else {
                let mut best: Option<usize> = None;
                for v in avail {
                    if v != late {
                        best = Some(v);
                        break;
                    }
                    best.get_or_insert(v);
                }
                best.expect("event graph is cyclic")
            };
            done[pick] = true;
            out.push(self.events[pick]);
            for &v in &self.succ[pick] {
                indeg[v] -= 1;
            }
        }
        out
    }

    /// Every interference in the graph: unordered pairs with
    /// conflicting footprints, each with its two-schedule witness.
    pub fn interferences(&self) -> Vec<Interference> {
        let hb = self.happens_before();
        let mut out = Vec::new();
        for (a, hb_a) in hb.iter().enumerate() {
            for (b, hb_b) in hb.iter().enumerate().skip(a + 1) {
                if hb_a[b] || hb_b[a] {
                    continue;
                }
                if let Some(resource) = self.foots[a].conflicts_with(&self.foots[b]) {
                    out.push(Interference {
                        a: self.events[a],
                        b: self.events[b],
                        resource,
                        witness: Witness {
                            first: self.linearize(a, b),
                            second: self.linearize(b, a),
                        },
                    });
                }
            }
        }
        out
    }
}

/// Runs the interference analysis on `plan`'s own certified schedule:
/// the returned list is empty exactly when every pair of concurrent
/// events commutes. `cached` includes the answer-cache events.
///
/// # Errors
/// Fails on structurally invalid plans.
pub fn interference_report(plan: &Plan, cached: bool) -> Result<Vec<Interference>> {
    plan.validate()?;
    let stages = stage_levels(plan).stages;
    Ok(EventGraph::certified(plan, &stages, cached).interferences())
}

fn hb_index(events: &[Event], e: Event) -> Option<usize> {
    events.iter().position(|&x| x == e)
}

/// `conflicting-stage-footprints` findings over an event graph: pairs
/// of plan steps that may run concurrently with conflicting footprints.
pub fn conflicting_footprint_findings(_plan: &Plan, graph: &EventGraph) -> Vec<Diagnostic> {
    graph
        .interferences()
        .into_iter()
        .filter_map(|i| match (i.a, i.b) {
            (Event::Exec { step: a }, Event::Exec { step: b }) => Some(Diagnostic {
                rule: "conflicting-stage-footprints",
                severity: Severity::Error,
                step: a.min(b) + 1,
                message: format!(
                    "steps #{} and #{} may run concurrently but conflict on {}; {}",
                    a + 1,
                    b + 1,
                    i.resource,
                    i.witness
                ),
            }),
            _ => None,
        })
        .collect()
}

/// `cache-commit-race` findings: every cache admission must happen
/// after its source's recovery epoch bump, or a pre-fault answer can be
/// stamped with the post-fault epoch and served stale forever.
pub fn cache_commit_race_findings(plan: &Plan, graph: &EventGraph) -> Vec<Diagnostic> {
    let hb = graph.happens_before();
    let events = graph.events();
    let mut out = Vec::new();
    for (ci, &ev) in events.iter().enumerate() {
        let Event::Commit { step } = ev else {
            continue;
        };
        let Step::Sq { source, .. } = &plan.steps[step] else {
            continue;
        };
        let Some(bi) = hb_index(events, Event::EpochBump { source: source.0 }) else {
            continue;
        };
        if hb[bi][ci] {
            continue;
        }
        let (how, witness) = if hb[ci][bi] {
            (
                "runs before".to_string(),
                format!("schedule [{}]", render_schedule(&graph.linearize(ci, bi))),
            )
        } else {
            (
                "is unordered with".to_string(),
                Witness {
                    first: graph.linearize(ci, bi),
                    second: graph.linearize(bi, ci),
                }
                .to_string(),
            )
        };
        out.push(Diagnostic {
            rule: "cache-commit-race",
            severity: Severity::Error,
            step: step + 1,
            message: format!(
                "admission of step #{}'s answer {how} R{}'s recovery epoch \
                 bump: a pre-fault answer can be stamped with the post-fault \
                 epoch and served stale; {witness}",
                step + 1,
                source.0 + 1
            ),
        });
    }
    out
}

/// `epoch-read-before-bump` findings: every cache lookup (which reads
/// its source's epoch to validate entries) must happen before that
/// source's recovery bump, or the served set depends on scheduling.
pub fn epoch_read_before_bump_findings(plan: &Plan, graph: &EventGraph) -> Vec<Diagnostic> {
    let hb = graph.happens_before();
    let events = graph.events();
    let mut out = Vec::new();
    for (li, &ev) in events.iter().enumerate() {
        let Event::Lookup { step } = ev else {
            continue;
        };
        let Step::Sq { source, .. } = &plan.steps[step] else {
            continue;
        };
        let Some(bi) = hb_index(events, Event::EpochBump { source: source.0 }) else {
            continue;
        };
        if hb[li][bi] {
            continue;
        }
        let how = if hb[bi][li] {
            "runs after"
        } else {
            "is unordered with"
        };
        out.push(Diagnostic {
            rule: "epoch-read-before-bump",
            severity: Severity::Error,
            step: step + 1,
            message: format!(
                "lookup for step #{} {how} R{}'s recovery epoch bump: whether \
                 the entry serves depends on the schedule; {}",
                step + 1,
                source.0 + 1,
                Witness {
                    first: graph.linearize(li, bi),
                    second: graph.linearize(bi, li),
                }
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::dataflow::{stage_decomposition, verify_stage_decomposition};
    use crate::optimizer::{filter_plan, sja_optimal};
    use crate::plan::{SimplePlanSpec, VarId};
    use fusion_types::{CondId, SourceId};

    fn model() -> TableCostModel {
        TableCostModel::uniform(2, 3, 10.0, 1.0, 0.1, 100.0, 5.0, 1000.0)
    }

    /// The 9-step plan of the parallel executor's serial-queue test: a
    /// later step (`sq(c2, R3)`, index 6) with a smaller dependency
    /// level than an earlier same-source step (index 2).
    fn queue_order_plan() -> Plan {
        let mut plan = Plan::new(vec![], VarId(0), 2, 3);
        let x0 = plan.fresh_var("X0");
        let x1 = plan.fresh_var("X1");
        let x2 = plan.fresh_var("X2");
        let u1 = plan.fresh_var("U1");
        let y0 = plan.fresh_var("Y0");
        let y1 = plan.fresh_var("Y1");
        let y2 = plan.fresh_var("Y2");
        let y2r = plan.fresh_var("Y2R");
        let r = plan.fresh_var("R");
        plan.steps = vec![
            Step::Sq {
                out: x0,
                cond: CondId(0),
                source: SourceId(0),
            },
            Step::Sq {
                out: x1,
                cond: CondId(0),
                source: SourceId(1),
            },
            Step::Sq {
                out: x2,
                cond: CondId(0),
                source: SourceId(2),
            },
            Step::Union {
                out: u1,
                inputs: vec![x0, x1, x2],
            },
            Step::Sjq {
                out: y0,
                cond: CondId(1),
                source: SourceId(0),
                input: u1,
            },
            Step::Sjq {
                out: y1,
                cond: CondId(1),
                source: SourceId(1),
                input: u1,
            },
            Step::Sq {
                out: y2,
                cond: CondId(1),
                source: SourceId(2),
            },
            Step::Intersect {
                out: y2r,
                inputs: vec![u1, y2],
            },
            Step::Union {
                out: r,
                inputs: vec![y0, y1, y2r],
            },
        ];
        plan.result = r;
        plan
    }

    /// The same plan's stages with the serial-queue refinement removed:
    /// steps 2 and 6 (both R3) land in stage 0 together.
    fn racy_stages() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2, 6], vec![3], vec![4, 5, 7], vec![8]]
    }

    #[test]
    fn every_step_kind_gets_a_footprint() {
        let mut plan = Plan::new(vec![], VarId(0), 2, 2);
        let t = plan.fresh_rel("T");
        let a = plan.fresh_var("A");
        let b = plan.fresh_var("B");
        let c = plan.fresh_var("C");
        let d = plan.fresh_var("D");
        let e = plan.fresh_var("E");
        let f = plan.fresh_var("F");
        let g = plan.fresh_var("G");
        plan.steps = vec![
            Step::Lq {
                out: t,
                source: SourceId(0),
            },
            Step::LocalSq {
                out: a,
                cond: CondId(0),
                rel: t,
            },
            Step::Sq {
                out: b,
                cond: CondId(1),
                source: SourceId(1),
            },
            Step::Sjq {
                out: c,
                cond: CondId(0),
                source: SourceId(1),
                input: b,
            },
            Step::SjqBloom {
                out: d,
                cond: CondId(1),
                source: SourceId(1),
                input: c,
                bits: 8,
            },
            Step::Union {
                out: e,
                inputs: vec![a, d],
            },
            Step::Intersect {
                out: f,
                inputs: vec![a, e],
            },
            Step::Diff {
                out: g,
                left: f,
                right: a,
            },
        ];
        plan.result = g;
        let foots = plan_footprints(&plan);
        assert_eq!(foots.len(), plan.steps.len());
        for (t, f) in foots.iter().enumerate() {
            assert!(
                f.writes.contains(&Resource::LedgerSlot(t)),
                "step {t} missing its ledger slot"
            );
            assert!(
                f.writes.len() >= 2 || plan.steps[t].source().is_none(),
                "remote step {t} should write its shard and output"
            );
        }
        // Remote steps read-modify-write their shard.
        assert!(foots[0].writes.contains(&Resource::NetShard(0)));
        assert!(foots[2].reads.contains(&Resource::NetShard(1)));
        // Local steps never touch the network.
        for f in [&foots[1], &foots[5], &foots[6], &foots[7]] {
            assert!(!f
                .reads
                .iter()
                .chain(&f.writes)
                .any(|r| matches!(r, Resource::NetShard(_))));
        }
    }

    #[test]
    fn certified_schedules_are_interference_free() {
        let m = model();
        for plan in [
            filter_plan(&m).plan,
            sja_optimal(&m).plan,
            SimplePlanSpec::filter(3, 2).build(2).unwrap(),
            queue_order_plan(),
        ] {
            let report = interference_report(&plan, true).unwrap();
            assert!(
                report.is_empty(),
                "certified schedule interferes: {}",
                report[0]
            );
            assert!(interference_report(&plan, false).unwrap().is_empty());
            let stages = stage_decomposition(&plan).unwrap().stages;
            assert!(verify_stage_decomposition(&plan, &stages).is_ok());
        }
    }

    #[test]
    fn dropping_the_serial_queue_exposes_the_shard_race() {
        let plan = queue_order_plan();
        let stages = racy_stages();
        let err = verify_stage_decomposition(&plan, &stages).unwrap_err();
        assert!(err.to_string().contains("source-disjoint"), "{err}");
        // The event graph over the racy stages interferes on R3's shard,
        // and the lint pinpoints the step pair with a witness.
        let graph = EventGraph::certified(&plan, &stages, false);
        let findings = conflicting_footprint_findings(&plan, &graph);
        assert!(!findings.is_empty());
        assert!(findings[0].message.contains("R3's network shard"));
        assert!(findings[0].message.contains("witness schedules"));
        let interferences = graph.interferences();
        let shard = interferences
            .iter()
            .find(|i| {
                matches!(
                    (i.a, i.b),
                    (Event::Exec { step: 2 }, Event::Exec { step: 6 })
                )
            })
            .expect("steps 2 and 6 must interfere");
        // Both witnesses are complete schedules over the same events.
        assert_eq!(shard.witness.first.len(), graph.events().len());
        assert_eq!(shard.witness.second.len(), graph.events().len());
        let pos = |s: &[Event], e: Event| s.iter().position(|&x| x == e).unwrap();
        let (w1, w2) = (&shard.witness.first, &shard.witness.second);
        assert!(
            pos(w1, Event::Exec { step: 2 }) < pos(w1, Event::Exec { step: 6 }),
            "first witness runs the pair in order"
        );
        assert!(
            pos(w2, Event::Exec { step: 6 }) < pos(w2, Event::Exec { step: 2 }),
            "second witness inverts the pair"
        );
    }

    #[test]
    fn commit_bump_inversion_is_flagged() {
        // A certified-shaped graph with the bump → commit edges removed:
        // admissions race recovery bumps.
        let plan = SimplePlanSpec::filter(1, 1).build(1).unwrap();
        let mut g = EventGraph::new();
        let lk = g.push(&plan, Event::Lookup { step: 0 });
        let ex: Vec<usize> = (0..plan.steps.len())
            .map(|t| g.push(&plan, Event::Exec { step: t }))
            .collect();
        g.add_edge(lk, ex[0]);
        for w in ex.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let bump = g.push(&plan, Event::EpochBump { source: 0 });
        let commit = g.push(&plan, Event::Commit { step: 0 });
        g.add_edge(*ex.last().unwrap(), bump);
        g.add_edge(*ex.last().unwrap(), commit);
        let findings = cache_commit_race_findings(&plan, &g);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unordered"), "{}", findings[0]);
        // And the generic report sees the same pair.
        assert!(g.interferences().iter().any(|i| matches!(
            (i.a, i.b),
            (Event::EpochBump { .. }, Event::Commit { .. })
                | (Event::Commit { .. }, Event::EpochBump { .. })
        )));
        // Forcing commit → bump (the mutant executor's order) turns the
        // race into a definite inversion.
        g.add_edge(commit, bump);
        let findings = cache_commit_race_findings(&plan, &g);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("runs before"),
            "{}",
            findings[0]
        );
    }

    #[test]
    fn unordered_lookup_and_bump_is_flagged() {
        let plan = SimplePlanSpec::filter(1, 1).build(1).unwrap();
        let mut g = EventGraph::new();
        let lk = g.push(&plan, Event::Lookup { step: 0 });
        let ex0 = g.push(&plan, Event::Exec { step: 0 });
        let ex1 = g.push(&plan, Event::Exec { step: 1 });
        let bump = g.push(&plan, Event::EpochBump { source: 0 });
        let commit = g.push(&plan, Event::Commit { step: 0 });
        // The bump is ordered against execution but not the lookup.
        g.add_edge(lk, ex0);
        g.add_edge(ex0, ex1);
        g.add_edge(bump, ex0);
        g.add_edge(ex1, commit);
        let findings = epoch_read_before_bump_findings(&plan, &g);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unordered"), "{}", findings[0]);
        // The properly phased graph is quiet.
        let stages = stage_decomposition(&plan).unwrap().stages;
        let good = EventGraph::certified(&plan, &stages, true);
        assert!(epoch_read_before_bump_findings(&plan, &good).is_empty());
        assert!(cache_commit_race_findings(&plan, &good).is_empty());
        assert!(conflicting_footprint_findings(&plan, &good).is_empty());
    }

    #[test]
    fn interference_findings_are_quiet_on_optimizer_plans() {
        let m = model();
        for plan in [filter_plan(&m).plan, sja_optimal(&m).plan] {
            let graph = EventGraph::certified(&plan, &stage_levels(&plan).stages, true);
            let fired: Vec<Diagnostic> = [
                conflicting_footprint_findings(&plan, &graph),
                cache_commit_race_findings(&plan, &graph),
                epoch_read_before_bump_findings(&plan, &graph),
            ]
            .concat();
            assert_eq!(fired, vec![], "fired on a certified plan");
        }
    }
}
