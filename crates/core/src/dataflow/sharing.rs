//! Cross-query sharing analysis: proved multi-query step merging.
//!
//! The mediator server admits many fusion queries concurrently, and
//! under skewed multi-tenant traffic co-running queries repeatedly fire
//! identical or subsumed `sq(c, R)` steps before the first harvest
//! commits. This module is the static side of merging that work: given
//! the **in-flight plans** visible inside the server's admission
//! critical section, it computes
//!
//! * a **sharing graph** over their remote steps — equivalence and
//!   containment edges between selection steps, proved by a
//!   caller-supplied containment prover (the BDD `subsumes` decision
//!   procedure in production, a hand prover in unit tests), plus groups
//!   of **batchable semijoin probes**: probe steps against the same
//!   source whose canonical step signatures are byte-equal, so a single
//!   shipped binding set would serve all of them;
//! * a **merged schedule**: one exchange per select equivalence class
//!   with fan-out to every waiting query, and redirects for *proper*
//!   containment — a narrower class serves from a broader class's
//!   harvest through a residual filter. Because the prover is sound but
//!   incomplete, a redirect requires a **direct** proof against the
//!   fetching class; chains are never assumed transitively;
//! * a **merge certificate** ([`verify_merged_schedule`]): the schedule
//!   is re-checked, never trusted — every fan-out edge's containment is
//!   re-proved, and the schedule's events are assigned read/write
//!   footprints over [`Resource::SharedFetch`] slots so that any two
//!   conflicting events are ordered by the fan-out discipline (the
//!   leader's publish happens before every follower's read, and no two
//!   leaders write one slot).
//!
//! The three `*_findings` rules report the sharing defects the server
//! must stay free of: duplicate in-flight exchanges, unshared subsumed
//! steps, and unsound merge residuals. Like the interference rules they
//! are driven from explicit (possibly mutant) schedules, so the golden
//! corpus can exhibit each defect with a concrete witness schedule.
//!
//! [`verify_share_windows`] is the dynamic half's always-on guard: a
//! follower may only have attached to a leader that was admitted before
//! it and still uncommitted at its admission.

use super::interference::{Footprint, Resource};
use crate::analyze::{Diagnostic, Severity};
use crate::plan::{Plan, Step};
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Condition, Predicate, SourceId};

/// A containment prover: `prove(broad, narrow)` must return `true` only
/// when every tuple satisfying `narrow` provably satisfies `broad`.
/// Sound-but-incomplete provers are expected; the analysis never chains
/// unproved implications.
pub type Prover<'p> = &'p dyn Fn(&Predicate, &Predicate) -> bool;

/// One query in flight inside the admission critical section.
#[derive(Debug, Clone, Copy)]
pub struct InFlightPlan<'a> {
    /// The query's admission ticket (stable, globally ordered id).
    pub qid: u64,
    /// Its optimized plan.
    pub plan: &'a Plan,
    /// The query's conditions, indexed by the plan's `CondId`s.
    pub conditions: &'a [Condition],
}

impl InFlightPlan<'_> {
    fn pred(&self, cond: CondId) -> &Predicate {
        &self.conditions[cond.0].pred
    }
}

/// One remote step of one in-flight plan — a node of the sharing graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepNode {
    /// Index of the owning query in the analyzed slice.
    pub query: usize,
    /// The owning query's admission ticket.
    pub qid: u64,
    /// 0-based step index inside the owning plan.
    pub step: usize,
    /// The contacted source.
    pub source: SourceId,
    /// The step's condition.
    pub cond: CondId,
    /// The condition's predicate-equivalence class.
    pub pred_class: usize,
    /// Fetch class for select (`sq`) nodes; `None` for probe nodes.
    pub class: Option<usize>,
    /// True for semijoin probes (`sjq`/Bloom), false for selections.
    pub probe: bool,
}

impl StepNode {
    /// Display label `q{qid}#{step}` (1-based step, matching listings).
    pub fn label(&self) -> String {
        format!("q{}#{}", self.qid, self.step + 1)
    }
}

/// The kind of a sharing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Both steps provably return the same set (containment both ways
    /// for selections, byte-equal canonical signatures for probes).
    Equivalent,
    /// The `from` step's result provably contains the `to` step's.
    Contains,
}

/// A proved relation between two remote steps of *different* queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingEdge {
    /// Node index of the broader (or equal) side.
    pub from: usize,
    /// Node index of the narrower (or equal) side.
    pub to: usize,
    /// What was proved.
    pub kind: EdgeKind,
}

/// The sharing graph over a set of in-flight plans.
#[derive(Debug, Clone)]
pub struct SharingGraph {
    /// Remote-step nodes, ascending by `(query, step)`.
    pub nodes: Vec<StepNode>,
    /// Proved cross-query edges.
    pub edges: Vec<SharingEdge>,
    /// Number of predicate-equivalence classes.
    pub n_pred_classes: usize,
    /// Select-node indices per fetch class (a fetch class is one
    /// `(source, predicate class)` pair); ascending inside each class.
    pub class_members: Vec<Vec<usize>>,
    /// Source of each fetch class.
    pub class_source: Vec<SourceId>,
    /// Predicate class of each fetch class.
    pub class_pred: Vec<usize>,
    /// `class_contains[a][b]`: fetch class `a`'s predicate provably
    /// *properly* contains `b`'s, same source, `a != b`.
    pub class_contains: Vec<Vec<bool>>,
    /// Batchable probe groups: probe-node indices whose canonical step
    /// signatures are byte-equal, spanning at least two queries.
    pub probe_batches: Vec<Vec<usize>>,
}

impl SharingGraph {
    /// Builds the sharing graph over `plans` using `prove` for every
    /// containment question.
    ///
    /// # Errors
    /// Fails on structurally invalid plans and on plans whose condition
    /// slice does not cover their `CondId`s.
    pub fn build(plans: &[InFlightPlan<'_>], prove: Prover<'_>) -> Result<SharingGraph> {
        for p in plans {
            p.plan.validate()?;
            if p.conditions.len() < p.plan.n_conditions {
                return Err(FusionError::invalid_plan(format!(
                    "q{}: {} conditions given but the plan names {}",
                    p.qid,
                    p.conditions.len(),
                    p.plan.n_conditions
                )));
            }
        }
        // Distinct predicates across every plan, and each condition's
        // index into them — the prover is only ever asked about a pair
        // of distinct predicates once.
        let mut preds: Vec<&Predicate> = Vec::new();
        let mut pred_ix: Vec<Vec<usize>> = Vec::with_capacity(plans.len());
        for p in plans {
            let row = p
                .conditions
                .iter()
                .map(|c| match preds.iter().position(|&q| q == &c.pred) {
                    Some(i) => i,
                    None => {
                        preds.push(&c.pred);
                        preds.len() - 1
                    }
                })
                .collect();
            pred_ix.push(row);
        }
        let np = preds.len();
        let mut contains = vec![vec![false; np]; np];
        for (i, row) in contains.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = i == j || prove(preds[i], preds[j]);
            }
        }
        // Predicate-equivalence classes: mutual proved containment.
        let mut pred_class = vec![usize::MAX; np];
        let mut n_pred_classes = 0;
        for i in 0..np {
            pred_class[i] = (0..i)
                .find(|&j| contains[i][j] && contains[j][i])
                .map_or_else(
                    || {
                        n_pred_classes += 1;
                        n_pred_classes - 1
                    },
                    |j| pred_class[j],
                );
        }
        // Class-level containment: any representative pair proves.
        let mut pc_contains = vec![vec![false; n_pred_classes]; n_pred_classes];
        for (i, row) in contains.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if c {
                    pc_contains[pred_class[i]][pred_class[j]] = true;
                }
            }
        }
        // Nodes, fetch classes, probe signatures.
        let mut nodes: Vec<StepNode> = Vec::new();
        let mut class_members: Vec<Vec<usize>> = Vec::new();
        let mut class_source: Vec<SourceId> = Vec::new();
        let mut class_pred: Vec<usize> = Vec::new();
        let mut class_of_key: Vec<((usize, usize), usize)> = Vec::new();
        let mut probe_sigs: Vec<(String, usize)> = Vec::new();
        for (q, p) in plans.iter().enumerate() {
            let sigs = plan_signatures(p.plan, &pred_ix[q], &pred_class);
            for (t, s) in p.plan.steps.iter().enumerate() {
                let (source, cond, probe) = match s {
                    Step::Sq { cond, source, .. } => (*source, *cond, false),
                    Step::Sjq { cond, source, .. } | Step::SjqBloom { cond, source, .. } => {
                        (*source, *cond, true)
                    }
                    _ => continue,
                };
                let pc = pred_class[pred_ix[q][cond.0]];
                let idx = nodes.len();
                let class = if probe {
                    probe_sigs.push((sigs[t].clone(), idx));
                    None
                } else {
                    let key = (source.0, pc);
                    let c = match class_of_key.iter().find(|(k, _)| *k == key) {
                        Some(&(_, c)) => c,
                        None => {
                            class_members.push(Vec::new());
                            class_source.push(source);
                            class_pred.push(pc);
                            class_of_key.push((key, class_members.len() - 1));
                            class_members.len() - 1
                        }
                    };
                    class_members[c].push(idx);
                    Some(c)
                };
                nodes.push(StepNode {
                    query: q,
                    qid: p.qid,
                    step: t,
                    source,
                    cond,
                    pred_class: pc,
                    class,
                    probe,
                });
            }
        }
        let nc = class_members.len();
        let mut class_contains = vec![vec![false; nc]; nc];
        for (a, row) in class_contains.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                *cell = a != b
                    && class_source[a] == class_source[b]
                    && class_pred[a] != class_pred[b]
                    && pc_contains[class_pred[a]][class_pred[b]];
            }
        }
        // Batchable probes: byte-equal signatures spanning >= 2 queries
        // (intra-query duplicates are `duplicate-query`'s finding).
        let mut probe_batches: Vec<Vec<usize>> = Vec::new();
        let mut grouped: Vec<bool> = vec![false; probe_sigs.len()];
        for i in 0..probe_sigs.len() {
            if grouped[i] {
                continue;
            }
            let mut batch = vec![probe_sigs[i].1];
            for j in i + 1..probe_sigs.len() {
                if !grouped[j] && probe_sigs[j].0 == probe_sigs[i].0 {
                    grouped[j] = true;
                    batch.push(probe_sigs[j].1);
                }
            }
            let queries: Vec<usize> = batch.iter().map(|&n| nodes[n].query).collect();
            if batch.len() >= 2 && queries.iter().any(|&q| q != queries[0]) {
                probe_batches.push(batch);
            }
        }
        // Edges: cross-query select pairs on one source, plus probe
        // batch members (pairwise equivalent by signature).
        let mut edges: Vec<SharingEdge> = Vec::new();
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                let (a, b) = (&nodes[i], &nodes[j]);
                if a.query == b.query || a.probe || b.probe || a.source != b.source {
                    continue;
                }
                let (ca, cb) = (
                    a.class.expect("select nodes carry a class"),
                    b.class.expect("select nodes carry a class"),
                );
                if ca == cb {
                    edges.push(SharingEdge {
                        from: i,
                        to: j,
                        kind: EdgeKind::Equivalent,
                    });
                } else {
                    if class_contains[ca][cb] {
                        edges.push(SharingEdge {
                            from: i,
                            to: j,
                            kind: EdgeKind::Contains,
                        });
                    }
                    if class_contains[cb][ca] {
                        edges.push(SharingEdge {
                            from: j,
                            to: i,
                            kind: EdgeKind::Contains,
                        });
                    }
                }
            }
        }
        for batch in &probe_batches {
            for (bi, &i) in batch.iter().enumerate() {
                for &j in &batch[bi + 1..] {
                    if nodes[i].query != nodes[j].query {
                        edges.push(SharingEdge {
                            from: i.min(j),
                            to: i.max(j),
                            kind: EdgeKind::Equivalent,
                        });
                    }
                }
            }
        }
        Ok(SharingGraph {
            nodes,
            edges,
            n_pred_classes,
            class_members,
            class_source,
            class_pred,
            class_contains,
            probe_batches,
        })
    }
}

/// Canonical step signatures of one plan: two steps (of any plans over
/// the same predicate-class numbering) with equal signatures provably
/// perform byte-equal exchanges. Union/intersect children are sorted
/// (commutative), difference children are ordered (antitone in the
/// right operand — `A − B` and `B − A` must never unify).
fn plan_signatures(plan: &Plan, pred_ix: &[usize], pred_class: &[usize]) -> Vec<String> {
    let pc = |c: CondId| pred_class[pred_ix[c.0]];
    let mut var_sig: Vec<Option<String>> = vec![None; plan.var_names.len()];
    let mut rel_sig: Vec<Option<String>> = vec![None; plan.rel_names.len()];
    let mut sigs = Vec::with_capacity(plan.steps.len());
    for s in &plan.steps {
        let vs = |v: &crate::plan::VarId, var_sig: &[Option<String>]| {
            var_sig[v.0].clone().unwrap_or_else(|| format!("v?{}", v.0))
        };
        let sig = match s {
            Step::Sq { cond, source, .. } => format!("sq(R{},p{})", source.0, pc(*cond)),
            Step::Sjq {
                cond,
                source,
                input,
                ..
            } => format!("sjq(R{},p{},{})", source.0, pc(*cond), vs(input, &var_sig)),
            Step::SjqBloom {
                cond,
                source,
                input,
                bits,
                ..
            } => format!(
                "sjqb{}(R{},p{},{})",
                bits,
                source.0,
                pc(*cond),
                vs(input, &var_sig)
            ),
            Step::Lq { source, .. } => format!("lq(R{})", source.0),
            Step::LocalSq { cond, rel, .. } => {
                let rs = rel_sig[rel.0]
                    .clone()
                    .unwrap_or_else(|| format!("t?{}", rel.0));
                format!("lsq(p{},{rs})", pc(*cond))
            }
            Step::Union { inputs, .. } => {
                let mut kids: Vec<String> = inputs.iter().map(|v| vs(v, &var_sig)).collect();
                kids.sort_unstable();
                format!("u({})", kids.join(","))
            }
            Step::Intersect { inputs, .. } => {
                let mut kids: Vec<String> = inputs.iter().map(|v| vs(v, &var_sig)).collect();
                kids.sort_unstable();
                format!("i({})", kids.join(","))
            }
            Step::Diff { left, right, .. } => {
                format!("d({},{})", vs(left, &var_sig), vs(right, &var_sig))
            }
        };
        if let Some(out) = s.defined_var() {
            var_sig[out.0] = Some(sig.clone());
        }
        if let Step::Lq { out, .. } = s {
            rel_sig[out.0] = Some(sig.clone());
        }
        sigs.push(sig);
    }
    sigs
}

/// One fan-out target of a merged fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanOut {
    /// The served select node.
    pub node: usize,
    /// True when the follower's condition is *properly* contained in
    /// the leader's: the harvest must pass through a residual filter.
    pub residual: bool,
}

/// One merged exchange: a leader performs the fetch, every follower is
/// served from its harvest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedFetch {
    /// The fetch class whose predicate is shipped.
    pub class: usize,
    /// The contacted source.
    pub source: SourceId,
    /// The select node performing the one exchange (smallest
    /// `(query, step)` of the class).
    pub leader: usize,
    /// Served nodes, ascending by node index.
    pub followers: Vec<FanOut>,
}

/// The merged schedule over a sharing graph: one exchange per fetching
/// class, fan-out to every waiting query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergedSchedule {
    /// The merged exchanges, ascending by class.
    pub fetches: Vec<MergedFetch>,
}

/// Derives the merged schedule from a sharing graph.
///
/// Every fetch class either *fetches* (performs its own exchange) or
/// *redirects* to a fetching class that provably properly contains it.
/// Because the prover is incomplete, a redirect needs a **direct**
/// proof against the class that actually fetches — a class whose only
/// proved containers themselves redirect fetches on its own, rather
/// than assuming a transitive chain of proofs.
pub fn merged_schedule(graph: &SharingGraph) -> MergedSchedule {
    let nc = graph.class_members.len();
    // Root classes: no proved container at all.
    let is_root: Vec<bool> = (0..nc)
        .map(|b| (0..nc).all(|a| !graph.class_contains[a][b]))
        .collect();
    // A non-root redirects to its smallest *root* container (direct
    // proof by construction of `class_contains`); if every container is
    // itself contained, the class fetches for itself.
    let redirect: Vec<Option<usize>> = (0..nc)
        .map(|b| {
            if is_root[b] {
                None
            } else {
                (0..nc).find(|&a| is_root[a] && graph.class_contains[a][b])
            }
        })
        .collect();
    let mut fetches = Vec::new();
    for c in 0..nc {
        if redirect[c].is_some() {
            continue;
        }
        let leader = graph.class_members[c][0];
        let mut followers: Vec<FanOut> = graph.class_members[c][1..]
            .iter()
            .map(|&n| FanOut {
                node: n,
                residual: false,
            })
            .collect();
        for (b, r) in redirect.iter().enumerate() {
            if *r == Some(c) {
                followers.extend(graph.class_members[b].iter().map(|&n| FanOut {
                    node: n,
                    residual: true,
                }));
            }
        }
        followers.sort_unstable_by_key(|f| f.node);
        fetches.push(MergedFetch {
            class: c,
            source: graph.class_source[c],
            leader,
            followers,
        });
    }
    MergedSchedule { fetches }
}

/// The checked certificate of a merged schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeCertificate {
    /// Merged exchanges performed.
    pub exchanges: usize,
    /// Select nodes served from another query's harvest.
    pub served: usize,
    /// Served nodes that pass through a residual filter.
    pub residuals: usize,
    /// Containment obligations discharged by the prover.
    pub containments_proved: usize,
    /// Conflicting event pairs ordered by the fan-out discipline.
    pub ordered_pairs: usize,
}

/// Verifies a merged schedule against the plans it claims to serve,
/// re-proving every fan-out edge and checking the schedule's
/// [`Resource::SharedFetch`] footprints. Accepts exactly the schedules
/// whose merged execution is byte-equivalent to isolated execution:
///
/// * every select node plays exactly one role (leader or follower);
/// * a fetch's leader and followers contact one source;
/// * an exact (non-residual) serve is proved equivalent *both ways*; a
///   residual serve is proved contained in the leader's condition;
/// * assigning each fetch one `SharedFetch(source, class)` slot — the
///   leader writes it, followers read it — every conflicting event
///   pair is ordered by the leader-publishes-first fan-out discipline.
///   Two fetches of one class are a write–write conflict no discipline
///   orders, so duplicated exchanges are rejected here.
///
/// # Errors
/// Fails with the first violated obligation.
pub fn verify_merged_schedule(
    plans: &[InFlightPlan<'_>],
    graph: &SharingGraph,
    schedule: &MergedSchedule,
    prove: Prover<'_>,
) -> Result<MergeCertificate> {
    let fail = |msg: String| {
        Err(FusionError::invalid_plan(format!(
            "merge certificate: {msg}"
        )))
    };
    let pred = |n: &StepNode| plans[n.query].pred(n.cond);
    let mut role: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut containments_proved = 0usize;
    let mut served = 0usize;
    let mut residuals = 0usize;
    for (fi, fetch) in schedule.fetches.iter().enumerate() {
        let leader = &graph.nodes[fetch.leader];
        if leader.probe || leader.source != fetch.source {
            return fail(format!(
                "fetch of class {} led by {}, which is not a selection on R{}",
                fetch.class,
                leader.label(),
                fetch.source.0 + 1
            ));
        }
        if role[fetch.leader].replace(fi).is_some() {
            return fail(format!("{} plays two roles", leader.label()));
        }
        for f in &fetch.followers {
            let n = &graph.nodes[f.node];
            if n.probe || n.source != fetch.source {
                return fail(format!(
                    "{} cannot be served from {}'s harvest of R{}",
                    n.label(),
                    leader.label(),
                    fetch.source.0 + 1
                ));
            }
            if role[f.node].replace(fi).is_some() {
                return fail(format!("{} plays two roles", n.label()));
            }
            if !prove(pred(leader), pred(n)) {
                return fail(format!(
                    "serving {} from {}'s harvest has no containment proof",
                    n.label(),
                    leader.label()
                ));
            }
            containments_proved += 1;
            served += 1;
            if f.residual {
                residuals += 1;
            } else if !prove(pred(n), pred(leader)) {
                return fail(format!(
                    "{} is served {}'s harvest without a residual filter, \
                     but only one-way containment is proved",
                    n.label(),
                    leader.label()
                ));
            } else {
                containments_proved += 1;
            }
        }
    }
    for (i, n) in graph.nodes.iter().enumerate() {
        if !n.probe && role[i].is_none() {
            return fail(format!(
                "{} is scheduled neither to fetch nor to serve",
                n.label()
            ));
        }
    }
    // Footprint check over the shared-fetch slots: leader writes, every
    // follower reads; conflicts are legal only when the fan-out
    // discipline orders them (same fetch, exactly one side the leader).
    let mut events: Vec<(usize, bool, Footprint)> = Vec::new();
    for (fi, fetch) in schedule.fetches.iter().enumerate() {
        let slot = Resource::SharedFetch(fetch.source.0, fetch.class);
        events.push((
            fi,
            true,
            Footprint {
                reads: vec![],
                writes: vec![slot],
            },
        ));
        for _ in &fetch.followers {
            events.push((
                fi,
                false,
                Footprint {
                    reads: vec![slot],
                    writes: vec![],
                },
            ));
        }
    }
    let mut ordered_pairs = 0usize;
    for (i, (fa, la, a)) in events.iter().enumerate() {
        for (fb, lb, b) in events.iter().skip(i + 1) {
            let Some(r) = a.conflicts_with(b) else {
                continue;
            };
            if fa == fb && la != lb {
                ordered_pairs += 1;
            } else {
                return fail(format!(
                    "unordered schedule events conflict on {r}: the fan-out \
                     discipline orders only a leader against its own \
                     followers (duplicated exchange for one class?)"
                ));
            }
        }
    }
    Ok(MergeCertificate {
        exchanges: schedule.fetches.len(),
        served,
        residuals,
        containments_proved,
        ordered_pairs,
    })
}

/// A sharing analysis bundle: graph, schedule, and checked certificate.
#[derive(Debug, Clone)]
pub struct SharingReport {
    /// The sharing graph.
    pub graph: SharingGraph,
    /// The derived merged schedule.
    pub schedule: MergedSchedule,
    /// The certificate [`verify_merged_schedule`] issued for it.
    pub certificate: MergeCertificate,
}

/// Builds the sharing graph, derives the merged schedule, and verifies
/// it — the one-call entry point the server and the CLI use.
///
/// # Errors
/// Fails on invalid plans and on any certificate failure (which would
/// indicate a bug in this module, never silently).
pub fn sharing_report(plans: &[InFlightPlan<'_>], prove: Prover<'_>) -> Result<SharingReport> {
    let graph = SharingGraph::build(plans, prove)?;
    let schedule = merged_schedule(&graph);
    let certificate = verify_merged_schedule(plans, &graph, &schedule, prove)?;
    Ok(SharingReport {
        graph,
        schedule,
        certificate,
    })
}

/// Node → `(fetch index, is_leader)` role map under a schedule; nodes
/// absent from the schedule map to `None`.
fn roles(graph: &SharingGraph, schedule: &MergedSchedule) -> Vec<Option<(usize, bool)>> {
    let mut role = vec![None; graph.nodes.len()];
    for (fi, fetch) in schedule.fetches.iter().enumerate() {
        role[fetch.leader] = Some((fi, true));
        for f in &fetch.followers {
            role[f.node] = Some((fi, false));
        }
    }
    role
}

fn sq_word(n: &StepNode) -> String {
    format!("sq(c{}, R{})", n.cond.0 + 1, n.source.0 + 1)
}

/// `duplicate-inflight-step` findings: two in-flight queries both
/// exchange provably equivalent selections although either could serve
/// from the other's harvest.
pub fn duplicate_inflight_findings(
    _plans: &[InFlightPlan<'_>],
    graph: &SharingGraph,
    schedule: &MergedSchedule,
) -> Vec<Diagnostic> {
    let role = roles(graph, schedule);
    let mut out = Vec::new();
    for e in &graph.edges {
        if e.kind != EdgeKind::Equivalent {
            continue;
        }
        let (a, b) = (&graph.nodes[e.from], &graph.nodes[e.to]);
        if a.probe || b.probe {
            continue;
        }
        // Neither serves from the other's fetch: distinct exchanges.
        let (Some((fa, _)), Some((fb, _))) = (role[e.from], role[e.to]) else {
            continue;
        };
        if fa == fb {
            continue;
        }
        out.push(Diagnostic {
            rule: "duplicate-inflight-step",
            severity: Severity::Warning,
            step: b.step + 1,
            message: format!(
                "{} and {} both exchange {} for provably equivalent \
                 conditions; witness: duplicate [{la}:fetch; {lb}:fetch] \
                 vs merged [{la}:fetch; {lb}:serve«{la}»]",
                a.label(),
                b.label(),
                sq_word(a),
                la = a.label(),
                lb = b.label(),
            ),
        });
    }
    out
}

/// `unshared-subsumed-step` findings: a class fetches remotely although
/// a proved broader class is fetching in the same schedule — the
/// narrower harvest is a residual filter away from free.
pub fn unshared_subsumed_findings(
    _plans: &[InFlightPlan<'_>],
    graph: &SharingGraph,
    schedule: &MergedSchedule,
) -> Vec<Diagnostic> {
    let fetching: Vec<usize> = schedule.fetches.iter().map(|f| f.class).collect();
    let mut out = Vec::new();
    for fetch in &schedule.fetches {
        let narrow = &graph.nodes[fetch.leader];
        let Some(broad_class) = fetching
            .iter()
            .copied()
            .find(|&a| graph.class_contains[a][fetch.class])
        else {
            continue;
        };
        let broad_leader = schedule
            .fetches
            .iter()
            .find(|f| f.class == broad_class)
            .map_or(graph.class_members[broad_class][0], |f| f.leader);
        let broad = &graph.nodes[broad_leader];
        out.push(Diagnostic {
            rule: "unshared-subsumed-step",
            severity: Severity::Warning,
            step: narrow.step + 1,
            message: format!(
                "{} exchanges {} although {}'s {} provably contains it; \
                 witness: unshared [{lb}:fetch; {ln}:fetch] vs merged \
                 [{lb}:fetch; {ln}:serve«{lb}»+residual]",
                narrow.label(),
                sq_word(narrow),
                broad.label(),
                sq_word(broad),
                lb = broad.label(),
                ln = narrow.label(),
            ),
        });
    }
    out
}

/// `unsound-merge-residual` findings: a fan-out edge whose containment
/// the prover cannot discharge, or a proper containment served without
/// its residual filter — either way merged execution can diverge from
/// isolated execution.
pub fn unsound_merge_findings(
    plans: &[InFlightPlan<'_>],
    graph: &SharingGraph,
    schedule: &MergedSchedule,
    prove: Prover<'_>,
) -> Vec<Diagnostic> {
    let pred = |n: &StepNode| plans[n.query].pred(n.cond);
    let mut out = Vec::new();
    for fetch in &schedule.fetches {
        let leader = &graph.nodes[fetch.leader];
        for f in &fetch.followers {
            let n = &graph.nodes[f.node];
            let (defect, fix) = if !prove(pred(leader), pred(n)) {
                (
                    "has no containment proof".to_string(),
                    format!("isolated [{}:fetch]", n.label()),
                )
            } else if !f.residual && !prove(pred(n), pred(leader)) {
                (
                    "drops the residual filter on a proper containment".to_string(),
                    format!("sound [{}:serve«{}»+residual]", n.label(), leader.label()),
                )
            } else {
                continue;
            };
            out.push(Diagnostic {
                rule: "unsound-merge-residual",
                severity: Severity::Error,
                step: n.step + 1,
                message: format!(
                    "serving {}'s {} from {}'s {} {defect}: merged execution \
                     can diverge from isolated; witness: merged \
                     [{ll}:fetch; {ln}:serve«{ll}»] vs {fix}",
                    n.label(),
                    sq_word(n),
                    leader.label(),
                    sq_word(leader),
                    ll = leader.label(),
                    ln = n.label(),
                ),
            });
        }
    }
    out
}

/// One logged share link of a server run: a follower admission that
/// attached to a leader's in-flight fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareLink {
    /// The follower's admission ticket.
    pub follower: u64,
    /// The leader's admission ticket.
    pub leader: u64,
}

/// Verifies the share windows of a server run: every logged share link
/// must attach a follower to a query that was **admitted before it**
/// (`leader admit < follower admit`) and **still uncommitted at its
/// admission** (`follower admit < leader commit`, when the leader
/// committed). `admits` holds every admission ticket, `commits` maps
/// admission tickets to commit tickets. Returns the number of links
/// checked — the always-on dynamic guard behind the fan-out discipline.
///
/// # Errors
/// Fails with the violated window.
pub fn verify_share_windows(
    links: &[ShareLink],
    admits: &[u64],
    commits: &[(u64, u64)],
) -> Result<usize> {
    let fail = |msg: String| {
        Err(FusionError::invalid_plan(format!(
            "share-window certificate: {msg}"
        )))
    };
    for l in links {
        if !admits.contains(&l.leader) {
            return fail(format!(
                "ticket {} served from unknown admission {}",
                l.follower, l.leader
            ));
        }
        if l.leader >= l.follower {
            return fail(format!(
                "ticket {} served from leader {} admitted at or after it — \
                 followers may only attach to earlier admissions",
                l.follower, l.leader
            ));
        }
        if let Some(&(_, ct)) = commits.iter().find(|&&(a, _)| a == l.leader) {
            if ct <= l.follower {
                return fail(format!(
                    "ticket {} attached to leader {} after its commit \
                     (ticket {ct}) — the fetch slot was already drained",
                    l.follower, l.leader
                ));
            }
        }
    }
    Ok(links.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::VarId;
    use fusion_types::CmpOp;

    fn ge(v: i64) -> Predicate {
        Predicate::cmp("D", CmpOp::Ge, v)
    }

    /// Hand prover: `D >= a` contains `D >= b` iff `b >= a`; everything
    /// else only by syntactic equality.
    fn hand_prover(broad: &Predicate, narrow: &Predicate) -> bool {
        match (broad, narrow) {
            (
                Predicate::Cmp {
                    attr: a,
                    op: CmpOp::Ge,
                    value: va,
                },
                Predicate::Cmp {
                    attr: b,
                    op: CmpOp::Ge,
                    value: vb,
                },
            ) if a == b => match (va.as_f64(), vb.as_f64()) {
                (Some(x), Some(y)) => y >= x,
                _ => va == vb,
            },
            _ => broad == narrow,
        }
    }

    /// A one-selection plan `sq(c1, R{src+1})`.
    fn sq_plan(src: usize) -> Plan {
        let mut p = Plan::new(vec![], VarId(0), 1, src + 1);
        let x = p.fresh_var("X");
        p.steps = vec![Step::Sq {
            out: x,
            cond: CondId(0),
            source: SourceId(src),
        }];
        p.result = x;
        p
    }

    fn conds(preds: Vec<Predicate>) -> Vec<Condition> {
        preds.into_iter().map(Condition::from).collect()
    }

    fn inflight<'a>(qid: u64, plan: &'a Plan, conditions: &'a [Condition]) -> InFlightPlan<'a> {
        InFlightPlan {
            qid,
            plan,
            conditions,
        }
    }

    #[test]
    fn equivalent_steps_merge_into_one_exchange() {
        let (pa, pb) = (sq_plan(1), sq_plan(1));
        let (ca, cb) = (conds(vec![ge(1990)]), conds(vec![ge(1990)]));
        let plans = vec![inflight(1, &pa, &ca), inflight(2, &pb, &cb)];
        let report = sharing_report(&plans, &hand_prover).unwrap();
        assert_eq!(report.graph.nodes.len(), 2);
        assert_eq!(report.graph.edges.len(), 1);
        assert_eq!(report.graph.edges[0].kind, EdgeKind::Equivalent);
        assert_eq!(report.schedule.fetches.len(), 1);
        let f = &report.schedule.fetches[0];
        assert_eq!(f.leader, 0);
        assert_eq!(
            f.followers,
            vec![FanOut {
                node: 1,
                residual: false
            }]
        );
        assert_eq!(report.certificate.exchanges, 1);
        assert_eq!(report.certificate.served, 1);
        assert_eq!(report.certificate.residuals, 0);
        assert_eq!(report.certificate.ordered_pairs, 1);
        // The derived schedule is lint-quiet.
        let (g, sched) = (&report.graph, &report.schedule);
        assert!(duplicate_inflight_findings(&plans, g, sched).is_empty());
        assert!(unshared_subsumed_findings(&plans, g, sched).is_empty());
        assert!(unsound_merge_findings(&plans, g, sched, &hand_prover).is_empty());
    }

    #[test]
    fn proper_containment_redirects_through_a_residual() {
        let (pa, pb) = (sq_plan(0), sq_plan(0));
        let (ca, cb) = (conds(vec![ge(1990)]), conds(vec![ge(1995)]));
        let plans = vec![inflight(1, &pa, &ca), inflight(2, &pb, &cb)];
        let report = sharing_report(&plans, &hand_prover).unwrap();
        // One Contains edge, broad -> narrow.
        assert_eq!(report.graph.edges.len(), 1);
        assert_eq!(report.graph.edges[0].kind, EdgeKind::Contains);
        assert_eq!(report.graph.edges[0].from, 0);
        assert_eq!(report.schedule.fetches.len(), 1);
        assert_eq!(
            report.schedule.fetches[0].followers,
            vec![FanOut {
                node: 1,
                residual: true
            }]
        );
        assert_eq!(report.certificate.residuals, 1);
    }

    #[test]
    fn unrelated_conditions_fetch_separately() {
        let (pa, pb) = (sq_plan(0), sq_plan(0));
        let (ca, cb) = (
            conds(vec![ge(1990)]),
            conds(vec![Predicate::eq("V", "dui")]),
        );
        let plans = vec![inflight(1, &pa, &ca), inflight(2, &pb, &cb)];
        let report = sharing_report(&plans, &hand_prover).unwrap();
        assert!(report.graph.edges.is_empty());
        assert_eq!(report.schedule.fetches.len(), 2);
        assert!(report
            .schedule
            .fetches
            .iter()
            .all(|f| f.followers.is_empty()));
        assert_eq!(report.certificate.served, 0);
    }

    #[test]
    fn redirects_need_a_direct_proof_never_transitivity() {
        // A chain prover that proves A ⊇ B and B ⊇ C but *not* A ⊇ C:
        // an incomplete prover's world. C's only proved container (B)
        // redirects itself, so C must fetch on its own.
        let chain = |broad: &Predicate, narrow: &Predicate| -> bool {
            let (a, b, c) = (ge(1990), ge(1995), ge(2000));
            (broad, narrow) == (&a, &b) || (broad, narrow) == (&b, &c) || broad == narrow
        };
        let (pa, pb, pc) = (sq_plan(0), sq_plan(0), sq_plan(0));
        let (ca, cb, cc) = (
            conds(vec![ge(1990)]),
            conds(vec![ge(1995)]),
            conds(vec![ge(2000)]),
        );
        let plans = vec![
            inflight(1, &pa, &ca),
            inflight(2, &pb, &cb),
            inflight(3, &pc, &cc),
        ];
        let report = sharing_report(&plans, &chain).unwrap();
        // B serves from A; C fetches for itself.
        assert_eq!(report.schedule.fetches.len(), 2);
        assert_eq!(report.schedule.fetches[0].leader, 0);
        assert_eq!(
            report.schedule.fetches[0].followers,
            vec![FanOut {
                node: 1,
                residual: true
            }]
        );
        assert_eq!(report.schedule.fetches[1].leader, 2);
        assert!(report.schedule.fetches[1].followers.is_empty());
        // The unshared lint still points at the missed chain: C's class
        // is contained in B's, which fetches... it does not — B
        // redirects. No fetching class contains C, so the lint is quiet.
        let findings = unshared_subsumed_findings(&plans, &report.graph, &report.schedule);
        assert!(findings.is_empty(), "{findings:?}");
    }

    /// A plan probing `sjq(c2, R2, X)` where `X = sq(c1, R1) − sq(c2, R1)`
    /// or the mirrored difference, to exercise antitone signatures.
    fn diff_probe_plan(mirror: bool) -> Plan {
        let mut p = Plan::new(vec![], VarId(0), 2, 2);
        let a = p.fresh_var("A");
        let b = p.fresh_var("B");
        let d = p.fresh_var("D");
        let y = p.fresh_var("Y");
        let (l, r) = if mirror { (b, a) } else { (a, b) };
        p.steps = vec![
            Step::Sq {
                out: a,
                cond: CondId(0),
                source: SourceId(0),
            },
            Step::Sq {
                out: b,
                cond: CondId(1),
                source: SourceId(0),
            },
            Step::Diff {
                out: d,
                left: l,
                right: r,
            },
            Step::Sjq {
                out: y,
                cond: CondId(1),
                source: SourceId(1),
                input: d,
            },
        ];
        p.result = y;
        p
    }

    #[test]
    fn probe_batches_require_byte_equal_signatures() {
        let cs = conds(vec![ge(1990), ge(1995)]);
        // Same shape: the probes batch.
        let (pa, pb) = (diff_probe_plan(false), diff_probe_plan(false));
        let plans = vec![inflight(1, &pa, &cs), inflight(2, &pb, &cs)];
        let g = SharingGraph::build(&plans, &hand_prover).unwrap();
        assert_eq!(g.probe_batches.len(), 1);
        assert_eq!(g.probe_batches[0].len(), 2);
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Equivalent && g.nodes[e.from].probe));
        // Mirrored difference: `A − B` vs `B − A` is antitone in the
        // swapped operand — the signatures differ, nothing batches.
        let pm = diff_probe_plan(true);
        let plans = vec![inflight(1, &pa, &cs), inflight(2, &pm, &cs)];
        let g = SharingGraph::build(&plans, &hand_prover).unwrap();
        assert!(g.probe_batches.is_empty());
        assert!(!g
            .edges
            .iter()
            .any(|e| g.nodes[e.from].probe || g.nodes[e.to].probe));
    }

    #[test]
    fn union_signatures_are_commutative() {
        // u(sq A, sq B) and u(sq B, sq A) batch the downstream probe.
        let build = |swap: bool| {
            let mut p = Plan::new(vec![], VarId(0), 2, 2);
            let a = p.fresh_var("A");
            let b = p.fresh_var("B");
            let u = p.fresh_var("U");
            let y = p.fresh_var("Y");
            p.steps = vec![
                Step::Sq {
                    out: a,
                    cond: CondId(0),
                    source: SourceId(0),
                },
                Step::Sq {
                    out: b,
                    cond: CondId(1),
                    source: SourceId(0),
                },
                Step::Union {
                    out: u,
                    inputs: if swap { vec![b, a] } else { vec![a, b] },
                },
                Step::Sjq {
                    out: y,
                    cond: CondId(0),
                    source: SourceId(1),
                    input: u,
                },
            ];
            p.result = y;
            p
        };
        let cs = conds(vec![ge(1990), Predicate::eq("V", "dui")]);
        let (pa, pb) = (build(false), build(true));
        let plans = vec![inflight(1, &pa, &cs), inflight(2, &pb, &cs)];
        let g = SharingGraph::build(&plans, &hand_prover).unwrap();
        assert_eq!(g.probe_batches.len(), 1);
    }

    #[test]
    fn duplicate_inflight_mutant_fires_and_fails_the_certificate() {
        let (pa, pb) = (sq_plan(1), sq_plan(1));
        let (ca, cb) = (conds(vec![ge(1990)]), conds(vec![ge(1990)]));
        let plans = vec![inflight(1, &pa, &ca), inflight(2, &pb, &cb)];
        let g = SharingGraph::build(&plans, &hand_prover).unwrap();
        // Mutant: both queries exchange — today's first-fetches/rest-hit
        // behavior, one fetch per node.
        let mutant = MergedSchedule {
            fetches: vec![
                MergedFetch {
                    class: 0,
                    source: SourceId(1),
                    leader: 0,
                    followers: vec![],
                },
                MergedFetch {
                    class: 0,
                    source: SourceId(1),
                    leader: 1,
                    followers: vec![],
                },
            ],
        };
        let findings = duplicate_inflight_findings(&plans, &g, &mutant);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(findings[0].message.contains("witness"), "{}", findings[0]);
        assert!(
            findings[0].message.contains("serve«q1#1»"),
            "{}",
            findings[0]
        );
        // Two writers of one shared-fetch slot: the certificate refuses.
        let err = verify_merged_schedule(&plans, &g, &mutant, &hand_prover).unwrap_err();
        assert!(err.to_string().contains("unordered"), "{err}");
        // The derived schedule is quiet.
        let good = merged_schedule(&g);
        assert!(duplicate_inflight_findings(&plans, &g, &good).is_empty());
    }

    #[test]
    fn unshared_subsumed_mutant_fires_but_stays_sound() {
        let (pa, pb) = (sq_plan(0), sq_plan(0));
        let (ca, cb) = (conds(vec![ge(1990)]), conds(vec![ge(1995)]));
        let plans = vec![inflight(1, &pa, &ca), inflight(2, &pb, &cb)];
        let g = SharingGraph::build(&plans, &hand_prover).unwrap();
        // Mutant: the narrow class fetches although the broad one does.
        let mutant = MergedSchedule {
            fetches: vec![
                MergedFetch {
                    class: 0,
                    source: SourceId(0),
                    leader: 0,
                    followers: vec![],
                },
                MergedFetch {
                    class: 1,
                    source: SourceId(0),
                    leader: 1,
                    followers: vec![],
                },
            ],
        };
        let findings = unshared_subsumed_findings(&plans, &g, &mutant);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(
            findings[0].message.contains("serve«q1#1»+residual"),
            "{}",
            findings[0]
        );
        // Wasteful but sound: the certificate still passes.
        let cert = verify_merged_schedule(&plans, &g, &mutant, &hand_prover).unwrap();
        assert_eq!(cert.exchanges, 2);
        assert_eq!(cert.served, 0);
        // The derived schedule is quiet.
        let good = merged_schedule(&g);
        assert!(unshared_subsumed_findings(&plans, &g, &good).is_empty());
    }

    #[test]
    fn unsound_merge_mutants_fire_and_fail_the_certificate() {
        let (pa, pb) = (sq_plan(0), sq_plan(0));
        let (ca, cb) = (conds(vec![ge(1990)]), conds(vec![ge(1995)]));
        let plans = vec![inflight(1, &pa, &ca), inflight(2, &pb, &cb)];
        let g = SharingGraph::build(&plans, &hand_prover).unwrap();
        // Mutant 1: the proper containment is served *without* its
        // residual filter — extra tuples leak into the narrow answer.
        let no_residual = MergedSchedule {
            fetches: vec![MergedFetch {
                class: 0,
                source: SourceId(0),
                leader: 0,
                followers: vec![FanOut {
                    node: 1,
                    residual: false,
                }],
            }],
        };
        let findings = unsound_merge_findings(&plans, &g, &no_residual, &hand_prover);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(
            findings[0].message.contains("residual filter"),
            "{}",
            findings[0]
        );
        assert!(verify_merged_schedule(&plans, &g, &no_residual, &hand_prover).is_err());
        // Mutant 2: the containment runs the wrong way — the *narrow*
        // class fans out to the broad one. No proof exists.
        let inverted = MergedSchedule {
            fetches: vec![MergedFetch {
                class: 1,
                source: SourceId(0),
                leader: 1,
                followers: vec![FanOut {
                    node: 0,
                    residual: true,
                }],
            }],
        };
        let findings = unsound_merge_findings(&plans, &g, &inverted, &hand_prover);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("no containment proof"),
            "{}",
            findings[0]
        );
        let err = verify_merged_schedule(&plans, &g, &inverted, &hand_prover).unwrap_err();
        assert!(err.to_string().contains("no containment proof"), "{err}");
        // The derived schedule passes and is lint-quiet.
        let report = sharing_report(&plans, &hand_prover).unwrap();
        assert!(unsound_merge_findings(&plans, &g, &report.schedule, &hand_prover).is_empty());
    }

    #[test]
    fn certificate_rejects_dropped_and_double_roles() {
        let (pa, pb) = (sq_plan(0), sq_plan(0));
        let (ca, cb) = (conds(vec![ge(1990)]), conds(vec![ge(1990)]));
        let plans = vec![inflight(1, &pa, &ca), inflight(2, &pb, &cb)];
        let g = SharingGraph::build(&plans, &hand_prover).unwrap();
        // Dropping the follower leaves a node with no role.
        let dropped = MergedSchedule {
            fetches: vec![MergedFetch {
                class: 0,
                source: SourceId(0),
                leader: 0,
                followers: vec![],
            }],
        };
        let err = verify_merged_schedule(&plans, &g, &dropped, &hand_prover).unwrap_err();
        assert!(err.to_string().contains("neither"), "{err}");
        // Serving the leader from itself is a double role.
        let doubled = MergedSchedule {
            fetches: vec![MergedFetch {
                class: 0,
                source: SourceId(0),
                leader: 0,
                followers: vec![
                    FanOut {
                        node: 0,
                        residual: false,
                    },
                    FanOut {
                        node: 1,
                        residual: false,
                    },
                ],
            }],
        };
        let err = verify_merged_schedule(&plans, &g, &doubled, &hand_prover).unwrap_err();
        assert!(err.to_string().contains("two roles"), "{err}");
    }

    #[test]
    fn share_windows_enforce_admit_and_commit_order() {
        let links = |f: u64, l: u64| {
            vec![ShareLink {
                follower: f,
                leader: l,
            }]
        };
        let admits = vec![1, 3, 5];
        let commits = vec![(1, 7), (3, 4)];
        // Leader admitted first, follower admitted before its commit.
        assert_eq!(
            verify_share_windows(&links(3, 1), &admits, &commits).unwrap(),
            1
        );
        assert_eq!(
            verify_share_windows(&links(5, 1), &admits, &commits).unwrap(),
            1
        );
        // Follower admitted after the leader's commit: the slot was
        // already drained.
        let err = verify_share_windows(&links(5, 3), &admits, &commits).unwrap_err();
        assert!(err.to_string().contains("after its commit"), "{err}");
        // Leader admitted after the follower.
        let err = verify_share_windows(&links(1, 3), &admits, &commits).unwrap_err();
        assert!(err.to_string().contains("earlier admissions"), "{err}");
        // Unknown leader ticket.
        let err = verify_share_windows(&links(3, 2), &admits, &commits).unwrap_err();
        assert!(err.to_string().contains("unknown admission"), "{err}");
        // Empty logs always certify.
        assert_eq!(verify_share_windows(&[], &[], &[]).unwrap(), 0);
    }
}
