//! Deterministic schedule model-checking for fusion query executors.
//!
//! The static interference analysis
//! ([`fusion_core::dataflow::interference_report`]) claims that a plan's
//! certified stage schedule is conflict-free: every pair of events that
//! touches the same shared resource (a variable slot, a source's network
//! shard, a cache key, an epoch counter) is ordered by happens-before.
//! This crate discharges that claim *operationally*: it enumerates the
//! linearizations of the certified event graph — with a persistent-set
//! style reduction that only branches where two enabled events actually
//! conflict — replays each one through the single-event replay executor
//! ([`fusion_exec::execute_plan_replay`]), and asserts that every
//! schedule produces the byte-identical answer, ledger, completeness,
//! exchange trace, and cache state as the sequential reference
//! executors. An interference-free graph therefore is not merely
//! *believed* linearizable; it is checked, schedule by schedule.
//!
//! The same machinery runs *mutant* graphs: feed [`check_schedules`] an
//! event graph with an edge deliberately removed or inverted (say, the
//! epoch bump reordered after the cache admission) and the checker finds
//! the two linearizations whose outcomes diverge — the executable
//! counterpart of the static analyzer's witness schedules.
//!
//! # Scope
//!
//! The checker explores *event orderings*, not instruction-level
//! interleavings: the per-event code is the same code the production
//! executors run, so an ordering is exactly the freedom a real scheduler
//! has. Retry deadlines are the one caveat (see
//! [`fusion_exec::execute_plan_replay`]): with a deadline set, "cost
//! spent so far" legitimately depends on schedule, so checking is
//! restricted to deadline-free policies.

use fusion_cache::AnswerCache;
use fusion_core::cost::NetworkCostModel;
use fusion_core::dataflow::{stage_decomposition, Event, EventGraph};
use fusion_core::plan::Plan;
use fusion_core::plan::SimplePlanSpec;
use fusion_core::query::FusionQuery;
use fusion_core::sja_optimal;
use fusion_exec::{
    execute_plan, execute_plan_replay, execute_plan_with, replay_plan_reopt, replay_serial, serve,
    verify_replay_parity, ExecutionOutcome, ReoptOutcome, ReplayOptions, RetryPolicy, ServerConfig,
    ServerReport, TenantEvent,
};
use fusion_net::Network;
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};

/// Tuning knobs for a model-checking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Cap on enumerated schedules. Reduction usually keeps the count
    /// tiny (an interference-free graph collapses to one schedule); the
    /// cap bounds mutant graphs whose conflicts branch combinatorially.
    pub max_schedules: usize,
    /// Extra seeded random linearizations replayed on top of the reduced
    /// enumeration — a safety net past the reduction's pruning.
    pub extra_linearizations: usize,
    /// Seed for the random linearizations.
    pub seed: u64,
    /// `Some(budget)` checks cached-executor semantics: each schedule
    /// replays against a fresh cache of this byte budget, then a second
    /// reference round probes the cache state the schedule left behind.
    pub cache_budget: Option<usize>,
    /// Replay options; `guard_commits: false` runs mutant admission
    /// semantics (see [`ReplayOptions`]).
    pub options: ReplayOptions,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            max_schedules: 256,
            extra_linearizations: 16,
            seed: 0x5eed_cafe,
            cache_budget: None,
            options: ReplayOptions::default(),
        }
    }
}

impl CheckConfig {
    /// Switches on cached-executor checking with the given cache budget.
    #[must_use]
    pub fn cached(mut self, budget: usize) -> CheckConfig {
        self.cache_budget = Some(budget);
        self
    }

    /// Replaces the replay options (e.g. to disable the commit guard).
    #[must_use]
    pub fn with_options(mut self, options: ReplayOptions) -> CheckConfig {
        self.options = options;
        self
    }
}

/// Two schedules whose replayed outcomes differ byte-for-byte.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The baseline schedule (the sequential reference order).
    pub baseline: Vec<Event>,
    /// The diverging schedule.
    pub schedule: Vec<Event>,
    /// The baseline's outcome fingerprint.
    pub baseline_fingerprint: String,
    /// The diverging schedule's outcome fingerprint.
    pub fingerprint: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let render = |events: &[Event]| {
            events
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            "schedule [{}] diverges from baseline [{}]",
            render(&self.schedule),
            render(&self.baseline)
        )
    }
}

/// What a model-checking run established.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Events in the checked graph.
    pub events: usize,
    /// Schedules replayed (enumerated plus random linearizations).
    pub schedules_run: usize,
    /// Whether enumeration hit [`CheckConfig::max_schedules`].
    pub truncated: bool,
    /// The first divergence found, if any.
    pub divergence: Option<Divergence>,
}

impl CheckReport {
    /// `true` when every replayed schedule agreed with the baseline.
    pub fn linearizable(&self) -> bool {
        self.divergence.is_none()
    }
}

/// A deterministic in-tree LCG (same constants as `fusion-stats`' uses
/// for its streams) — the checker must not depend on ambient entropy.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(2) | 1)
    }

    fn next_index(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// Enumerates linearizations of `graph` with a persistent-set style
/// reduction: an enabled event that conflicts with no other pending
/// unordered event is scheduled deterministically (its position cannot
/// be observed), and the search only branches where two pending events
/// actually race. An interference-free graph thus collapses to exactly
/// one schedule; conflicts multiply schedules only locally.
///
/// Returns the schedules and whether enumeration was truncated at `cap`.
pub fn enumerate_schedules(graph: &EventGraph, cap: usize) -> (Vec<Vec<Event>>, bool) {
    let n = graph.events().len();
    let hb = graph.happens_before();
    let mut conflict = vec![vec![false; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if !hb[i][j]
                && !hb[j][i]
                && graph
                    .footprint(i)
                    .conflicts_with(graph.footprint(j))
                    .is_some()
            {
                conflict[i][j] = true;
                conflict[j][i] = true;
            }
        }
    }
    let mut out: Vec<Vec<Event>> = Vec::new();
    let mut truncated = false;
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    let mut done = vec![false; n];
    explore(
        graph,
        &hb,
        &conflict,
        cap,
        &mut prefix,
        &mut done,
        &mut out,
        &mut truncated,
    );
    (out, truncated)
}

#[allow(clippy::too_many_arguments)]
fn explore(
    graph: &EventGraph,
    hb: &[Vec<bool>],
    conflict: &[Vec<bool>],
    cap: usize,
    prefix: &mut Vec<usize>,
    done: &mut Vec<bool>,
    out: &mut Vec<Vec<Event>>,
    truncated: &mut bool,
) {
    let n = done.len();
    if out.len() >= cap {
        *truncated = true;
        return;
    }
    if prefix.len() == n {
        out.push(prefix.iter().map(|&i| graph.events()[i]).collect());
        return;
    }
    let enabled: Vec<usize> = (0..n)
        .filter(|&i| !done[i] && (0..n).all(|j| done[j] || !hb[j][i]))
        .collect();
    // The reduction: a conflict-free enabled event commutes with every
    // other pending event it is unordered against, so its position in
    // the schedule is unobservable — take the least one deterministically.
    let free = enabled
        .iter()
        .copied()
        .find(|&e| (0..n).all(|g| done[g] || g == e || !conflict[e][g]));
    let branches: Vec<usize> = match free {
        Some(e) => vec![e],
        None => enabled,
    };
    for e in branches {
        prefix.push(e);
        done[e] = true;
        explore(graph, hb, conflict, cap, prefix, done, out, truncated);
        done[e] = false;
        prefix.pop();
        if *truncated {
            return;
        }
    }
}

/// A seeded random linear extension of `graph` (Kahn's algorithm with an
/// LCG choosing among the enabled events).
fn random_linearization(graph: &EventGraph, seed: u64) -> Vec<Event> {
    let n = graph.events().len();
    let hb = graph.happens_before();
    let mut lcg = Lcg::new(seed);
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let enabled: Vec<usize> = (0..n)
            .filter(|&i| !done[i] && (0..n).all(|j| done[j] || !hb[j][i]))
            .collect();
        let pick = enabled[lcg.next_index(enabled.len())];
        done[pick] = true;
        order.push(graph.events()[pick]);
    }
    order
}

fn fmt_round(tag: &str, out: &ExecutionOutcome, net: &Network) -> String {
    format!(
        "{tag}: answer={:?} ledger={:?} completeness={:?} trace={:?}\n",
        out.answer,
        out.ledger,
        out.completeness,
        net.trace()
    )
}

/// One round of the executor under test: round index, a fresh network,
/// the cache (if any) that persists across rounds.
type Round<'a> =
    dyn FnMut(usize, &mut Network, Option<&mut AnswerCache>) -> Result<ExecutionOutcome> + 'a;

/// Fingerprints everything a run could corrupt: the answer, the ledger,
/// the completeness claim and the committed exchange trace of each of
/// `rounds` rounds (each on a fresh network), plus — with a cache — the
/// cache statistics and per-source epochs after each round.
/// `round(r, network, cache)` runs round `r` of whichever executor is
/// under test: the checker's own fingerprints and the executor lattice
/// of the integration tests are all built here, so they compare like
/// for like.
///
/// Returns the fingerprint and each round's outcome.
///
/// # Errors
/// Propagates the first error `round` returns.
pub fn run_fingerprint(
    make_network: &dyn Fn() -> Network,
    mut cache: Option<&mut AnswerCache>,
    rounds: usize,
    round: &mut Round<'_>,
) -> Result<(String, Vec<ExecutionOutcome>)> {
    let mut fp = String::new();
    let mut outs = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut net = make_network();
        let out = round(r, &mut net, cache.as_deref_mut())?;
        fp.push_str(&fmt_round(&format!("round{}", r + 1), &out, &net));
        if let Some(cache) = cache.as_deref() {
            fp.push_str(&format!(
                "cache: stats={:?} epochs={:?}\n",
                cache.stats(),
                cache.epochs(net.source_count())
            ));
        }
        outs.push(out);
    }
    Ok((fp, outs))
}

/// [`run_fingerprint`] under `cfg`: one round, or — in cached mode — a
/// round on a fresh cache of the configured budget and a second round
/// probing the state the first left behind.
fn checked_fingerprint(
    make_network: &dyn Fn() -> Network,
    cfg: &CheckConfig,
    round: &mut Round<'_>,
) -> Result<String> {
    let mut cache = cfg.cache_budget.map(AnswerCache::new);
    let rounds = if cache.is_some() { 2 } else { 1 };
    run_fingerprint(make_network, cache.as_mut(), rounds, round).map(|(fp, _)| fp)
}

/// Replays `order` against fresh state and fingerprints it
/// ([`run_fingerprint`]); in cached mode the second round is the
/// sequential reference executor probing the cache the schedule left.
///
/// # Errors
/// Fails when the schedule is not a valid replay, or on the execution
/// errors the underlying executors report.
pub fn schedule_fingerprint(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    make_network: &dyn Fn() -> Network,
    policy: Option<&RetryPolicy>,
    cfg: &CheckConfig,
    order: &[Event],
) -> Result<String> {
    checked_fingerprint(make_network, cfg, &mut |r, net, cache| match r {
        0 => execute_plan_replay(
            plan,
            query,
            sources,
            net,
            policy,
            cache,
            order,
            &cfg.options,
        ),
        _ => execute_plan_with(plan, query, sources, net, policy, cache),
    })
}

/// The fingerprint of the *sequential reference* executors on the same
/// inputs — what every schedule of an interference-free graph must
/// reproduce byte-for-byte.
///
/// # Errors
/// Fails on the execution errors the underlying executors report.
pub(crate) fn reference_fingerprint(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    make_network: &dyn Fn() -> Network,
    policy: Option<&RetryPolicy>,
    cfg: &CheckConfig,
) -> Result<String> {
    checked_fingerprint(make_network, cfg, &mut |_, net, cache| {
        execute_plan_with(plan, query, sources, net, policy, cache)
    })
}

#[allow(clippy::too_many_arguments)]
fn run_schedules(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    make_network: &dyn Fn() -> Network,
    policy: Option<&RetryPolicy>,
    cfg: &CheckConfig,
    graph: &EventGraph,
    baseline: &[Event],
    baseline_fp: &str,
) -> Result<CheckReport> {
    let (mut schedules, truncated) = enumerate_schedules(graph, cfg.max_schedules);
    for k in 0..cfg.extra_linearizations {
        schedules.push(random_linearization(graph, cfg.seed.wrapping_add(k as u64)));
    }
    let mut report = CheckReport {
        events: graph.events().len(),
        schedules_run: 0,
        truncated,
        divergence: None,
    };
    for order in &schedules {
        let fp = schedule_fingerprint(plan, query, sources, make_network, policy, cfg, order)?;
        report.schedules_run += 1;
        if fp != baseline_fp {
            report.divergence = Some(Divergence {
                baseline: baseline.to_vec(),
                schedule: order.clone(),
                baseline_fingerprint: baseline_fp.to_owned(),
                fingerprint: fp,
            });
            return Ok(report);
        }
    }
    Ok(report)
}

/// Model-checks the plan's *certified* schedule: builds the certified
/// event graph, requires it interference-free (the static analyzer's
/// claim), and replays its linearizations, asserting each reproduces the
/// sequential reference fingerprint. A clean report is an operational
/// linearizability check of the certificate.
///
/// # Errors
/// Fails when the plan is invalid, when the certified graph has
/// interferences (the static analyzer and this checker then *agree* the
/// schedule is unsafe), or on execution errors.
pub fn check_certified(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    make_network: &dyn Fn() -> Network,
    policy: Option<&RetryPolicy>,
    cfg: &CheckConfig,
) -> Result<CheckReport> {
    let stages = stage_decomposition(plan)?.stages;
    let graph = EventGraph::certified(plan, &stages, cfg.cache_budget.is_some());
    let interferences = graph.interferences();
    if let Some(i) = interferences.first() {
        return Err(FusionError::invalid_plan(format!(
            "certified event graph is not interference-free: {i}"
        )));
    }
    let baseline = graph.events().to_vec();
    let baseline_fp = reference_fingerprint(plan, query, sources, make_network, policy, cfg)?;
    run_schedules(
        plan,
        query,
        sources,
        make_network,
        policy,
        cfg,
        &graph,
        &baseline,
        &baseline_fp,
    )
}

/// Model-checks an arbitrary event graph — typically a *mutant* of the
/// certified graph with an ordering edge removed or inverted. All
/// linearizations are replayed and compared against the graph's own
/// program order (the order its events were pushed in); a divergence is
/// the executable witness that the missing edge mattered.
///
/// # Errors
/// Fails when the graph's program order is not a valid replay of the
/// plan, or on execution errors.
pub fn check_schedules(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    make_network: &dyn Fn() -> Network,
    policy: Option<&RetryPolicy>,
    cfg: &CheckConfig,
    graph: &EventGraph,
) -> Result<CheckReport> {
    let baseline = graph.events().to_vec();
    let baseline_fp =
        schedule_fingerprint(plan, query, sources, make_network, policy, cfg, &baseline)?;
    run_schedules(
        plan,
        query,
        sources,
        make_network,
        policy,
        cfg,
        graph,
        &baseline,
        &baseline_fp,
    )
}

/// Discharges the *dynamic* half of the admission-time merge
/// certificate: runs the multi-tenant server over `tenants` (typically
/// with [`ServerConfig::share`] on, so co-admitted equivalent and
/// contained selections ride one merged fetch), proves the run replays
/// bit-for-bit from its operation log, and then compares every query's
/// answer and completeness against an isolated cold run of the same
/// query — fresh network, no cache, no sharing. A merged execution that
/// passes is byte-invisible: sharing changed costs, never answers.
///
/// Ledgers and cache state are *not* compared against the isolated
/// runs (they legitimately differ — that is the point of sharing);
/// they are compared between the live run and its replay.
///
/// Returns the verified report: every one of its results was compared.
///
/// # Errors
/// Fails on any divergence — replay parity (answers, ledgers,
/// completeness, cache state) or a merged answer or completeness
/// differing from its isolated reference — and on execution errors.
pub fn verify_merged_vs_isolated(
    sources: &SourceSet,
    make_network: &(dyn Fn() -> Network + Sync),
    domain_size: Option<f64>,
    tenants: &[Vec<TenantEvent>],
    config: &ServerConfig,
) -> Result<ServerReport> {
    let report = serve(sources, make_network, domain_size, tenants, config)?;
    let (replayed, fp) = replay_serial(
        sources,
        make_network,
        domain_size,
        tenants,
        config,
        &report.log,
    )?;
    verify_replay_parity(&report, &replayed, &fp)?;
    for r in &report.results {
        let TenantEvent::Query(q) = &tenants[r.tenant][r.index] else {
            return Err(FusionError::execution(format!(
                "merged-vs-isolated: result for tenant {} event {} does not name a query",
                r.tenant, r.index
            )));
        };
        let model = NetworkCostModel::new(sources, &make_network(), q, domain_size);
        let mut network = make_network();
        let iso = execute_plan(&sja_optimal(&model).plan, q, sources, &mut network)?;
        if r.outcome.answer != iso.answer {
            return Err(FusionError::execution(format!(
                "merged-vs-isolated: answer diverged for tenant {} event {} \
                 (shared {}, served {})",
                r.tenant, r.index, r.shared, r.served
            )));
        }
        if r.outcome.completeness != iso.completeness {
            return Err(FusionError::execution(format!(
                "merged-vs-isolated: completeness diverged for tenant {} event {}",
                r.tenant, r.index
            )));
        }
    }
    Ok(report)
}

/// Discharges the replay contract of an adaptively re-optimized run:
/// re-executes `spec` through [`fusion_exec::replay_plan_reopt`] with
/// the recorded switches (each independently re-certified by
/// [`fusion_core::dataflow::certify_switch`] during the replay) and
/// byte-compares the answer, ledger (markers included), completeness,
/// and final spliced spec against the live outcome. Then executes the
/// final spliced spec *cold* — no switches, fresh network — and checks
/// the answer agrees: mid-flight switching must be semantically
/// invisible, affecting only costs. `retry` is the live run's policy
/// (and `make_network` must then carry its fault plan); the cold
/// agreement check is skipped for a run that degraded to a subset.
///
/// Returns the number of switches verified.
///
/// # Errors
/// Fails on any divergence, on a switch record that no longer
/// certifies, and on execution errors.
pub fn verify_reopt_replay(
    outcome: &ReoptOutcome,
    spec: &SimplePlanSpec,
    query: &FusionQuery,
    sources: &SourceSet,
    make_network: &dyn Fn() -> Network,
    retry: Option<&RetryPolicy>,
) -> Result<usize> {
    let mut net = make_network();
    let replayed = replay_plan_reopt(
        spec,
        &outcome.switches,
        query,
        sources,
        &mut net,
        None,
        retry,
    )?;
    if replayed.outcome.answer != outcome.outcome.answer {
        return Err(FusionError::execution(
            "reopt replay: answer diverged from the live run",
        ));
    }
    if replayed.outcome.ledger != outcome.outcome.ledger {
        return Err(FusionError::execution(
            "reopt replay: ledger diverged from the live run",
        ));
    }
    if replayed.outcome.completeness != outcome.outcome.completeness {
        return Err(FusionError::execution(
            "reopt replay: completeness diverged from the live run",
        ));
    }
    if replayed.final_spec != outcome.final_spec {
        return Err(FusionError::execution(
            "reopt replay: final spliced spec diverged from the live run",
        ));
    }
    if outcome.outcome.completeness.is_exact() {
        let final_plan = outcome.final_spec.build(sources.len())?;
        let mut cold_net = make_network();
        let cold = execute_plan(&final_plan, query, sources, &mut cold_net)?;
        if cold.answer != outcome.outcome.answer {
            return Err(FusionError::execution(
                "reopt replay: the final spliced spec's cold answer diverges — \
                 switching was not semantically invisible",
            ));
        }
    }
    Ok(outcome.switches.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::optimizer::{filter_plan, sja_optimal};
    use fusion_core::TableCostModel;
    use fusion_net::{FaultPlan, FaultSpec, LinkProfile};
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Predicate, Relation};

    fn dmv_sources() -> SourceSet {
        let s = dmv_schema();
        let rels = vec![
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["J55", "dui", 1993i64],
                    tuple!["T21", "sp", 1994i64],
                    tuple!["T80", "dui", 1993i64],
                ],
            ),
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["T21", "dui", 1996i64],
                    tuple!["J55", "sp", 1996i64],
                    tuple!["T11", "sp", 1993i64],
                ],
            ),
            Relation::from_rows(
                s,
                vec![
                    tuple!["T21", "sp", 1993i64],
                    tuple!["S07", "sp", 1996i64],
                    tuple!["S07", "sp", 1993i64],
                ],
            ),
        ];
        SourceSet::new(
            rels.into_iter()
                .enumerate()
                .map(|(i, r)| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", i + 1),
                        r,
                        Capabilities::full(),
                        ProcessingProfile::indexed_db(),
                        i as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        )
    }

    fn dmv_query() -> FusionQuery {
        FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn certified_plain_schedules_are_linearizable() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let make_net = || Network::uniform(3, LinkProfile::Wan.link());
        let sources = dmv_sources();
        for opt in [filter_plan(&model), sja_optimal(&model)] {
            let report = check_certified(
                &opt.plan,
                &q,
                &sources,
                &make_net,
                None,
                &CheckConfig::default(),
            )
            .unwrap();
            assert!(report.linearizable(), "{:?}", report.divergence);
            assert!(!report.truncated);
            assert!(report.schedules_run >= 1);
        }
    }

    #[test]
    fn certified_cached_ft_schedules_are_linearizable_under_faults() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = sja_optimal(&model).plan;
        let sources = dmv_sources();
        let policy = RetryPolicy::default();
        let cfg = CheckConfig::default().cached(1 << 20);
        for seed in 0..4u64 {
            let faults = FaultPlan::uniform(3, seed, FaultSpec::transient(0.4));
            let make_net = move || {
                let mut net = Network::uniform(3, LinkProfile::Wan.link());
                net.set_fault_plan(faults.clone());
                net
            };
            let report =
                check_certified(&plan, &q, &sources, &make_net, Some(&policy), &cfg).unwrap();
            assert!(
                report.linearizable(),
                "seed {seed}: {:?}",
                report.divergence
            );
        }
    }

    #[test]
    fn reduction_collapses_interference_free_graphs() {
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = sja_optimal(&model).plan;
        let stages = stage_decomposition(&plan).unwrap().stages;
        let graph = EventGraph::certified(&plan, &stages, true);
        assert!(graph.interferences().is_empty());
        let (schedules, truncated) = enumerate_schedules(&graph, 256);
        assert!(!truncated);
        assert_eq!(
            schedules.len(),
            1,
            "conflict-free graphs must collapse to one schedule"
        );
    }

    #[test]
    fn random_linearizations_respect_happens_before() {
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let plan = sja_optimal(&model).plan;
        let stages = stage_decomposition(&plan).unwrap().stages;
        let graph = EventGraph::certified(&plan, &stages, true);
        let hb = graph.happens_before();
        for seed in 0..16u64 {
            let order = random_linearization(&graph, seed);
            let pos: Vec<usize> = graph
                .events()
                .iter()
                .map(|e| order.iter().position(|o| o == e).unwrap())
                .collect();
            for (i, row) in hb.iter().enumerate() {
                for (j, &before) in row.iter().enumerate() {
                    if before {
                        assert!(pos[i] < pos[j], "seed {seed}: hb violated");
                    }
                }
            }
        }
    }

    #[test]
    fn merged_server_runs_match_isolated_references() {
        let sources = dmv_sources();
        let make_net = || Network::uniform(3, LinkProfile::Wan.link());
        let year = |y: i64| {
            FusionQuery::new(
                dmv_schema(),
                vec![
                    Predicate::cmp("D", fusion_types::CmpOp::Ge, y).into(),
                    Predicate::eq("V", "sp").into(),
                ],
            )
            .unwrap()
        };
        // Duplicates and a contained pair across tenants; pacing holds
        // queries in flight so admissions overlap and sharing engages.
        let tenants = vec![
            vec![
                TenantEvent::Query(dmv_query()),
                TenantEvent::Query(year(1990)),
            ],
            vec![
                TenantEvent::Query(dmv_query()),
                TenantEvent::Query(year(1994)),
            ],
        ];
        for share in [true, false] {
            let config = ServerConfig {
                pace: Some(0.005),
                share,
                ..ServerConfig::with_workers(2)
            };
            let report =
                verify_merged_vs_isolated(&sources, &make_net, Some(1000.0), &tenants, &config)
                    .unwrap();
            assert_eq!(report.results.len(), 4, "share={share}");
        }
    }

    #[test]
    fn reopt_replay_verifies_switched_and_unswitched_runs() {
        use fusion_exec::{execute_plan_reopt, ReoptConfig};
        use fusion_stats::CardinalityFeedback;
        let sources = dmv_sources();
        let q = dmv_query();
        let make_net = || Network::uniform(3, LinkProfile::Wan.link());
        // Inflated estimates lock in selections and then violate their
        // believed intervals at the first round boundary; accurate-ish
        // estimates never switch. Both must verify.
        for est in [1000.0, 2.0] {
            let model = TableCostModel::uniform(2, 3, 50.0, 1.0, 0.5, 1e9, est, 4.0 * est);
            let opt = sja_optimal(&model);
            let mut feedback = CardinalityFeedback::new(2, 3);
            let mut net = make_net();
            let out = execute_plan_reopt(
                &opt.spec,
                &q,
                &sources,
                &mut net,
                &model,
                None,
                &mut feedback,
                &ReoptConfig::default(),
                None,
                None,
            )
            .unwrap();
            let switches =
                verify_reopt_replay(&out, &opt.spec, &q, &sources, &make_net, None).unwrap();
            assert_eq!(switches, out.switches.len(), "est={est}");
        }
    }

    #[test]
    fn reopt_replay_rejects_a_tampered_outcome() {
        use fusion_exec::{execute_plan_reopt, ReoptConfig};
        use fusion_stats::CardinalityFeedback;
        let sources = dmv_sources();
        let q = dmv_query();
        let make_net = || Network::uniform(3, LinkProfile::Wan.link());
        let model = TableCostModel::uniform(2, 3, 50.0, 1.0, 0.5, 1e9, 1000.0, 4000.0);
        let opt = sja_optimal(&model);
        let mut feedback = CardinalityFeedback::new(2, 3);
        let mut net = make_net();
        let mut out = execute_plan_reopt(
            &opt.spec,
            &q,
            &sources,
            &mut net,
            &model,
            None,
            &mut feedback,
            &ReoptConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert!(!out.switches.is_empty(), "fixture stopped switching");
        // Forge the answer: the byte-compare must catch it.
        out.outcome.answer = fusion_types::ItemSet::from_items(["bogus"]);
        let err = verify_reopt_replay(&out, &opt.spec, &q, &sources, &make_net, None).unwrap_err();
        assert!(err.to_string().contains("answer diverged"), "{err}");
    }
}
