//! One differential lattice over every executor (DESIGN §21).
//!
//! The paper makes one correctness statement: every plan computes
//! ⋂_i ⋃_j sq(c_i,R_j). A [`Cell`] is one interpretation of a case's plan
//! — schedule × reopt × retry policy × fault schedule × answer cache, the
//! `RunOptions` of one `fusion::exec::run` — and
//! [`Case::check`] holds every cell to one set of rules, comparing runs by
//! `fusion_check::run_fingerprint`: with faults off, byte-equal to the
//! reference ([`reference`]) and answering the truth; with faults on, a
//! sound subset tagged `Subset` (an outage: the fusion over the
//! survivors), parallel and replay cells byte-equal to the retried
//! sequential one, a cold-cache cell answering like its uncached twin.
//! Server cells ([`serve_cells`]) and phase-two cells ([`FetchWorld`])
//! hold `serve` and `fetch_planned` to their own references.

use std::sync::LazyLock;

use super::Gen;
use fusion::cache::AnswerCache;
use fusion::check::{check_certified, run_fingerprint, verify_merged_vs_isolated};
use fusion::check::{verify_reopt_replay, CheckConfig};
use fusion::core::phase2::{non_merge_attrs, CoverageCatalog, FetchCertificate, FetchPlan};
use fusion::core::plan::{Plan, SimplePlanSpec};
use fusion::core::{filter_plan, sja_optimal, sja_plus, CostModel, FusionQuery, NetworkCostModel};
use fusion::exec::{
    fetch_planned, fetch_records, run, stage_schedule, verify_stage_trace, Completeness,
    ExecutionOutcome, OpKind, Phase2Outcome, ReoptConfig, ReoptRule, RetryPolicy, RunOptions,
    RunOutcome, Schedule, ServerConfig, ServerReport, StageReport, Target, TenantEvent,
};
use fusion::net::{FaultPlan, FaultSpec, LinkProfile, Network};
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
use fusion::stats::{CardinalityFeedback, SplitMix64};
use fusion::types::error::Result;
use fusion::types::schema::dmv_schema;
use fusion::types::{ItemSet, Predicate, Relation, SourceId};
use fusion::workload::session::generate_session_for_tenant;
use fusion::workload::synth::{condition_with_selectivity, synth_query, synth_schema, SynthSpec};
use fusion::workload::{dmv, synth::synth_scenario_for, CapabilityMix, Scenario};
use fusion::workload::{SessionEvent, SessionSpec};

/// Byte budget of every cell's answer cache.
const BUDGET: usize = 1 << 22;

// ---------- cases -----------------------------------------------------------

/// The worlds the batteries sweep, all built by [`world`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum World {
    /// The paper's Figure 1 (the seed is unused).
    Figure1,
    /// Selectivities 0.05, 0.4, 0.6 over six WAN sources of 2 000 rows.
    Synth6,
    /// Selectivities 0.1, 0.5 over five such sources.
    Synth5,
    /// 2–3 conditions over 3–5 sources of 120 rows on mixed links.
    Small,
    /// Two 0.2 conditions over `n` sources of `rows` rows, 1 000 items.
    Served(usize, usize),
    /// 2–5 mostly correlated conditions over 2–6 sources of 250 rows.
    Correlated,
    /// `Correlated`, with eight conditions.
    Correlated8,
    /// 2–3 DMV conditions over three random DMV relations.
    Dmv3,
}

/// The one seeded case generator.
pub(crate) fn world(kind: World, seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed ^ 0xCAC4E);
    let spec = |n, domain_size, rows_per_source| SynthSpec {
        domain_size,
        rows_per_source,
        ..SynthSpec::default_with(n, seed)
    };
    let synth = |spec: SynthSpec, sels: &[f64]| synth_scenario_for(&spec, synth_query(sels));
    let mut scenario = match kind {
        World::Figure1 => dmv::figure1_scenario(),
        World::Synth6 => synth(spec(6, 10_000, 2_000), &[0.05, 0.4, 0.6]),
        World::Synth5 => synth(spec(5, 10_000, 2_000), &[0.1, 0.5]),
        World::Small => {
            let (m, n) = (2 + rng.next_below(2), 3 + rng.next_below(3));
            let sels: Vec<f64> = (0..m).map(|_| rng.next_f64_range(0.05, 0.5)).collect();
            let mixed_links = SynthSpec {
                link: None,
                ..spec(n, 300, 120)
            };
            synth(mixed_links, &sels)
        }
        World::Served(n, rows) => synth(spec(n, 1_000, rows), &[0.2, 0.2]),
        World::Correlated | World::Correlated8 => {
            let mut rng = SplitMix64::new(0xE14_E23 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (m, n) = (rng.next_range(2, 6), rng.next_range(2, 7));
            let m = if matches!(kind, World::Correlated8) {
                8
            } else {
                m
            };
            let shared = rng.next_range(1, 4);
            let mut cond = || {
                let attr = rng.next_range(1, shared + 1);
                condition_with_selectivity(attr, rng.next_f64_range(0.05, 0.95))
            };
            let conditions = (0..m).map(|_| cond()).collect();
            let query = FusionQuery::new(synth_schema(), conditions).expect("valid query");
            let (frac, batch) = (0.5, 50);
            let emulated = seed.is_multiple_of(3);
            let spec = SynthSpec {
                seed: 18_000 + seed,
                capability_mix: if emulated {
                    CapabilityMix::FractionEmulated { frac, batch }
                } else {
                    CapabilityMix::AllFull
                },
                link: Some(LinkProfile::Wan).filter(|_| seed.is_multiple_of(2)),
                ..spec(n, 1_500, 250)
            };
            synth_scenario_for(&spec, query)
        }
        World::Dmv3 => {
            let mut g = Gen::new(seed);
            let m = 2 + g.0.next_below(2);
            let (query, relations) = (g.query(m), g.relations(3));
            let full = [Capabilities::full(); 3];
            let sources = in_memory(&relations, &full, ProcessingProfile::indexed_db());
            let network = Network::uniform(3, LinkProfile::Wan.link());
            Scenario::new("dmv3", query, relations, sources, network)
        }
    };
    scenario.name = format!("{kind:?} #{seed}");
    scenario
}

/// The two worlds the fault and parallel batteries sweep.
pub(crate) fn fixed() -> [Scenario; 2] {
    [World::Figure1, World::Synth6].map(|w| world(w, 17))
}

/// Wrappers `R1..Rn` over `rels` with capabilities `caps`.
pub(crate) fn in_memory(
    rels: &[Relation],
    caps: &[Capabilities],
    pp: ProcessingProfile,
) -> SourceSet {
    let wrap = |(j, (r, c)): (usize, (&Relation, &Capabilities))| {
        let name = format!("R{}", j + 1);
        Box::new(InMemoryWrapper::new(name, r.clone(), *c, pp, j as u64)) as Box<dyn Wrapper>
    };
    SourceSet::new(rels.iter().zip(caps).enumerate().map(wrap).collect())
}

/// The plan a case runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Shape {
    Filter,
    Sja,
    SjaPlus,
}

/// A world, the cost model its plans are made under, and one plan.
pub(crate) struct Case<'a, M = NetworkCostModel> {
    pub scenario: &'a Scenario,
    pub model: M,
    pub plan: Plan,
    /// The SJA spec and config of `reopt` cells (per-round re-planning
    /// unless a test sets another).
    pub spec: SimplePlanSpec,
    pub reopt: ReoptConfig,
    pub tag: String,
}

impl Case<'_> {
    /// `shape`'s plan under the world's own network cost model.
    pub(crate) fn new(scenario: &Scenario, shape: Shape) -> Case<'_> {
        Case::with_model(scenario, scenario.cost_model(), shape)
    }
}

// ---------- cells -----------------------------------------------------------

/// In plan order: the reference interpretation.
pub(crate) const SEQ: Schedule<'static> = Schedule::Sequential;

/// `check_certified`: every certified event order of the plan, replayed
/// under `Schedule::Order` with the commit guard on (the cell carries no
/// events of its own); uncached or warm, never with reopt.
pub(crate) const REPLAY: Schedule<'static> = Schedule::Order {
    events: &[],
    guard_commits: true,
};

/// The certified stages on `threads` workers, unpaced.
pub(crate) const fn stages(threads: usize) -> Schedule<'static> {
    Schedule::Stages {
        threads,
        pace: None,
    }
}

/// The network's fault schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Faults {
    /// No fault plan.
    Off,
    /// A fault plan that fails nothing (`FaultPlan::none`).
    Quiet,
    /// `(seed, rate)`: every fault kind on every source ([`stormy`]).
    Stormy(u64, f64),
    /// Source `j` down from its first exchange.
    Outage(usize),
}

impl Faults {
    fn on(self) -> bool {
        matches!(self, Faults::Stormy(..) | Faults::Outage(_))
    }
}

/// `rate`-stormy schedules for each of the first `seeds` seeds.
pub(crate) fn storms(seeds: u64, rates: &[f64]) -> Vec<Faults> {
    let at = |seed| rates.iter().map(move |&rate| Faults::Stormy(seed, rate));
    (0..seeds).flat_map(at).collect()
}

/// A fault spec with `transient` retryable failures plus timeouts and
/// slowdowns (side rates shrink as `transient` nears 1 so the outcome mix
/// stays valid).
pub(crate) fn stormy(transient: f64) -> FaultSpec {
    let side = (0.1f64).min((1.0 - transient) / 2.0);
    FaultSpec {
        transient_rate: transient,
        timeout_rate: side,
        slowdown_rate: side,
        slowdown_factor: 3.0,
        timeout_wait: 0.2,
        outage_from: None,
    }
    .validated()
}

/// The answer cache a cell runs with: none, one round on a fresh cache,
/// or two rounds on one cache (cold, then warm).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Cache {
    None,
    Cold,
    Warm,
}

/// A cell's retry policy.
pub(crate) type Retry = Option<&'static RetryPolicy>;

/// The default retry policy.
#[allow(clippy::unnecessary_wraps)] // the value of a cell's retry axis
pub(crate) fn retried() -> Retry {
    static DEFAULT: LazyLock<RetryPolicy> = LazyLock::new(RetryPolicy::default);
    Some(&DEFAULT)
}

/// One point of the lattice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Cell {
    pub schedule: Schedule<'static>,
    /// The case's SJA spec under a live reopt rule, not its plan.
    pub reopt: bool,
    pub retry: Retry,
    pub faults: Faults,
    pub cache: Cache,
}

impl Cell {
    /// The case's plan under `schedule`, `retry`, `faults` and `cache`.
    pub(crate) const fn of(
        schedule: Schedule<'static>,
        retry: Retry,
        faults: Faults,
        cache: Cache,
    ) -> Cell {
        Cell {
            schedule,
            reopt: false,
            retry,
            faults,
            cache,
        }
    }

    /// The cell with the case's spec run under a live reopt rule.
    pub(crate) const fn reopt(self) -> Cell {
        Cell {
            reopt: true,
            ..self
        }
    }

    /// The cell's options, with `cache`.
    fn options(self, cache: Option<&mut AnswerCache>) -> RunOptions<'_> {
        RunOptions {
            schedule: self.schedule,
            retry: self.retry,
            cache,
        }
    }
}

/// What one cell did.
pub(crate) struct Run {
    /// `fusion_check::run_fingerprint` of the run.
    pub fp: String,
    /// What `reopt` decides beyond its outcome: switches, rounds, final
    /// spec and calibration.
    pub decisions: String,
    pub rounds: Vec<ExecutionOutcome>,
    pub cache: Option<AnswerCache>,
    /// A reopt run's outcome and the feedback store it calibrated.
    pub reopt: Option<(RunOutcome, CardinalityFeedback)>,
}

impl Run {
    pub(crate) fn last(&self) -> &ExecutionOutcome {
        self.rounds.last().expect("a run has a round")
    }
}

/// What a parallel run reports is the schedule it ran: the stage trace
/// its ledger re-derives verifies, has its stage count and makespan, and
/// never takes longer than the total work.
fn check_stages(plan: &Plan, out: &ExecutionOutcome, par: &StageReport, tag: &str) -> Result<()> {
    let ledger = &out.ledger;
    let (trace, makespan) = stage_schedule(plan, ledger)?;
    verify_stage_trace(plan, ledger, &trace)?;
    assert_eq!(trace.len(), par.stages, "{tag}");
    assert_eq!(makespan.to_bits(), par.makespan.to_bits(), "{tag}");
    assert!(makespan <= ledger.total().value() + 1e-9, "{tag}");
    Ok(())
}

/// The cell `cell` must be byte-equal to, if any. With faults off, the
/// reference interpretation (in plan order without retry policy,
/// reopt or not as the cell); with faults on, the retried `SEQ` cell for
/// a staged or replay cell of the plan.
fn reference(cell: Cell) -> Option<Cell> {
    let Cell {
        schedule,
        reopt,
        retry,
        faults,
        cache,
    } = cell;
    if !faults.on() {
        let base = Cell::of(SEQ, None, Faults::Off, cache);
        return Some(if reopt { base.reopt() } else { base });
    }
    (schedule != SEQ && !reopt).then(|| Cell::of(SEQ, retry, faults, cache))
}

/// The `Subset` tag's missing sources (none when exact).
fn missing(completeness: &Completeness) -> &[SourceId] {
    match completeness {
        Completeness::Exact => &[],
        Completeness::Subset {
            missing_sources, ..
        } => missing_sources,
    }
}

impl<'a, M: CostModel> Case<'a, M> {
    /// `shape`'s plan under `model`.
    pub(crate) fn with_model(scenario: &'a Scenario, model: M, shape: Shape) -> Case<'a, M> {
        let opt = sja_optimal(&model);
        let plan = match shape {
            Shape::Filter => filter_plan(&model).plan,
            Shape::Sja => opt.plan,
            Shape::SjaPlus => sja_plus(&model).plan,
        };
        let tag = format!("{} {shape:?}", scenario.name);
        let (spec, reopt) = (opt.spec, ReoptConfig::every_round());
        Case {
            scenario,
            model,
            plan,
            spec,
            reopt,
            tag,
        }
    }

    /// A fresh network under `faults`.
    pub(crate) fn network(&self, faults: Faults) -> Network {
        let n = self.scenario.n();
        let mut net = self.scenario.network();
        match faults {
            Faults::Off => {}
            Faults::Quiet => net.set_fault_plan(FaultPlan::none(n)),
            Faults::Stormy(seed, rate) => {
                net.set_fault_plan(FaultPlan::uniform(n, seed, stormy(rate)));
            }
            Faults::Outage(j) => net.set_fault_plan(FaultPlan::none(n).with_outage(SourceId(j), 0)),
        }
        net
    }

    pub(crate) fn run(&self, cell: Cell) -> Run {
        (self.try_run(cell)).unwrap_or_else(|e| panic!("{} {cell:?}: {e}", self.tag))
    }

    /// Runs one cell, without judging it.
    ///
    /// # Errors
    /// What the cell's executor reports.
    pub(crate) fn try_run(&self, cell: Cell) -> Result<Run> {
        let make_net = || self.network(cell.faults);
        let (q, s, plan) = (&self.scenario.query, &self.scenario.sources, &self.plan);
        if cell.schedule == REPLAY {
            let cfg = match cell.cache {
                Cache::None => CheckConfig::default(),
                Cache::Warm => CheckConfig::default().cached(BUDGET),
                Cache::Cold => panic!("{}: a replay cell is never cold", self.tag),
            };
            let report = check_certified(plan, q, s, &make_net, cell.retry, &cfg)?;
            let divergence = &report.divergence;
            assert!(report.linearizable(), "{}: {divergence:?}", self.tag);
            // Every schedule reproduced the reference byte for byte.
            return self.try_run(Cell::of(SEQ, cell.retry, cell.faults, cell.cache));
        }
        let mut cache = (cell.cache != Cache::None).then(|| AnswerCache::new(BUDGET));
        let rounds = if cell.cache == Cache::Warm { 2 } else { 1 };
        let (mut reopt, mut decisions) = (None, String::new());
        let mut round = |_, net: &mut Network, c: Option<&mut AnswerCache>| {
            if !cell.reopt {
                let out = run(Target::Plan(plan), q, s, net, cell.options(c))?;
                if let Schedule::Stages { threads, .. } = cell.schedule {
                    let par = out.stages.as_ref().expect("a staged plan run reports");
                    assert_eq!(par.threads, threads, "{}", self.tag);
                    if !cell.faults.on() {
                        check_stages(plan, &out.outcome, par, &self.tag)?;
                    }
                }
                return Ok(out.outcome);
            }
            let mut feedback = CardinalityFeedback::new(q.m(), s.len());
            let rule = ReoptRule::Live {
                model: &self.model,
                feedback: &mut feedback,
                config: &self.reopt,
            };
            let out = run(Target::Spec(&self.spec, rule), q, s, net, cell.options(c))?;
            let report = out.reopt.as_ref().expect("a spec run reports");
            decisions = format!("{:?} {:?}", report.switches, report.rounds);
            decisions += &format!(" {:?}", report.final_spec);
            decisions += &format!(" {feedback:?}");
            let outcome = out.outcome.clone();
            reopt = Some((out, feedback));
            Ok(outcome)
        };
        let (fp, rounds) = run_fingerprint(&make_net, cache.as_mut(), rounds, &mut round)?;
        Ok(Run {
            fp,
            decisions,
            rounds,
            cache,
            reopt,
        })
    }

    /// Runs `cell` unless an equal cell already ran; its index in `runs`.
    fn memo(&self, runs: &mut Vec<(Cell, Run)>, cell: Cell) -> usize {
        if let Some(i) = runs.iter().position(|(c, _)| *c == cell) {
            return i;
        }
        runs.push((cell, self.run(cell)));
        runs.len() - 1
    }

    /// Checks every `schedules × faults` cell under one retry policy and
    /// cache, each of the plan or (`reopt`) of the spec.
    pub(crate) fn sweep(
        &self,
        (schedules, reopt): (&[Schedule<'static>], bool),
        retry: Retry,
        faults: &[Faults],
        cache: Cache,
    ) -> Vec<Run> {
        let cell = |schedule, f| Cell {
            reopt,
            ..Cell::of(schedule, retry, f, cache)
        };
        let row = |&e| faults.iter().map(move |&f| cell(e, f));
        self.check(&schedules.iter().flat_map(row).collect::<Vec<_>>())
    }

    /// Runs every cell and holds it to the lattice's rules (module docs).
    /// Returns the runs in `cells` order, for a test's own assertions.
    pub(crate) fn check(&self, cells: &[Cell]) -> Vec<Run> {
        let (truth, n) = (self.scenario.ground_truth().unwrap(), self.scenario.n());
        let mut runs = Vec::new();
        for &cell in cells {
            let (tag, on) = (format!("{} {cell:?}", self.tag), cell.faults.on());
            assert!(!on || cell.retry.is_some(), "{tag}: faults need a policy");
            let i = self.memo(&mut runs, cell);
            let run = &runs[i].1;
            let dead = match cell.faults {
                Faults::Outage(dead) => Some((dead, self.survivors(dead))),
                _ => None,
            };
            for out in &run.rounds {
                let (exact, missing) = (out.completeness.is_exact(), missing(&out.completeness));
                assert!(out.answer.is_subset_of(&truth), "{tag}: beyond truth");
                assert!(exact || on, "{tag}: a subset without faults");
                assert!(exact == missing.is_empty(), "{tag}: unnamed subset");
                assert!(missing.iter().all(|s| s.0 < n), "{tag}");
                assert!(!exact || out.answer == truth, "{tag}: exact, not truth");
                if let Some((dead, fused)) = &dead {
                    assert_eq!(missing, [SourceId(*dead)], "{tag}");
                    assert_eq!(&out.answer, fused, "{tag}: not survivors' fusion");
                }
            }
            if cell.cache == Cache::Warm && !on {
                let hits = run.cache.as_ref().map_or(0, |c| c.stats().hits);
                assert!(hits > 0, "{tag}: the warm round never hit");
            }
            if let Some((out, _)) = &run.reopt {
                self.check_reopt_replay(cell, out, &run.fp, &tag);
            }
            if let Some(base) = reference(cell) {
                let (i, j) = (self.memo(&mut runs, cell), self.memo(&mut runs, base));
                let (got, want) = (&runs[i].1, &runs[j].1);
                assert_eq!(got.fp, want.fp, "{tag} vs {base:?}");
                assert_eq!(got.decisions, want.decisions, "{tag} vs {base:?}");
            }
            if cell.cache == Cache::Cold && on {
                let uncached = Cell {
                    cache: Cache::None,
                    ..cell
                };
                let (i, j) = (self.memo(&mut runs, cell), self.memo(&mut runs, uncached));
                let (got, want) = (runs[i].1.last(), runs[j].1.last());
                assert_eq!(got.answer, want.answer, "{tag}: vs uncached");
                assert_eq!(got.completeness, want.completeness, "{tag}: vs uncached");
                if !got.completeness.is_exact() {
                    // A subset harvest is never served.
                    let cache = runs[i].1.cache.as_mut().expect("a cold cache");
                    let snap = cache.snapshot(self.scenario.query.conditions(), n);
                    assert!(!snap.any_covered(), "{tag}: subset entries served");
                }
            }
        }
        let mut take = |c: &Cell| {
            let i = runs.iter().position(|(r, _)| r == c).expect("ran");
            runs.swap_remove(i).1
        };
        cells.iter().map(&mut take).collect()
    }

    /// The fusion answer over every source but `dead`.
    fn survivors(&self, dead: usize) -> ItemSet {
        let mut live = self.scenario.relations.clone();
        live.remove(dead);
        self.scenario.query.naive_answer(&live).unwrap()
    }

    /// A `reopt` run replays byte for byte from its switch records (each
    /// splice re-certified), and — uncached — `verify_reopt_replay` holds.
    fn check_reopt_replay(&self, cell: Cell, out: &RunOutcome, fp: &str, tag: &str) {
        let (q, s) = (&self.scenario.query, &self.scenario.sources);
        let switches = &out.reopt.as_ref().expect("a spec run reports").switches;
        let make_net = || self.network(cell.faults);
        let mut cache = (cell.cache != Cache::None).then(|| AnswerCache::new(BUDGET));
        let mut round = |_, net: &mut Network, c: Option<&mut AnswerCache>| {
            let target = Target::Spec(&self.spec, ReoptRule::Replay(switches));
            let replay = Cell::of(SEQ, cell.retry, cell.faults, cell.cache);
            run(target, q, s, net, replay.options(c)).map(|r| r.outcome)
        };
        let replayed = run_fingerprint(&make_net, cache.as_mut(), 1, &mut round);
        assert_eq!(replayed.unwrap().0, fp, "{tag}: the replay diverged");
        if cell.cache == Cache::None {
            let verified = verify_reopt_replay(out, &self.spec, q, s, &make_net, cell.retry);
            verified.unwrap_or_else(|e| panic!("{tag}: {e}"));
        }
    }
}

// ---------- server cells ----------------------------------------------------

/// Tenant streams from one session generator: tenant `t` of `spec`
/// reseeded to `seed`, for each `(seed, t)`.
pub(crate) fn streams(spec: &SessionSpec, picks: &[(u64, u64)]) -> Vec<Vec<TenantEvent>> {
    let event = |e: &SessionEvent| match e {
        SessionEvent::Query { query, .. } => TenantEvent::Query(query.clone()),
        SessionEvent::Update { source } => TenantEvent::Update(*source),
    };
    let stream = |&(seed, t): &(u64, u64)| {
        let session = generate_session_for_tenant(&SessionSpec { seed, ..*spec }, t);
        session.events.iter().map(event).collect()
    };
    picks.iter().map(stream).collect()
}

/// `serve` over `tenants` at each worker count (sharing as `config`
/// says), each run held by `verify_merged_vs_isolated` to its serial
/// replay and to isolated cold runs of its queries. Every query answers,
/// every update bumps its source exactly once, and a result carries a
/// share certificate exactly when it attached (never with sharing off).
pub(crate) fn serve_cells(
    world: &Scenario,
    tenants: &[Vec<TenantEvent>],
    config: &ServerConfig,
    workers: &[usize],
) -> Vec<ServerReport> {
    let is_update = |e: &&TenantEvent| matches!(e, TenantEvent::Update(_));
    let updates = tenants.iter().flatten().filter(is_update).count();
    let queries = tenants.iter().map(Vec::len).sum::<usize>() - updates;
    let (netf, domain) = (|| world.network(), Some(world.domain_size));
    let serve = |&workers: &usize| {
        let tag = format!("{} workers {workers} share {}", world.name, config.share);
        let config = ServerConfig {
            workers,
            ..config.clone()
        };
        let report = verify_merged_vs_isolated(&world.sources, &netf, domain, tenants, &config)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(report.results.len(), queries, "{tag}: a query went missing");
        let bumps = report
            .log
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Bump { .. }));
        assert_eq!(bumps.count(), updates, "{tag}: a bump was lost or invented");
        for r in &report.results {
            // `shared` / `shared_residual` are exactly what the admission
            // logged: the attaches the server ran.
            let shares = report
                .log
                .iter()
                .find_map(|op| match &op.kind {
                    OpKind::Admit { shares, .. } if op.ticket == r.ticket => Some(shares),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{tag}: ticket {} was never admitted", r.ticket));
            assert_eq!(shares.len(), r.shared, "{tag}");
            let residual = shares.iter().filter(|s| s.residual).count();
            assert_eq!(residual, r.shared_residual, "{tag}");
            assert!(
                config.share || r.shared == 0,
                "{tag}: sharing engaged while off"
            );
        }
        report
    };
    workers.iter().map(serve).collect()
}

// ---------- phase-two cells -------------------------------------------------

/// A phase-two world: sources holding slices of one consistent table,
/// so any source's rows for an item agree with any other's.
pub(crate) struct FetchWorld {
    pub rels: Vec<Relation>,
    pub caps: Vec<Capabilities>,
}

impl FetchWorld {
    /// The union of every source's items.
    pub(crate) fn answer(&self) -> ItemSet {
        let items = self.rels.iter().map(Relation::distinct_items);
        items.fold(ItemSet::empty(), |a, b| a.union(&b))
    }

    fn rebuild(&self) -> (SourceSet, Network) {
        let sources = in_memory(&self.rels, &self.caps, ProcessingProfile::free());
        (
            sources,
            Network::uniform(self.rels.len(), LinkProfile::Wan.link()),
        )
    }

    /// `fetch_planned` of every non-merge attribute of the answer on fresh
    /// sources, source `down` out from its first exchange.
    pub(crate) fn planned(
        &self,
        cache: Option<&mut AnswerCache>,
        retry: Option<&RetryPolicy>,
        down: Option<SourceId>,
    ) -> (FetchPlan, FetchCertificate, Phase2Outcome, Network) {
        let (schema, n) = (dmv_schema(), self.rels.len());
        let (sources, mut network) = self.rebuild();
        if let Some(dead) = down {
            network.set_fault_plan(FaultPlan::none(n).with_outage(dead, 0));
        }
        let q = FusionQuery::new(schema.clone(), vec![Predicate::eq("V", "dui").into()]).unwrap();
        let model = NetworkCostModel::new(&sources, &network, &q, None);
        let catalog = CoverageCatalog::from_relations(&schema, &self.rels, &vec![true; n]);
        let (answer, attrs, net) = (self.answer(), non_merge_attrs(&schema), &mut network);
        let (c, src) = (&catalog, &sources);
        let (plan, cert, out) =
            fetch_planned(&answer, &attrs, c, &model, &schema, src, net, cache, retry).unwrap();
        (plan, cert, out, network)
    }

    /// The reference cell: a planned full-attribute fetch returns the
    /// broadcast `fetch_records` record set exactly, at no more than its
    /// cost and no less than its certified bound. Returns the planned
    /// outcome and the broadcast cost.
    pub(crate) fn check(&self, tag: &str) -> (Phase2Outcome, f64) {
        let (plan, cert, out, _) = self.planned(None, None, None);
        let (sources, mut network) = self.rebuild();
        let broadcast = fetch_records(&self.answer(), &sources, &mut network).unwrap();
        assert_eq!(out.records, broadcast.records, "{tag}: records diverged");
        assert!(out.completeness.is_exact(), "{tag}");
        assert!(
            plan.planned_cost.value() + 1e-9 >= cert.lower_bound,
            "{tag}"
        );
        let (planned, paid) = (out.total_cost().value(), broadcast.cost.value());
        assert!(planned <= paid + 1e-9, "{tag}: planned {planned} vs {paid}");
        (out, paid)
    }
}
