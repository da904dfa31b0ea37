//! The interactive mediator shell behind the `fusionq` binary.
//!
//! A [`Session`] holds a common schema and a set of registered sources;
//! commands configure them, and plain SQL lines are parsed as fusion
//! queries, optimized with SJA+, executed over the simulated network, and
//! answered. All command handling returns strings, so the shell is fully
//! testable without a terminal.
//!
//! ```text
//! fusion> \scenario dmv
//! loaded scenario `dmv-figure1`: 3 sources, schema (*L STR, V STR, D INT)
//! fusion> SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'
//! answer (2 items): {J55, T21}
//! executed cost 1.417 over 7 round trips
//! ```

#![forbid(unsafe_code)]

use fusion_cache::{subsumes, AnswerCache, CachedCostModel};
use fusion_check::{check_certified, CheckConfig};
use fusion_core::analyze::Memos;
use fusion_core::dataflow::{
    duplicate_inflight_findings, share_schedule, stage_decomposition, unshared_subsumed_findings,
    unsound_merge_findings, EventGraph, Resource, ShareStep,
};
use fusion_core::optimizer::sja_response_optimal;
use fusion_core::postopt::sja_plus;
use fusion_core::query::FusionQuery;
use fusion_core::{
    analyze_plan, dataflow_lint_plan, explain, filter_plan, greedy_sja, sj_optimal, sja_optimal,
    Dataflow, Diagnostic, NetworkCostModel, Plan, SourceBounds, Verdict,
};
use fusion_exec::{
    execute_plan, fetch_records, replay_serial, run, serve, verify_replay_parity, ReoptConfig,
    ReoptRule, RetryPolicy, RunOptions, Schedule, ServerConfig, Target, TenantEvent,
};
use fusion_net::{FaultPlan, FaultSpec, Link, LinkProfile, Network};
use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet};
use fusion_stats::{CardinalityFeedback, TableStats};
use fusion_types::error::{FusionError, Result};
use fusion_types::{Attribute, Predicate, Relation, Schema, SourceId, Tuple, ValueType};

/// Appends up to 20 records to a `\fetch` transcript.
fn push_records(out: &mut String, records: &[Tuple]) {
    for r in records.iter().take(20) {
        out.push_str(&format!("\n  {r}"));
    }
    if records.len() > 20 {
        out.push_str(&format!("\n  ... {} more", records.len() - 20));
    }
}

/// Byte budget `\cache on` uses when none is given.
const DEFAULT_CACHE_BUDGET: usize = 1 << 20;

/// Sources in the synthetic scenario `\serve` runs.
const SERVE_SOURCES: usize = 5;

/// One registered source.
struct SourceEntry {
    name: String,
    relation: Relation,
    caps: Capabilities,
    link: Link,
    processing: ProcessingProfile,
}

/// Session-level fault injection settings (see `\faults`).
struct FaultSettings {
    seed: u64,
    spec: FaultSpec,
    /// Hard outage: `(source index, down from attempt)`.
    outage: Option<(usize, usize)>,
}

impl FaultSettings {
    fn describe(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        if self.spec.transient_rate > 0.0 {
            parts.push(format!("transient={}", self.spec.transient_rate));
        }
        if self.spec.timeout_rate > 0.0 {
            parts.push(format!("timeout={}", self.spec.timeout_rate));
        }
        if self.spec.slowdown_rate > 0.0 {
            parts.push(format!(
                "slow={}x{}",
                self.spec.slowdown_rate, self.spec.slowdown_factor
            ));
        }
        if let Some((j, from)) = self.outage {
            parts.push(format!("outage=R{}@{from}", j + 1));
        }
        format!("faults on: {}", parts.join(" "))
    }
}

/// Multi-tenant workload settings for `\serve` (see `\sessions`).
#[derive(Debug, Clone, Copy)]
struct SessionsSpec {
    tenants: usize,
    queries: usize,
    skew: f64,
    update_rate: f64,
    seed: u64,
}

impl Default for SessionsSpec {
    fn default() -> SessionsSpec {
        SessionsSpec {
            tenants: 3,
            queries: 8,
            skew: 1.2,
            update_rate: 0.1,
            seed: 41,
        }
    }
}

impl SessionsSpec {
    fn describe(&self) -> String {
        format!(
            "sessions: tenants={} queries={} skew={} updates={} seed={}",
            self.tenants, self.queries, self.skew, self.update_rate, self.seed
        )
    }
}

/// The shell state: a schema and the registered sources.
#[derive(Default)]
pub struct Session {
    schema: Option<Schema>,
    sources: Vec<SourceEntry>,
    faults: Option<FaultSettings>,
    cache: Option<AnswerCache>,
    sessions: SessionsSpec,
}

/// What the caller should do after a command.
#[derive(Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading input.
    Continue,
    /// Exit the shell.
    Quit,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// Handles one input line; returns the text to print and whether to
    /// continue.
    pub fn handle(&mut self, line: &str) -> (String, Control) {
        let line = line.trim();
        if line.is_empty() {
            return (String::new(), Control::Continue);
        }
        if matches!(line, "\\quit" | "\\q" | "exit" | "quit") {
            return ("bye".into(), Control::Quit);
        }
        let out = if let Some(rest) = line.strip_prefix('\\') {
            self.command(rest)
        } else {
            self.query(line, &QueryMode::Execute(None))
        };
        (
            out.unwrap_or_else(|e| format!("error: {e}")),
            Control::Continue,
        )
    }

    fn command(&mut self, rest: &str) -> Result<String> {
        let mut parts = rest.splitn(2, char::is_whitespace);
        let cmd = parts.next().unwrap_or_default();
        let arg = parts.next().unwrap_or("").trim();
        match cmd {
            "help" | "h" => Ok(HELP.to_string()),
            "scenario" => self.cmd_scenario(arg),
            "schema" => self.cmd_schema(arg),
            "load" => self.cmd_load(arg),
            "sources" => Ok(self.cmd_sources()),
            "explain" => self.cmd_explain(arg),
            "lint" => self.cmd_lint(arg),
            "dataflow" => self.cmd_dataflow(arg),
            "check" => self.cmd_check(arg),
            "fetch" => self.cmd_fetch(arg),
            "exec" => self.cmd_exec(arg),
            "gantt" => self.cmd_gantt(arg),
            "trace" => self.cmd_trace(arg),
            "adaptive" => self.cmd_adaptive(arg),
            "reopt" => self.cmd_reopt(arg),
            "faults" => self.cmd_faults(arg),
            "cache" => self.cmd_cache(arg),
            "sessions" => self.cmd_sessions(arg),
            "serve" => self.cmd_serve(arg),
            "share" => self.cmd_share(arg),
            "plan" => {
                let mut p = arg.splitn(2, char::is_whitespace);
                let algo = p.next().unwrap_or_default().to_string();
                let sql = p.next().unwrap_or("").trim().to_string();
                self.cmd_plan(&algo, &sql)
            }
            other => Err(FusionError::execution(format!(
                "unknown command `\\{other}` (try \\help)"
            ))),
        }
    }

    fn cmd_scenario(&mut self, name: &str) -> Result<String> {
        let scenario = match name {
            "dmv" => fusion_workload::dmv::figure1_scenario(),
            "dmv-big" => fusion_workload::dmv::scaled_dmv_scenario(8, 20_000, 4_000, 42),
            "biblio" => {
                fusion_workload::biblio::biblio_scenario(5, 1_000, 6_000, &["database", "query"], 7)
            }
            "synth" => fusion_workload::synth::synth_scenario(
                &fusion_workload::synth::SynthSpec::default_with(6, 99),
                &[0.05, 0.4],
            ),
            other => {
                return Err(FusionError::execution(format!(
                    "unknown scenario `{other}` (dmv, dmv-big, biblio, synth)"
                )));
            }
        };
        let schema = scenario.query.schema().clone();
        self.sources = scenario
            .relations
            .iter()
            .enumerate()
            .map(|(i, rel)| {
                let id = fusion_types::SourceId(i);
                SourceEntry {
                    name: scenario.sources.get(id).name().to_string(),
                    relation: rel.clone(),
                    caps: *scenario.sources.get(id).capabilities(),
                    link: *scenario.network().link(id),
                    processing: *scenario.sources.get(id).processing(),
                }
            })
            .collect();
        self.schema = Some(schema.clone());
        Ok(format!(
            "loaded scenario `{}`: {} sources, schema {}",
            scenario.name,
            self.sources.len(),
            schema
        ))
    }

    fn cmd_schema(&mut self, spec: &str) -> Result<String> {
        if spec.is_empty() {
            return match &self.schema {
                Some(s) => Ok(format!("schema {s}")),
                None => Ok("no schema set (use \\schema L:str,V:str @L)".into()),
            };
        }
        let (cols, merge) = match spec.split_once('@') {
            Some((c, m)) => (c.trim(), m.trim()),
            None => (spec, ""),
        };
        let mut attrs = Vec::new();
        for col in cols.split(',') {
            let col = col.trim();
            if col.is_empty() {
                continue;
            }
            let (name, ty) = col.split_once(':').ok_or_else(|| {
                FusionError::parse(format!("column `{col}` must look like name:type"))
            })?;
            let ty = match ty.trim().to_ascii_lowercase().as_str() {
                "str" | "string" | "text" => ValueType::Str,
                "int" | "integer" => ValueType::Int,
                "float" | "real" | "double" => ValueType::Float,
                "bool" | "boolean" => ValueType::Bool,
                other => {
                    return Err(FusionError::parse(format!("unknown type `{other}`")));
                }
            };
            attrs.push(Attribute::new(name.trim(), ty));
        }
        let merge_name = if merge.is_empty() {
            attrs
                .first()
                .map(|a| a.name.clone())
                .ok_or_else(|| FusionError::parse("schema needs at least one column"))?
        } else {
            merge.to_string()
        };
        let schema = Schema::new(attrs, &merge_name)?;
        self.sources.clear();
        let text = format!("schema set to {schema} (sources cleared)");
        self.schema = Some(schema);
        Ok(text)
    }

    fn cmd_load(&mut self, arg: &str) -> Result<String> {
        let schema = self
            .schema
            .clone()
            .ok_or_else(|| FusionError::execution("set a \\schema (or \\scenario) first"))?;
        let tokens: Vec<&str> = arg.split_whitespace().collect();
        if tokens.len() < 2 {
            return Err(FusionError::execution(
                "usage: \\load <name> <file.csv> [full|emulated:N|selection-only] [lan|wan|inter|slow]",
            ));
        }
        let name = tokens[0].to_string();
        let path = std::path::Path::new(tokens[1]);
        let mut caps = Capabilities::full();
        let mut link = LinkProfile::Wan.link();
        for tok in &tokens[2..] {
            match *tok {
                "full" => caps = Capabilities::full(),
                "selection-only" => caps = Capabilities::selection_only(),
                "lan" => link = LinkProfile::Lan.link(),
                "wan" => link = LinkProfile::Wan.link(),
                "inter" | "intercontinental" => link = LinkProfile::Intercontinental.link(),
                "slow" => link = LinkProfile::Slow.link(),
                other => {
                    if let Some(batch) = other.strip_prefix("emulated:") {
                        let batch: usize = batch.parse().map_err(|_| {
                            FusionError::parse(format!("bad batch size in `{other}`"))
                        })?;
                        caps = Capabilities::emulated(batch.max(1));
                    } else {
                        return Err(FusionError::execution(format!("unknown option `{other}`")));
                    }
                }
            }
        }
        let relation = fusion_workload::csv::load_csv(path, &schema)?;
        let rows = relation.len();
        self.sources.push(SourceEntry {
            name: name.clone(),
            relation,
            caps,
            link,
            processing: ProcessingProfile::indexed_db(),
        });
        Ok(format!(
            "loaded `{name}` ({rows} rows) as R{}",
            self.sources.len()
        ))
    }

    fn cmd_sources(&self) -> String {
        if self.sources.is_empty() {
            return "no sources registered".into();
        }
        let mut out = String::new();
        for (i, s) in self.sources.iter().enumerate() {
            let caps = if s.caps.native_semijoin {
                "semijoin".to_string()
            } else if s.caps.passed_bindings {
                format!("emulated:{}", s.caps.binding_batch)
            } else {
                "selection-only".to_string()
            };
            out.push_str(&format!(
                "R{} `{}`: {} rows, {} distinct items, caps={}, link {:.0}ms/{:.0}KBps\n",
                i + 1,
                s.name,
                s.relation.len(),
                s.relation.distinct_items().len(),
                caps,
                s.link.latency * 1000.0,
                s.link.bandwidth / 1024.0
            ));
        }
        out.trim_end().to_string()
    }

    fn cmd_plan(&mut self, algo: &str, sql: &str) -> Result<String> {
        let (query, sources, network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let (plan, cost): (Plan, _) = match algo {
            "filter" => {
                let o = filter_plan(&model);
                (o.plan, o.cost)
            }
            "sj" => {
                let o = sj_optimal(&model);
                (o.plan, o.cost)
            }
            "sja" => {
                let o = sja_optimal(&model);
                (o.plan, o.cost)
            }
            "sja+" => {
                let o = sja_plus(&model);
                (o.plan, o.cost)
            }
            "greedy" => {
                let o = greedy_sja(&model);
                (o.plan, o.cost)
            }
            "rt" => {
                let o = sja_response_optimal(&model);
                (o.optimized.plan, o.optimized.cost)
            }
            other => {
                return Err(FusionError::execution(format!(
                    "unknown algorithm `{other}` (filter, sj, sja, sja+, greedy, rt)"
                )));
            }
        };
        Ok(format!(
            "{} plan, estimated cost {cost}:\n{}",
            algo,
            plan.listing_verbose(query.conditions())
        ))
    }

    /// Runs the semantic analyzer and the full lint registry (structural
    /// + dataflow rules) over every algorithm's plan for the query.
    fn cmd_lint(&mut self, arg: &str) -> Result<String> {
        let (flags, sql) = split_flags(arg);
        let json = parse_flags(&flags, &["--json"])?[0];
        let (query, sources, network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let bounds = self.source_bounds(&query);
        let plans: Vec<(&str, Plan)> = vec![
            ("filter", filter_plan(&model).plan),
            ("sj", sj_optimal(&model).plan),
            ("sja", sja_optimal(&model).plan),
            ("greedy", greedy_sja(&model).plan),
            ("sja+", sja_plus(&model).plan),
        ];
        if json {
            let mut rows = Vec::new();
            for (name, plan) in &plans {
                for d in dataflow_lint_plan(plan, &model, &bounds)? {
                    rows.push(diagnostic_json(Some(name), &d));
                }
            }
            return Ok(json_array(&rows));
        }
        let mut out = String::new();
        let mut findings = 0usize;
        for (name, plan) in &plans {
            let analysis = analyze_plan(plan)?;
            let verdict = if analysis.verdict().is_proved() {
                "proved equivalent to the fusion query"
            } else {
                "REFUTED"
            };
            let diags = dataflow_lint_plan(plan, &model, &bounds)?;
            out.push_str(&format!("{name}: {} steps, {verdict}", plan.steps.len()));
            if diags.is_empty() {
                out.push_str(", no lint findings\n");
            } else {
                out.push('\n');
                for d in &diags {
                    findings += 1;
                    out.push_str(&format!("  {d}\n"));
                }
            }
        }
        out.push_str(&format!(
            "{findings} finding(s) across {} plans",
            plans.len()
        ));
        Ok(out)
    }

    /// `\explain [--analyze] [--bounds] [--json] <sql>`: optimizer cost
    /// comparison and the annotated SJA+ plan, optionally with the
    /// semantic proof + lints (`--analyze`), static cardinality/cost
    /// intervals (`--bounds`), or machine-readable diagnostics
    /// (`--json`, requires `--analyze`).
    fn cmd_explain(&mut self, arg: &str) -> Result<String> {
        let (flags, sql) = split_flags(arg);
        let parsed = parse_flags(&flags, &["--analyze", "--bounds", "--json"])?;
        let (analyze, bounds_mode, json) = (parsed[0], parsed[1], parsed[2]);
        if json && !analyze {
            return Err(FusionError::execution(
                "\\explain --json requires --analyze (it emits the diagnostics)",
            ));
        }
        if sql.is_empty() {
            return Err(FusionError::execution("empty query"));
        }
        let (query, sources, network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let f = filter_plan(&model);
        let sj = sj_optimal(&model);
        let sja = sja_optimal(&model);
        let plus = sja_plus(&model);
        let bounds = self.source_bounds(&query);
        if json {
            let rows: Vec<String> = dataflow_lint_plan(&plus.plan, &model, &bounds)?
                .iter()
                .map(|d| diagnostic_json(None, d))
                .collect();
            return Ok(json_array(&rows));
        }
        let mut out = String::new();
        out.push_str(&format!(
            "estimated costs: FILTER {} | SJ {} | SJA {} | SJA+ {}\n\n",
            f.cost, sj.cost, sja.cost, plus.cost
        ));
        out.push_str(&explain(&plus.plan, &model, Some(query.conditions())));
        if analyze {
            let analysis = analyze_plan(&plus.plan)?;
            match analysis.verdict() {
                Verdict::Proved => out.push_str(
                    "\nsemantic analysis: proved — the plan computes \
                     ⋂_i ⋃_j sq(c_i, R_j)",
                ),
                Verdict::Refuted(cx) => {
                    out.push_str(&format!("\nsemantic analysis: REFUTED\n{cx}"));
                }
            }
            let diags = dataflow_lint_plan(&plus.plan, &model, &bounds)?;
            if diags.is_empty() {
                out.push_str("\nlint: no findings");
            } else {
                out.push_str("\nlint:");
                for d in &diags {
                    out.push_str(&format!("\n  {d}"));
                }
            }
        }
        if bounds_mode {
            let df = fusion_core::analyze_dataflow(&plus.plan, &model, &bounds)?;
            out.push('\n');
            out.push_str(&render_bounds(&plus.plan, &df));
        }
        Ok(out)
    }

    /// `\dataflow <sql>`: the SJA+ plan's def-use/liveness summary, its
    /// certified parallel-stage decomposition, and the static
    /// cardinality and cost intervals seeded from real per-source
    /// statistics.
    fn cmd_dataflow(&mut self, sql: &str) -> Result<String> {
        let (query, sources, network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let plus = sja_plus(&model);
        let bounds = self.source_bounds(&query);
        let df = fusion_core::analyze_dataflow(&plus.plan, &model, &bounds)?;
        let stages = stage_decomposition(&plus.plan)?.stages;
        let dead = df.live.iter().filter(|l| !**l).count();
        let mut out = format!(
            "SJA+ plan: {} steps, {} live, {} dead\n",
            plus.plan.steps.len(),
            plus.plan.steps.len() - dead,
            dead
        );
        out.push_str(&format!(
            "parallel stages (certificate checked against the BDD analyzer): {}\n",
            stages.len()
        ));
        for (i, steps) in stages.iter().enumerate() {
            let list: Vec<String> = steps.iter().map(|t| (t + 1).to_string()).collect();
            out.push_str(&format!("  stage {}: steps {}\n", i + 1, list.join(", ")));
        }
        out.push_str(&render_bounds(&plus.plan, &df));
        Ok(out)
    }

    /// `\check <sql>`: the concurrency certificate, end to end. Builds
    /// the SJA+ plan's certified event graph, prints every event's
    /// read/write footprint over shared state, runs the static
    /// interference analysis, and then model-checks the certificate:
    /// every reduced interleaving (plus seeded random linearizations)
    /// is replayed against the executor semantics and must reproduce
    /// the sequential reference byte-for-byte. Honors the session's
    /// `\faults` and `\cache` settings.
    fn cmd_check(&mut self, sql: &str) -> Result<String> {
        let (query, sources, network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let plus = sja_plus(&model);
        let stages = stage_decomposition(&plus.plan)?.stages;
        let cached = self.cache.is_some();
        let faults_on = self.faults.is_some();
        let graph = EventGraph::certified(&plus.plan, &stages, cached);
        let mut out = format!(
            "SJA+ plan: {} steps, {} certified stages, {} events{}{}\n",
            plus.plan.steps.len(),
            stages.len(),
            graph.events().len(),
            if cached {
                ", cached-executor semantics"
            } else {
                ""
            },
            if faults_on {
                ", fault-tolerant retries"
            } else {
                ""
            },
        );
        out.push_str("event footprints over shared state:\n");
        let names: Vec<String> = graph.events().iter().map(ToString::to_string).collect();
        let width = names.iter().map(String::len).max().unwrap_or(0);
        for (i, name) in names.iter().enumerate() {
            let fp = graph.footprint(i);
            out.push_str(&format!(
                "  {name:<width$}  reads {{{}}}  writes {{{}}}\n",
                render_resources(&fp.reads),
                render_resources(&fp.writes),
            ));
        }
        let interferences = graph.interferences();
        if interferences.is_empty() {
            out.push_str(
                "interference: none — every conflicting pair is ordered by the certificate\n",
            );
        } else {
            out.push_str("interference (the certificate is UNSAFE):\n");
            for i in &interferences {
                out.push_str(&format!("  {i}\n"));
            }
            return Ok(out);
        }
        let links: Vec<Link> = self.sources.iter().map(|s| s.link).collect();
        let fault_plan = self.fault_plan(self.sources.len())?;
        let make_net = move || {
            let mut n = Network::new(links.clone());
            if let Some(p) = &fault_plan {
                n.set_fault_plan(p.clone());
            }
            n
        };
        let policy = faults_on.then(RetryPolicy::default);
        let mut cfg = CheckConfig::default();
        if let Some(cache) = &self.cache {
            cfg = cfg.cached(cache.budget());
        }
        let report = check_certified(
            &plus.plan,
            &query,
            &sources,
            &make_net,
            policy.as_ref(),
            &cfg,
        )?;
        match &report.divergence {
            None => out.push_str(&format!(
                "model check: {} schedule(s) replayed{} — all byte-identical to the \
                 sequential reference",
                report.schedules_run,
                if report.truncated {
                    " (enumeration truncated)"
                } else {
                    ""
                }
            )),
            Some(d) => out.push_str(&format!("model check: DIVERGENCE\n  {d}")),
        }
        Ok(out)
    }

    /// Per-source statistics-seeded interval bounds for the query.
    fn source_bounds(&self, query: &FusionQuery) -> SourceBounds {
        let stats: Vec<TableStats> = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| TableStats::build(&s.relation, i as u64))
            .collect();
        SourceBounds::from_stats(query.conditions(), &stats)
    }

    /// Renders an ASCII Gantt chart of the SJA+ plan's parallel schedule.
    fn cmd_gantt(&mut self, sql: &str) -> Result<String> {
        let (query, sources, mut network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let plus = sja_plus(&model);
        let outcome = execute_plan(&plus.plan, &query, &sources, &mut network)?;
        let (placements, makespan) = fusion_exec::schedule(&plus.plan, &outcome.ledger)?;
        if makespan <= 0.0 {
            return Ok("nothing to schedule".into());
        }
        const WIDTH: usize = 60;
        let mut out = format!(
            "parallel schedule (total work {}, response time {:.3}):
",
            outcome.total_cost(),
            makespan
        );
        for j in 0..plus.plan.n_sources {
            let mut bar = vec![' '; WIDTH];
            for p in placements.iter().filter(|p| p.source.0 == j) {
                let s = ((p.start / makespan) * WIDTH as f64).floor() as usize;
                let e = (((p.finish / makespan) * WIDTH as f64).ceil() as usize).min(WIDTH);
                let glyph = match &plus.plan.steps[p.step] {
                    fusion_core::Step::Sq { .. } => 's',
                    fusion_core::Step::Sjq { .. } => 'j',
                    fusion_core::Step::SjqBloom { .. } => 'b',
                    fusion_core::Step::Lq { .. } => 'L',
                    _ => '?',
                };
                for cell in bar.iter_mut().take(e.max(s + 1)).skip(s) {
                    *cell = glyph;
                }
            }
            out.push_str(&format!(
                "R{:<3} |{}|
",
                j + 1,
                bar.iter().collect::<String>()
            ));
        }
        out.push_str("      0");
        out.push_str(&" ".repeat(WIDTH.saturating_sub(8)));
        out.push_str(&format!(
            "{makespan:.2}
"
        ));
        out.push_str("      s = selection, j = semijoin, b = bloom semijoin, L = full load");
        Ok(out)
    }

    /// Shows the raw exchange trace of executing the SJA+ plan.
    fn cmd_trace(&mut self, sql: &str) -> Result<String> {
        let (query, sources, mut network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let plus = sja_plus(&model);
        let outcome = execute_plan(&plus.plan, &query, &sources, &mut network)?;
        let mut out = format!(
            "{} exchanges, {} bytes sent, {} bytes received, total cost {}:\n",
            network.trace().len(),
            network.trace().iter().map(|e| e.req_bytes).sum::<usize>(),
            network.trace().iter().map(|e| e.resp_bytes).sum::<usize>(),
            outcome.total_cost()
        );
        for (i, e) in network.trace().iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. {:<5} {}  →{:>8}B  ←{:>8}B  {}\n",
                i + 1,
                e.kind.to_string(),
                e.source,
                e.req_bytes,
                e.resp_bytes,
                e.cost
            ));
        }
        out.push_str(&format!("answer: {}", outcome.answer));
        Ok(out)
    }

    /// Executes with mid-query re-optimization at every round and reports
    /// the rounds.
    fn cmd_adaptive(&mut self, sql: &str) -> Result<String> {
        let (query, sources, mut network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        let mut feedback = CardinalityFeedback::new(query.m(), sources.len());
        let faults_on = self.faults.is_some();
        let policy = faults_on.then(RetryPolicy::default);
        let rule = ReoptRule::Live {
            model: &model,
            feedback: &mut feedback,
            config: &ReoptConfig::every_round(),
        };
        let target = Target::Spec(&sja_optimal(&model).spec, rule);
        let options = RunOptions {
            retry: policy.as_ref(),
            ..RunOptions::default()
        };
        let out = run(target, &query, &sources, &mut network, options)?;
        let answer = &out.outcome.answer;
        let mut text = format!(
            "answer ({} items): {}
executed cost {} with per-round re-optimization:",
            answer.len(),
            answer,
            out.outcome.total_cost()
        );
        if faults_on {
            text.push_str(&format!("\ncompleteness: {}", out.outcome.completeness));
        }
        for round in out.reopt.iter().flat_map(|r| &r.rounds) {
            let kinds: Vec<&str> = round
                .choices
                .iter()
                .map(|c| match c {
                    fusion_core::SourceChoice::Selection => "sq",
                    fusion_core::SourceChoice::Semijoin => "sjq",
                })
                .collect();
            text.push_str(&format!(
                "
  {}: [{}]  predicted |X| ≈ {:.0}, observed {}",
                round.cond,
                kinds.join(" "),
                round.predicted_size,
                round.actual_size
            ));
        }
        Ok(text)
    }

    /// Executes with certified runtime re-optimization: the SJA plan
    /// runs with interval monitoring, and an observation escaping its
    /// believed bounds re-opens the suffix search. An optional leading
    /// `xF` (e.g. `x16`) inflates every cardinality estimate by F, so
    /// the locked-in plan misestimates and the switch machinery is
    /// visible on demand.
    fn cmd_reopt(&mut self, arg: &str) -> Result<String> {
        // The factor is echoed as typed: `x1e308` prints as such, not as
        // its 309 decimal digits.
        let (factor, head, sql) = match arg.split_once(char::is_whitespace) {
            Some((head, rest)) if head.starts_with('x') => match head[1..].parse::<f64>() {
                Ok(f) if f > 0.0 && f.is_finite() => (f, head, rest.trim()),
                _ => {
                    return Err(FusionError::parse(format!(
                        "bad distortion `{head}` (use e.g. x16)"
                    )));
                }
            },
            _ => (1.0, "x1", arg),
        };
        let (query, sources, mut network) = self.materialize(sql)?;
        let base = NetworkCostModel::new(&sources, &network, &query, None);
        let model = DistortedModel {
            inner: &base,
            factor,
        };
        let opt = sja_optimal(&model);
        let mut feedback = CardinalityFeedback::new(query.m(), sources.len());
        let faults_on = self.faults.is_some();
        let policy = faults_on.then(RetryPolicy::default);
        let rule = ReoptRule::Live {
            model: &model,
            feedback: &mut feedback,
            config: &ReoptConfig::default(),
        };
        let options = RunOptions {
            retry: policy.as_ref(),
            ..RunOptions::default()
        };
        let out = run(
            Target::Spec(&opt.spec, rule),
            &query,
            &sources,
            &mut network,
            options,
        )?;
        // Independently re-certify and re-execute from the recorded
        // switches before reporting anything.
        let make_net = || {
            let mut n = Network::new(self.sources.iter().map(|s| s.link).collect());
            if let Ok(Some(plan)) = self.fault_plan(self.sources.len()) {
                n.set_fault_plan(plan);
            }
            n
        };
        let verified = fusion_check::verify_reopt_replay(
            &out,
            &opt.spec,
            &query,
            &sources,
            &make_net,
            policy.as_ref(),
        )?;
        let switches = out.reopt.as_ref().map_or(&[][..], |r| &r.switches[..]);
        let violations = out.reopt.as_ref().map_or(0, |r| r.violations);
        let mut text = format!(
            "answer ({} items): {}\nexecuted cost {}; {} interval violation{}, {} certified switch{}",
            out.outcome.answer.len(),
            out.outcome.answer,
            out.outcome.total_cost(),
            violations,
            if violations == 1 { "" } else { "s" },
            switches.len(),
            if switches.len() == 1 { "" } else { "es" },
        );
        if factor != 1.0 {
            text.push_str(&format!(" (estimates distorted {head})"));
        }
        if faults_on {
            text.push_str(&format!("\ncompleteness: {}", out.outcome.completeness));
        }
        for sw in switches {
            text.push_str(&format!(
                "\n  after round {}: step #{} returned {} items, believed {} — \
                 re-searched suffix from |X|={:.0}: {} → {} ({})",
                sw.rounds_done,
                sw.violating_step + 1,
                sw.observed,
                sw.expected,
                sw.x0,
                sw.old_suffix_cost,
                sw.new_suffix_cost,
                sw.certificate,
            ));
        }
        text.push_str(&format!(
            "\nfeedback: {} cells observed; replay: {} switch{} re-certified bit-for-bit",
            feedback.observed_cells(),
            verified,
            if verified == 1 { "" } else { "es" },
        ));
        Ok(text)
    }

    /// Configures deterministic fault injection for query execution.
    ///
    /// `\faults` shows the settings, `\faults off` disables injection,
    /// and `\faults [seed=N] [transient=P] [timeout=P] [slow=PxF]
    /// [outage=J@K]` enables it: every exchange draws from a seeded
    /// schedule, failed queries are retried with backoff, and when a
    /// source stays down the query degrades to a partial answer.
    fn cmd_faults(&mut self, arg: &str) -> Result<String> {
        if arg.is_empty() {
            return Ok(match &self.faults {
                Some(f) => f.describe(),
                None => "faults off".into(),
            });
        }
        if arg == "off" {
            self.faults = None;
            return Ok("faults off".into());
        }
        let mut seed = 0u64;
        let mut spec = FaultSpec::none();
        let mut outage = None;
        for tok in arg.split_whitespace() {
            let (key, val) = tok.split_once('=').ok_or_else(|| {
                FusionError::parse(format!(
                    "bad fault option `{tok}` (seed=N transient=P timeout=P \
                     slow=PxF outage=J@K, or `off`)"
                ))
            })?;
            let bad = |what: &str| FusionError::parse(format!("bad {what} in `{tok}`"));
            match key {
                "seed" => seed = val.parse().map_err(|_| bad("seed"))?,
                "transient" => {
                    spec.transient_rate = val.parse().map_err(|_| bad("rate"))?;
                }
                "timeout" => spec.timeout_rate = val.parse().map_err(|_| bad("rate"))?,
                "slow" => {
                    let (rate, factor) = val.split_once('x').ok_or_else(|| bad("slow spec"))?;
                    spec.slowdown_rate = rate.parse().map_err(|_| bad("rate"))?;
                    spec.slowdown_factor = factor.parse().map_err(|_| bad("factor"))?;
                }
                "outage" => {
                    let (j, from) = val.split_once('@').ok_or_else(|| bad("outage spec"))?;
                    let j: usize = j.parse().map_err(|_| bad("source number"))?;
                    if j == 0 {
                        return Err(bad("source number (sources are 1-based)"));
                    }
                    let from: usize = from.parse().map_err(|_| bad("attempt index"))?;
                    outage = Some((j - 1, from));
                }
                other => {
                    return Err(FusionError::parse(format!(
                        "unknown fault option `{other}`"
                    )));
                }
            }
        }
        let rates_valid = [spec.transient_rate, spec.timeout_rate, spec.slowdown_rate]
            .iter()
            .all(|r| (0.0..=1.0).contains(r))
            && spec.transient_rate + spec.timeout_rate + spec.slowdown_rate <= 1.0
            && spec.slowdown_factor >= 1.0;
        if !rates_valid {
            return Err(FusionError::parse(
                "fault rates must lie in [0, 1], sum to at most 1, and the \
                 slowdown factor must be at least 1",
            ));
        }
        let settings = FaultSettings { seed, spec, outage };
        let text = settings.describe();
        self.faults = Some(settings);
        Ok(text)
    }

    /// `\cache` shows the answer-cache status, `\cache on [budget=N]`
    /// enables semantic caching (queries are optimized against the warm
    /// snapshot and served from cache where possible), `\cache clear`
    /// drops all entries, and `\cache off` disables it.
    fn cmd_cache(&mut self, arg: &str) -> Result<String> {
        match arg {
            "" => Ok(self.describe_cache()),
            "off" => {
                self.cache = None;
                Ok("cache off".into())
            }
            "clear" => match self.cache.as_mut() {
                Some(c) => {
                    c.clear();
                    Ok("cache cleared".into())
                }
                None => Err(FusionError::execution("cache is off (use \\cache on)")),
            },
            other => {
                let rest = other.strip_prefix("on").ok_or_else(|| {
                    FusionError::parse(format!(
                        "bad cache option `{other}` (\\cache [on [budget=N] | off | clear])"
                    ))
                })?;
                let rest = rest.trim();
                let budget = if rest.is_empty() {
                    DEFAULT_CACHE_BUDGET
                } else if let Some(v) = rest.strip_prefix("budget=") {
                    v.parse()
                        .map_err(|_| FusionError::parse(format!("bad budget in `{rest}`")))?
                } else {
                    return Err(FusionError::parse(format!(
                        "bad cache option `{rest}` (\\cache on [budget=N])"
                    )));
                };
                self.cache = Some(AnswerCache::new(budget));
                Ok(format!("cache on: budget {budget} bytes"))
            }
        }
    }

    /// `\sessions` shows the multi-tenant workload settings and a
    /// preview of the generated streams; `\sessions key=val...` updates
    /// them (tenants=N queries=K skew=S updates=P seed=X).
    fn cmd_sessions(&mut self, arg: &str) -> Result<String> {
        for tok in arg.split_whitespace() {
            let (key, val) = tok.split_once('=').ok_or_else(|| {
                FusionError::parse(format!(
                    "bad session option `{tok}` (tenants=N queries=K skew=S updates=P seed=X)"
                ))
            })?;
            let bad = |what: &str| FusionError::parse(format!("bad {what} in `{tok}`"));
            match key {
                "tenants" => {
                    self.sessions.tenants = val.parse().map_err(|_| bad("tenant count"))?;
                }
                "queries" => {
                    self.sessions.queries = val.parse().map_err(|_| bad("query count"))?;
                }
                "skew" => self.sessions.skew = val.parse().map_err(|_| bad("skew"))?,
                "updates" => {
                    self.sessions.update_rate = val.parse().map_err(|_| bad("update rate"))?;
                }
                "seed" => self.sessions.seed = val.parse().map_err(|_| bad("seed"))?,
                other => {
                    return Err(FusionError::parse(format!(
                        "unknown session option `{other}`"
                    )));
                }
            }
        }
        if self.sessions.tenants == 0 || self.sessions.queries == 0 {
            return Err(FusionError::parse("tenants and queries must be positive"));
        }
        let mut out = vec![self.sessions.describe()];
        for (t, stream) in self.tenant_streams().iter().enumerate() {
            let events: Vec<String> = stream
                .iter()
                .map(|e| match e {
                    TenantEvent::Query(_) => "q".to_string(),
                    TenantEvent::Update(s) => format!("upd(R{})", s.0 + 1),
                })
                .collect();
            out.push(format!("tenant {t}: {}", events.join(" ")));
        }
        Ok(out.join("\n"))
    }

    /// The synthetic scenario and per-tenant streams `\serve` runs:
    /// every tenant draws from one shared Zipf query pool (so the
    /// shared cache has cross-tenant reuse to find) but follows its own
    /// event stream.
    fn tenant_streams(&self) -> Vec<Vec<TenantEvent>> {
        let spec = fusion_workload::session::SessionSpec {
            m: 2,
            n_sources: SERVE_SOURCES,
            pool: 6,
            n_queries: self.sessions.queries,
            skew: self.sessions.skew,
            update_rate: self.sessions.update_rate,
            sel_range: (0.02, 0.45),
            seed: self.sessions.seed ^ 0x5E55,
        };
        (0..self.sessions.tenants)
            .map(|t| {
                fusion_workload::session::generate_session_for_tenant(&spec, t as u64)
                    .events
                    .iter()
                    .map(|e| match e {
                        fusion_workload::session::SessionEvent::Query { query, .. } => {
                            TenantEvent::Query(query.clone())
                        }
                        fusion_workload::session::SessionEvent::Update { source } => {
                            TenantEvent::Update(*source)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The synthetic scenario `\serve` and `\share` run over.
    fn serve_scenario(&self) -> fusion_workload::Scenario {
        fusion_workload::synth::synth_scenario(
            &fusion_workload::synth::SynthSpec {
                n_sources: SERVE_SOURCES,
                domain_size: 1_000,
                rows_per_source: 400,
                seed: self.sessions.seed,
                ..fusion_workload::synth::SynthSpec::default_with(SERVE_SOURCES, self.sessions.seed)
            },
            &[0.2, 0.2],
        )
    }

    /// `\serve [workers=W] [budget=N] [limit=L] [share=on|off]`: run
    /// the `\sessions` workload through the multi-tenant server over a
    /// shared answer cache, then serially replay the admission log and
    /// byte-compare every answer and ledger before reporting.
    fn cmd_serve(&mut self, arg: &str) -> Result<String> {
        let mut config = ServerConfig::with_workers(4);
        config.cache_budget = DEFAULT_CACHE_BUDGET;
        for tok in arg.split_whitespace() {
            let (key, val) = tok.split_once('=').ok_or_else(|| {
                FusionError::parse(format!(
                    "bad serve option `{tok}` (workers=W budget=N limit=L share=on|off)"
                ))
            })?;
            let bad = |what: &str| FusionError::parse(format!("bad {what} in `{tok}`"));
            match key {
                "workers" => {
                    let w: usize = val.parse().map_err(|_| bad("worker count"))?;
                    if w == 0 {
                        return Err(bad("worker count (must be positive)"));
                    }
                    config.workers = w;
                }
                "budget" => config.cache_budget = val.parse().map_err(|_| bad("budget"))?,
                "limit" => {
                    let l: usize = val.parse().map_err(|_| bad("limit"))?;
                    if l == 0 {
                        return Err(bad("limit (must be positive)"));
                    }
                    config.per_source_limit = l;
                }
                "share" => {
                    config.share = match val {
                        "on" => true,
                        "off" => false,
                        _ => return Err(bad("share setting (on|off)")),
                    };
                }
                other => {
                    return Err(FusionError::parse(format!(
                        "unknown serve option `{other}`"
                    )));
                }
            }
        }
        let scenario = self.serve_scenario();
        let tenants = self.tenant_streams();
        let netf = || scenario.network();
        let report = serve(
            &scenario.sources,
            &netf,
            Some(scenario.domain_size),
            &tenants,
            &config,
        )?;
        let (replayed, fp) = replay_serial(
            &scenario.sources,
            &netf,
            Some(scenario.domain_size),
            &tenants,
            &config,
            &report.log,
        )?;
        let parity = verify_replay_parity(&report, &replayed, &fp)?;
        let s = &report.cache;
        let lookups = s.hits + s.residual_hits + s.misses;
        let served_exact: usize = report.results.iter().map(|r| r.served_exact).sum();
        let served_residual: usize = report.results.iter().map(|r| r.served_residual).sum();
        let shared: usize = report.results.iter().map(|r| r.shared).sum();
        let shared_residual: usize = report.results.iter().map(|r| r.shared_residual).sum();
        Ok(format!(
            "served {} queries from {} tenants over {} workers ({} shed)\n\
             total executed cost {:.3}, {} of {} lookups cached \
             ({served_exact} exact + {served_residual} residual selections served warm)\n\
             sharing {}: {shared} selections rode co-admitted fetches \
             ({shared_residual} through a residual filter)\n\
             log: {} ops, {} commuting pairs, linearization certified\n\
             replay parity: {parity} answers and ledgers byte-identical to the serial replay\n{}",
            report.results.len(),
            tenants.len(),
            config.workers,
            report.shed.len(),
            report.total_cost().value(),
            s.hits + s.residual_hits,
            lookups,
            if config.share { "on" } else { "off" },
            report.log.len(),
            report.commuting_pairs,
            Memos::shared().stats(),
        ))
    }

    /// `\share`: the server's share rule over the co-admission front —
    /// the first query of every tenant in the `\sessions` workload,
    /// planned as the server would plan it and admitted in ticket
    /// (tenant) order with nothing cached. Prints what each selection
    /// does (fetch, or ride an earlier fetch), the exchange count, and
    /// the sharing lints over that schedule.
    fn cmd_share(&mut self, arg: &str) -> Result<String> {
        if !arg.is_empty() {
            return Err(FusionError::parse(format!(
                "\\share takes no options (got `{arg}`)"
            )));
        }
        let scenario = self.serve_scenario();
        let tenants = self.tenant_streams();
        let mut batch: Vec<(u64, Plan, FusionQuery)> = Vec::new();
        for (t, stream) in tenants.iter().enumerate() {
            let Some(TenantEvent::Query(q)) =
                stream.iter().find(|e| matches!(e, TenantEvent::Query(_)))
            else {
                continue;
            };
            let model = NetworkCostModel::new(
                &scenario.sources,
                &scenario.network(),
                q,
                Some(scenario.domain_size),
            );
            batch.push((t as u64 + 1, sja_optimal(&model).plan, q.clone()));
        }
        let prove = |b: &Predicate, n: &Predicate| subsumes(b, n);
        let epochs = vec![0; scenario.sources.len()];
        let mut schedule: Vec<ShareStep<'_>> = Vec::new();
        for (ticket, plan, q) in &batch {
            let uncached = vec![false; plan.steps.len()];
            let steps = share_schedule(
                &schedule,
                *ticket,
                plan,
                q.conditions(),
                &uncached,
                &epochs,
                &prove,
            );
            schedule.extend(steps);
        }
        let exchanges = schedule.iter().filter(|s| s.leader.is_none()).count();
        let mut out = vec![format!(
            "share schedule over {} co-admitted plans: {exchanges} exchanges \
             for {} selections; attaches:",
            batch.len(),
            schedule.len(),
        )];
        for s in &schedule {
            let Some((t, step)) = s.leader else {
                continue;
            };
            out.push(format!(
                "  q{}#{} sq(c{}, R{}) rides q{t}#{}{}",
                s.ticket,
                s.step + 1,
                s.cond.0 + 1,
                s.source.0 + 1,
                step + 1,
                if s.residual { " + residual" } else { "" }
            ));
        }
        let findings: Vec<Diagnostic> = duplicate_inflight_findings(&schedule, &prove)
            .into_iter()
            .chain(unshared_subsumed_findings(&schedule, &prove))
            .chain(unsound_merge_findings(&schedule, &prove))
            .collect();
        if findings.is_empty() {
            out.push(
                "lints quiet: duplicate-inflight-step, unshared-subsumed-step, \
                 unsound-merge-residual"
                    .into(),
            );
        } else {
            for d in findings {
                out.push(format!("lint {}: {}", d.rule, d.message));
            }
        }
        Ok(out.join("\n"))
    }

    /// The `\cache` status text: size, epochs, and lifetime counters.
    fn describe_cache(&self) -> String {
        let Some(c) = &self.cache else {
            return "cache off".into();
        };
        let s = c.stats();
        let epochs = if self.sources.is_empty() {
            "-".to_string()
        } else {
            c.epochs(self.sources.len())
                .iter()
                .enumerate()
                .map(|(j, e)| format!("R{}={e}", j + 1))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "cache on: {} entries, {} of {} bytes used\n\
             epochs: {epochs}\n\
             hits {} ({} residual), misses {}, insertions {}, evictions {}, \
             rejections {}, invalidations {}\n{}",
            c.len(),
            c.bytes_used(),
            c.budget(),
            s.hits,
            s.residual_hits,
            s.misses,
            s.insertions,
            s.evictions,
            s.rejections,
            s.invalidations,
            Memos::shared().stats()
        )
    }

    /// `\exec [--parallel[=T]] <sql>`: execute explicitly, optionally on
    /// the multi-threaded executor with makespan measurements.
    fn cmd_exec(&mut self, arg: &str) -> Result<String> {
        let arg = arg.trim();
        let (threads, sql) = if let Some(rest) = arg.strip_prefix("--parallel") {
            let (spec, sql) = match rest.split_once(char::is_whitespace) {
                Some((spec, sql)) => (spec, sql.trim()),
                None => (rest, ""),
            };
            let threads = match spec.strip_prefix('=') {
                None if spec.is_empty() => {
                    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
                }
                Some(t) => t.parse::<usize>().map_err(|_| {
                    FusionError::execution(format!("bad thread count `{t}` in --parallel={t}"))
                })?,
                None => {
                    return Err(FusionError::execution(format!(
                        "unknown option `--parallel{spec}` (try --parallel or --parallel=T)"
                    )));
                }
            };
            if threads == 0 {
                return Err(FusionError::execution("--parallel needs at least 1 thread"));
            }
            (Some(threads), sql)
        } else {
            (None, arg)
        };
        self.query(sql, &QueryMode::Execute(threads))
    }

    /// The session's fault plan for `n` sources, if faults are on.
    fn fault_plan(&self, n: usize) -> Result<Option<FaultPlan>> {
        let Some(f) = &self.faults else {
            return Ok(None);
        };
        let mut plan = FaultPlan::uniform(n, f.seed, f.spec.validated());
        if let Some((j, from)) = f.outage {
            if j >= n {
                return Err(FusionError::execution(format!(
                    "fault outage names source R{} but only {n} sources are \
                     registered",
                    j + 1
                )));
            }
            plan = plan.with_outage(SourceId(j), from);
        }
        Ok(Some(plan))
    }

    /// `\fetch [attrs=A,B] [broadcast] <sql>` — phase one converges the
    /// item set, then phase two retrieves the named non-merge
    /// attributes (all of them by default) through the cost-based
    /// covering planner, or through the broadcast baseline on request.
    fn cmd_fetch(&mut self, arg: &str) -> Result<String> {
        let mut opts = FetchOpts::default();
        let mut rest = arg;
        loop {
            let mut parts = rest.splitn(2, char::is_whitespace);
            let head = parts.next().unwrap_or_default();
            if let Some(list) = head.strip_prefix("attrs=") {
                opts.attrs = Some(
                    list.split(',')
                        .filter(|a| !a.is_empty())
                        .map(str::to_string)
                        .collect(),
                );
            } else if head == "broadcast" {
                opts.broadcast = true;
            } else {
                break;
            }
            rest = parts.next().unwrap_or("").trim();
        }
        self.query(rest, &QueryMode::Fetch(opts))
    }

    /// Resolves requested attribute names to ascending schema indexes;
    /// an empty request means every non-merge attribute.
    fn resolve_fetch_attrs(schema: &Schema, opts: &FetchOpts) -> Result<Vec<usize>> {
        let Some(names) = &opts.attrs else {
            return Ok(fusion_core::phase2::non_merge_attrs(schema));
        };
        let mut attrs = Vec::new();
        for name in names {
            let idx = schema
                .attributes()
                .iter()
                .position(|a| a.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    FusionError::execution(format!("unknown attribute `{name}` in attrs="))
                })?;
            if idx == schema.merge_index() {
                return Err(FusionError::execution(format!(
                    "`{name}` is the merge attribute; it is part of every record"
                )));
            }
            if !attrs.contains(&idx) {
                attrs.push(idx);
            }
        }
        attrs.sort_unstable();
        if attrs.is_empty() {
            return Err(FusionError::execution("attrs= names no attributes"));
        }
        Ok(attrs)
    }

    /// The `cache:` line of a cached run: what the run added to the
    /// counters read `before` it (`None` with the cache off).
    fn cache_delta_line(&self, before: Option<fusion_cache::CacheStats>) -> Option<String> {
        let (before, after) = before.zip(self.cache.as_ref().map(|c| *c.stats()))?;
        Some(format!(
            "\ncache: {} exact, {} residual, {} miss",
            after.hits - before.hits,
            after.residual_hits - before.residual_hits,
            after.misses - before.misses
        ))
    }

    fn query(&mut self, sql: &str, mode: &QueryMode) -> Result<String> {
        if sql.is_empty() {
            return Err(FusionError::execution("empty query"));
        }
        let (query, sources, mut network) = self.materialize(sql)?;
        let model = NetworkCostModel::new(&sources, &network, &query, None);
        match mode {
            QueryMode::Execute(_) | QueryMode::Fetch(_) => {
                let faults_on = self.faults.is_some();
                let n_sources = self.sources.len();
                let policy = faults_on.then(RetryPolicy::default);
                let plan = match &mut self.cache {
                    Some(cache) => {
                        let snap = cache.snapshot(query.conditions(), n_sources);
                        // SJA (not SJA+): post-optimization can replace sq
                        // rounds with whole-relation loads, which the cache
                        // can neither serve nor harvest. The selection /
                        // semijoin plans keep the cache in the loop.
                        sja_optimal(&CachedCostModel::new(&model, &snap)).plan
                    }
                    None => sja_plus(&model).plan,
                };
                let before = self.cache.as_ref().map(|c| *c.stats());
                let schedule = match mode {
                    QueryMode::Execute(Some(threads)) => Schedule::Stages {
                        threads: *threads,
                        pace: None,
                    },
                    _ => Schedule::Sequential,
                };
                let options = RunOptions {
                    schedule,
                    retry: policy.as_ref(),
                    cache: self.cache.as_mut(),
                };
                let ran = run(Target::Plan(&plan), &query, &sources, &mut network, options)?;
                let outcome = &ran.outcome;
                let cache_line = self.cache_delta_line(before);
                let total = outcome.total_cost();
                let mut out = format!(
                    "answer ({} items): {}\nexecuted cost {} over {} round trips",
                    outcome.answer.len(),
                    outcome.answer,
                    total,
                    outcome.ledger.round_trips()
                );
                if let Some(st) = &ran.stages {
                    out.push_str(&format!(
                        "\nparallel: {} threads over {} stages, simulated makespan {:.3} \
                         ({:.2}x over total work), wall clock {:.1} ms",
                        st.threads,
                        st.stages,
                        st.makespan,
                        total.value() / st.makespan.max(f64::MIN_POSITIVE),
                        st.wall.as_secs_f64() * 1e3,
                    ));
                }
                if let Some(line) = cache_line {
                    out.push_str(&line);
                }
                if faults_on {
                    out.push_str(&format!(
                        "\ncompleteness: {}\nattempts {} ({} failed), failed-attempt cost {}",
                        outcome.completeness,
                        outcome.ledger.attempts_total(),
                        outcome
                            .ledger
                            .attempts_total()
                            .saturating_sub(outcome.ledger.round_trips()),
                        outcome.ledger.failed_total()
                    ));
                }
                if let QueryMode::Fetch(opts) = mode {
                    if outcome.answer.is_empty() {
                        out.push_str("\nnothing to fetch: the answer is empty");
                    } else if opts.broadcast {
                        let fetched = fetch_records(&outcome.answer, &sources, &mut network)?;
                        out.push_str(&format!(
                            "\nbroadcast fetched {} records (cost {}):",
                            fetched.records.len(),
                            fetched.cost
                        ));
                        push_records(&mut out, &fetched.records);
                    } else {
                        let schema = query.schema().clone();
                        let attrs = Self::resolve_fetch_attrs(&schema, opts)?;
                        let relations: Vec<Relation> =
                            self.sources.iter().map(|s| s.relation.clone()).collect();
                        let fetchable: Vec<bool> =
                            self.sources.iter().map(|s| s.caps.record_fetch).collect();
                        let catalog = fusion_core::phase2::CoverageCatalog::from_relations(
                            &schema, &relations, &fetchable,
                        );
                        // Price the broadcast baseline on a pristine
                        // clone so the comparison shares phase one.
                        let mut bnet = network.clone();
                        let policy = faults_on.then(RetryPolicy::default);
                        let (plan, cert, fetched) = fusion_exec::fetch_planned(
                            &outcome.answer,
                            &attrs,
                            &catalog,
                            &model,
                            &schema,
                            &sources,
                            &mut network,
                            self.cache.as_mut(),
                            policy.as_ref(),
                        )?;
                        let names: Vec<&str> = attrs
                            .iter()
                            .map(|&a| schema.attribute(a).name.as_str())
                            .collect();
                        out.push_str(&format!(
                            "\nfetch plan for {{{}}}: {} assignments, planned cost {} \
                             (certified lower bound {:.3})",
                            names.join(", "),
                            cert.n_assignments,
                            cert.planned,
                            cert.lower_bound,
                        ));
                        for a in &plan.assignments {
                            out.push_str(&format!(
                                "\n  {} <- {} items x {} attrs in {} batches (est {})",
                                self.sources[a.source.0].name,
                                a.items.len(),
                                a.attrs.len(),
                                a.batches,
                                a.est_cost
                            ));
                        }
                        if fetched.cached_served > 0 {
                            out.push_str(&format!(
                                "\n  cache served {} items at zero exchange cost",
                                fetched.cached_served
                            ));
                        }
                        if let Ok(broadcast) = fetch_records(&outcome.answer, &sources, &mut bnet) {
                            out.push_str(&format!(
                                "\n  broadcast baseline would cost {} for full records",
                                broadcast.cost
                            ));
                        }
                        out.push_str(&format!(
                            "\nfetched {} records (cost {} over {} round trips):",
                            fetched.records.len(),
                            fetched.total_cost(),
                            fetched.ledger.round_trips()
                        ));
                        push_records(&mut out, &fetched.records);
                        if !fetched.missing.is_empty() {
                            out.push_str(&format!("\ncompleteness: {}", fetched.completeness));
                            for (item, lacking) in fetched.missing.iter().take(10) {
                                out.push_str(&format!(
                                    "\n  {item} lacks {{{}}}",
                                    lacking.join(", ")
                                ));
                            }
                            if fetched.missing.len() > 10 {
                                out.push_str(&format!(
                                    "\n  ... {} more items incomplete",
                                    fetched.missing.len() - 10
                                ));
                            }
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// Parses the SQL and builds fresh wrappers + network for one run.
    fn materialize(&self, sql: &str) -> Result<(FusionQuery, SourceSet, Network)> {
        let schema = self
            .schema
            .clone()
            .ok_or_else(|| FusionError::execution("set a \\schema (or \\scenario) first"))?;
        if self.sources.is_empty() {
            return Err(FusionError::execution(
                "no sources registered (use \\load or \\scenario)",
            ));
        }
        let parsed = fusion_sql::parse_query(sql)?;
        let shape = fusion_sql::into_fusion_shape(&parsed, &schema)?;
        let query = FusionQuery::new(
            schema,
            shape.conditions.into_iter().map(Into::into).collect(),
        )?;
        let sources = SourceSet::new(
            self.sources
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Box::new(InMemoryWrapper::new(
                        s.name.clone(),
                        s.relation.clone(),
                        s.caps,
                        s.processing,
                        i as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        );
        let mut network = Network::new(self.sources.iter().map(|s| s.link).collect());
        if let Some(plan) = self.fault_plan(self.sources.len())? {
            network.set_fault_plan(plan);
        }
        Ok((query, sources, network))
    }
}

/// Every command the shell dispatches, by primary name (aliases like
/// `\h` and `\q` excluded). The dispatcher and the `\help` text are
/// both audited against this table in tests, so adding a command here
/// (or to the dispatcher) without documenting it fails the build's
/// test step.
pub const COMMANDS: &[&str] = &[
    "scenario", "schema", "load", "sources", "explain", "lint", "dataflow", "check", "plan",
    "exec", "fetch", "gantt", "trace", "adaptive", "reopt", "faults", "cache", "sessions", "serve",
    "share", "help", "quit",
];

/// The text shown by `\help`.
pub const HELP: &str = "\
commands:
  \\scenario <dmv|dmv-big|biblio|synth>   load a built-in scenario
  \\schema <name:type,... [@merge]>       define the common schema
  \\load <name> <file.csv> [caps] [link]  register a CSV-backed source
         caps: full | emulated:N | selection-only
         link: lan | wan | inter | slow
  \\sources                               list registered sources
  \\explain [--analyze] [--bounds] [--json] <sql>
         optimizer costs + annotated plan
         --analyze: also prove the plan computes the fusion query + lint it
         --bounds:  static cardinality/cost intervals + response-time bound
         --json:    with --analyze, emit the diagnostics as JSON
  \\lint [--json] <sql>                   analyze + lint every algorithm's plan
  \\dataflow <sql>                        liveness, certified parallel stages,
         and statistics-seeded interval bounds for the SJA+ plan
  \\check <sql>                           concurrency certificate, end to end:
         per-event read/write footprints, static interference analysis of
         the certified stage schedule, and the deterministic schedule
         model-checker (every reduced interleaving replayed, byte-compared
         against the sequential run). Honors \\faults and \\cache.
  \\plan <filter|sj|sja|sja+|greedy|rt> <sql>   show one algorithm's plan
  \\exec [--parallel[=T]] <sql>           execute the SJA+ plan; --parallel
         runs the certified stage schedule on T worker threads (default:
         available cores) and reports the simulated makespan and measured
         wall clock — answers and costs are identical to sequential runs
  \\fetch [attrs=A,B] [broadcast] <sql>   execute, then fetch records for the
         named non-merge attributes (default all) via the cost-based
         covering planner; `broadcast` runs the every-source baseline
  \\gantt <sql>                           ASCII Gantt chart of the SJA+ plan's
         parallel stage schedule
  \\trace <sql>                           raw network exchange trace of
         executing the SJA+ plan
  \\adaptive <sql>                        \\reopt re-planning at every round
         boundary (point trust regions, no gain threshold); reports each
         round's predicted and observed |X|
  \\reopt [xF] <sql>                      execute with certified runtime
         re-optimization: observed cardinalities and the running set are
         checked against believed intervals at every round boundary; a
         violation re-searches the remaining suffix and
         splices the winner in only if the switch certifies (prefix
         identity, BDD semantics, race-free stages). The run is then
         replayed bit-for-bit from its switch records. xF inflates
         every estimate by F to provoke a visible switch. Honors
         \\faults.
  \\faults [off | seed=N transient=P timeout=P slow=PxF outage=J@K]
         deterministic fault injection: failed exchanges are retried with
         backoff; a source that stays down degrades the query to a
         partial (subset) answer. outage=J@K downs source J (1-based)
         from its K-th attempt.
  \\cache [on [budget=N] | off | clear]   semantic answer cache (default
         off): repeated selections are served locally — exactly or by
         subsumption with a residual filter — plans are re-optimized
         against the warm snapshot, and source updates invalidate by
         epoch. \\cache alone shows size, epochs, and hit/miss counters.
  \\sessions [tenants=N] [queries=K] [skew=S] [updates=P] [seed=X]
         configure and preview the multi-tenant Zipf session workload
         \\serve runs: one shared query pool, a per-tenant event stream
         with occasional source updates. \\sessions alone shows the
         current settings and streams.
  \\serve [workers=W] [budget=N] [limit=L] [share=on|off]
         run the session workload through the multi-tenant mediator
         server: a pool of W workers interleaves every tenant's queries
         over one shared answer cache (budget N bytes, at most L
         in-flight exchanges per source); share=on (the default) merges
         provably equivalent or contained selections of co-admitted
         queries into one fetch with fan-out (the \\share rule). The admission
         log is then replayed serially and every answer and ledger
         byte-compared before reporting.
  \\share                                 the server's share rule over
         the co-admission front (the first query of every tenant,
         admitted in tenant order, nothing cached): which selections
         fetch and which ride an earlier fetch — exactly, or through a
         residual filter for a proper containment — the exchange
         count, and the sharing lints.
  \\help                                  this text
  \\quit                                  exit
anything else is parsed as a fusion query and executed with SJA+";

#[derive(Debug, Clone, PartialEq, Eq)]
enum QueryMode {
    /// Sequentially, or (`Some(threads)`) on the certified stages.
    Execute(Option<usize>),
    Fetch(FetchOpts),
}

/// Options parsed off the front of a `\fetch` invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct FetchOpts {
    /// Requested non-merge attributes by name; `None` means all of them.
    attrs: Option<Vec<String>>,
    /// Skip the planner and run the broadcast baseline instead.
    broadcast: bool,
}

/// A cost model whose per-cell cardinality estimates are inflated by a
/// constant factor — the `\reopt xF` misestimation knob. Costs are
/// untouched; only `est_sq_items` (and everything derived from it)
/// drifts, exactly the failure mode stale statistics produce.
struct DistortedModel<'a, M: fusion_core::CostModel> {
    inner: &'a M,
    factor: f64,
}

impl<M: fusion_core::CostModel> fusion_core::CostModel for DistortedModel<'_, M> {
    fn n_conditions(&self) -> usize {
        self.inner.n_conditions()
    }

    fn n_sources(&self) -> usize {
        self.inner.n_sources()
    }

    fn sq_cost(&self, cond: fusion_types::CondId, source: SourceId) -> fusion_types::Cost {
        self.inner.sq_cost(cond, source)
    }

    fn sjq_cost(
        &self,
        cond: fusion_types::CondId,
        source: SourceId,
        est_items: f64,
    ) -> fusion_types::Cost {
        self.inner.sjq_cost(cond, source, est_items)
    }

    fn sjq_bloom_cost(
        &self,
        cond: fusion_types::CondId,
        source: SourceId,
        est_items: f64,
        bits: u8,
    ) -> fusion_types::Cost {
        self.inner.sjq_bloom_cost(cond, source, est_items, bits)
    }

    fn lq_cost(&self, source: SourceId) -> fusion_types::Cost {
        self.inner.lq_cost(source)
    }

    fn est_sq_items(&self, cond: fusion_types::CondId, source: SourceId) -> f64 {
        (self.inner.est_sq_items(cond, source) * self.factor).min(self.domain_size())
    }

    fn domain_size(&self) -> f64 {
        // The distorted domain grows with the estimates, so inflated
        // cells do not saturate into indistinguishability.
        self.inner.domain_size() * self.factor.max(1.0)
    }
}

/// Splits leading `--flag` tokens off a command argument.
fn split_flags(arg: &str) -> (Vec<&str>, &str) {
    let mut rest = arg.trim();
    let mut flags = Vec::new();
    while rest.starts_with("--") {
        let (flag, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        flags.push(flag);
        rest = tail.trim();
    }
    (flags, rest)
}

/// Matches the given flags against the `known` set; returns one bool per
/// known flag and rejects anything else.
fn parse_flags(flags: &[&str], known: &[&str]) -> Result<Vec<bool>> {
    let mut on = vec![false; known.len()];
    for f in flags {
        match known.iter().position(|k| k == f) {
            Some(i) => on[i] = true,
            None => {
                return Err(FusionError::execution(format!(
                    "unknown flag `{f}` (expected {})",
                    known.join(", ")
                )));
            }
        }
    }
    Ok(on)
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One diagnostic as a JSON object (with an optional `algo` tag).
fn diagnostic_json(algo: Option<&str>, d: &Diagnostic) -> String {
    let mut fields = Vec::new();
    if let Some(a) = algo {
        fields.push(format!("\"algo\": \"{}\"", json_escape(a)));
    }
    fields.push(format!("\"rule\": \"{}\"", json_escape(d.rule)));
    fields.push(format!("\"severity\": \"{}\"", d.severity));
    fields.push(format!("\"step\": {}", d.step));
    fields.push(format!("\"message\": \"{}\"", json_escape(&d.message)));
    format!("{{{}}}", fields.join(", "))
}

/// Renders a JSON array, one element per line.
fn json_array(rows: &[String]) -> String {
    if rows.is_empty() {
        return "[]".into();
    }
    format!("[\n  {}\n]", rows.join(",\n  "))
}

/// Renders a footprint's resource list compactly.
fn render_resources(resources: &[Resource]) -> String {
    resources
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the per-step interval table of a dataflow analysis.
fn render_bounds(plan: &Plan, df: &Dataflow) -> String {
    let listing = plan.listing();
    let lines: Vec<&str> = listing.lines().collect();
    let width = lines.iter().map(|l| l.chars().count()).max().unwrap_or(0);
    let mut out = String::from("static bounds (|out| and cost per step):\n");
    for (t, line) in lines.iter().enumerate() {
        let pad = width - line.chars().count();
        out.push_str(&format!(
            "  {}{}  |out| ∈ {}  cost ∈ {}{}\n",
            line,
            " ".repeat(pad),
            df.step_bounds[t],
            df.step_costs[t],
            if df.live[t] { "" } else { "  (dead)" }
        ));
    }
    out.push_str(&format!(
        "plan cost ∈ {}; response time ≥ {:.3}",
        df.total_cost, df.response_lb
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DMV_SQL: &str = "SELECT u1.L FROM U u1, U u2 \
                           WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'";

    fn run(session: &mut Session, line: &str) -> String {
        let (out, ctl) = session.handle(line);
        assert_eq!(ctl, Control::Continue, "unexpected quit for `{line}`");
        out
    }

    #[test]
    fn scenario_query_roundtrip() {
        let mut s = Session::new();
        let out = run(&mut s, "\\scenario dmv");
        assert!(out.contains("3 sources"), "{out}");
        let out = run(&mut s, DMV_SQL);
        assert!(out.contains("{J55, T21}"), "{out}");
        assert!(out.contains("executed cost"), "{out}");
    }

    #[test]
    fn exec_parallel_matches_sequential_answer() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let seq = run(&mut s, &format!("\\exec {DMV_SQL}"));
        assert!(seq.contains("{J55, T21}"), "{seq}");
        assert!(seq.contains("executed cost"), "{seq}");
        for spec in ["--parallel", "--parallel=2", "--parallel=8"] {
            let out = run(&mut s, &format!("\\exec {spec} {DMV_SQL}"));
            assert!(out.contains("{J55, T21}"), "{spec}: {out}");
            assert!(out.contains("simulated makespan"), "{spec}: {out}");
            assert!(out.contains("wall clock"), "{spec}: {out}");
            // Identical executed cost line as the sequential run.
            let cost = |o: &str| {
                o.lines()
                    .find(|l| l.starts_with("executed cost"))
                    .map(str::to_string)
            };
            assert_eq!(cost(&out), cost(&seq), "{spec}");
        }
    }

    #[test]
    fn exec_parallel_with_faults_reports_completeness() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        run(&mut s, "\\faults seed=7 transient=0.4");
        let seq = run(&mut s, &format!("\\exec {DMV_SQL}"));
        let par = run(&mut s, &format!("\\exec --parallel=4 {DMV_SQL}"));
        assert!(par.contains("completeness:"), "{par}");
        assert!(par.contains("simulated makespan"), "{par}");
        let line = |o: &str, tag: &str| o.lines().find(|l| l.starts_with(tag)).map(str::to_string);
        for tag in ["answer", "executed cost", "completeness", "attempts"] {
            assert_eq!(line(&par, tag), line(&seq, tag), "{tag}");
        }
    }

    #[test]
    fn exec_rejects_bad_parallel_specs() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\exec --parallel=zero {DMV_SQL}"));
        assert!(out.contains("bad thread count"), "{out}");
        let out = run(&mut s, &format!("\\exec --parallel=0 {DMV_SQL}"));
        assert!(out.contains("at least 1 thread"), "{out}");
        let out = run(&mut s, &format!("\\exec --parallelism {DMV_SQL}"));
        assert!(out.contains("unknown option"), "{out}");
        let out = run(&mut s, "\\exec --parallel");
        assert!(out.contains("empty query"), "{out}");
    }

    #[test]
    fn check_command_verifies_the_certificate() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\check {DMV_SQL}"));
        assert!(out.contains("certified stages"), "{out}");
        assert!(out.contains("event footprints over shared state"), "{out}");
        assert!(out.contains("interference: none"), "{out}");
        assert!(
            out.contains("byte-identical to the sequential reference"),
            "{out}"
        );
        // The checker honors the session's fault and cache settings.
        run(&mut s, "\\faults seed=7 transient=0.4");
        run(&mut s, "\\cache on");
        let out = run(&mut s, &format!("\\check {DMV_SQL}"));
        assert!(out.contains("cached-executor semantics"), "{out}");
        assert!(out.contains("fault-tolerant retries"), "{out}");
        assert!(out.contains("bump[R"), "{out}");
        assert!(
            out.contains("byte-identical to the sequential reference"),
            "{out}"
        );
    }

    #[test]
    fn explain_and_plan_commands() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\explain {DMV_SQL}"));
        assert!(out.contains("FILTER"), "{out}");
        assert!(out.contains("est.cost"), "{out}");
        for algo in ["filter", "sj", "sja", "sja+", "greedy", "rt"] {
            let out = run(&mut s, &format!("\\plan {algo} {DMV_SQL}"));
            assert!(out.contains("estimated cost"), "{algo}: {out}");
            assert!(out.contains(":= sq("), "{algo}: {out}");
        }
    }

    #[test]
    fn explain_analyze_reports_proof_and_lint() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\explain --analyze {DMV_SQL}"));
        assert!(out.contains("estimated costs"), "{out}");
        assert!(out.contains("semantic analysis: proved"), "{out}");
        assert!(out.contains("lint:"), "{out}");
    }

    #[test]
    fn explain_bounds_prints_intervals() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\explain --bounds {DMV_SQL}"));
        assert!(out.contains("static bounds"), "{out}");
        assert!(out.contains("|out| ∈ ["), "{out}");
        assert!(out.contains("plan cost ∈ ["), "{out}");
        assert!(out.contains("response time ≥"), "{out}");
        // Flags compose: --analyze --bounds shows both sections.
        let out = run(&mut s, &format!("\\explain --analyze --bounds {DMV_SQL}"));
        assert!(out.contains("semantic analysis: proved"), "{out}");
        assert!(out.contains("static bounds"), "{out}");
    }

    #[test]
    fn explain_json_emits_diagnostics() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\explain --analyze --json {DMV_SQL}"));
        // The optimizer's plan is clean, so the array is empty — but it
        // must still be valid JSON.
        assert_eq!(out, "[]", "{out}");
        let out = run(&mut s, &format!("\\explain --json {DMV_SQL}"));
        assert!(out.contains("error"), "{out}");
        let out = run(&mut s, &format!("\\explain --nope {DMV_SQL}"));
        assert!(out.contains("unknown flag"), "{out}");
    }

    #[test]
    fn lint_json_mode_is_machine_readable() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        // The toy DMV relations are so small that shipping queries over
        // the WAN costs more than loading them outright, so the
        // dataflow cost lint fires on the query-only plans — and the
        // JSON mode reports each finding as one object.
        let out = run(&mut s, &format!("\\lint --json {DMV_SQL}"));
        assert!(out.starts_with("[\n"), "{out}");
        assert!(out.ends_with("\n]"), "{out}");
        assert!(
            out.contains("{\"algo\": \"filter\", \"rule\": \"transfer-exceeds-load\", \"severity\": \"warning\", \"step\": 1, \"message\": "),
            "{out}"
        );
    }

    #[test]
    fn dataflow_command_reports_stages_and_bounds() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\dataflow {DMV_SQL}"));
        assert!(out.contains("certificate checked"), "{out}");
        assert!(out.contains("stage 1: steps"), "{out}");
        assert!(out.contains("|out| ∈ ["), "{out}");
        assert!(out.contains("response time ≥"), "{out}");
        assert!(!out.contains("(dead)"), "{out}");
    }

    #[test]
    fn diagnostic_json_escapes_and_tags() {
        let d = Diagnostic {
            rule: "dead-step",
            severity: fusion_core::analyze::Severity::Warning,
            step: 3,
            message: "say \"hi\"\\".into(),
        };
        assert_eq!(
            diagnostic_json(Some("sja"), &d),
            "{\"algo\": \"sja\", \"rule\": \"dead-step\", \"severity\": \"warning\", \
             \"step\": 3, \"message\": \"say \\\"hi\\\"\\\\\"}"
        );
    }

    #[test]
    fn lint_command_covers_all_algorithms() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\lint {DMV_SQL}"));
        for algo in ["filter", "sj", "sja", "greedy", "sja+"] {
            assert!(out.contains(&format!("{algo}:")), "{algo} missing: {out}");
        }
        assert!(out.contains("proved equivalent"), "{out}");
        assert!(out.contains("across 5 plans"), "{out}");
    }

    #[test]
    fn schema_and_csv_loading() {
        let dir = std::env::temp_dir().join("fusionq-test");
        std::fs::create_dir_all(&dir).unwrap();
        let f1 = dir.join("r1.csv");
        let f2 = dir.join("r2.csv");
        std::fs::write(&f1, "L,V,D\nJ55,dui,1993\nT21,sp,1994\n").unwrap();
        std::fs::write(&f2, "L,V,D\nT21,dui,1996\nJ55,sp,1996\n").unwrap();
        let mut s = Session::new();
        let out = run(&mut s, "\\schema L:str,V:str,D:int @L");
        assert!(out.contains("schema set"), "{out}");
        let out = run(
            &mut s,
            &format!("\\load east {} emulated:5 slow", f1.display()),
        );
        assert!(out.contains("2 rows"), "{out}");
        run(&mut s, &format!("\\load west {} full lan", f2.display()));
        let out = run(&mut s, "\\sources");
        assert!(out.contains("emulated:5"), "{out}");
        assert!(out.contains("semijoin"), "{out}");
        let out = run(&mut s, DMV_SQL);
        assert!(out.contains("{J55, T21}"), "{out}");
    }

    #[test]
    fn trace_command_lists_exchanges() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\trace {DMV_SQL}"));
        assert!(out.contains("exchanges"), "{out}");
        assert!(out.contains("R1"), "{out}");
        assert!(out.contains("answer: {J55, T21}"), "{out}");
    }

    #[test]
    fn gantt_and_adaptive_commands() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\gantt {DMV_SQL}"));
        assert!(out.contains("response time"), "{out}");
        assert!(out.contains("R1"), "{out}");
        assert!(out.contains('|'), "{out}");
        let out = run(&mut s, &format!("\\adaptive {DMV_SQL}"));
        assert!(out.contains("{J55, T21}"), "{out}");
        assert!(out.contains("observed"), "{out}");
        assert_eq!(out.matches("predicted |X|").count(), 2, "{out}");
    }

    #[test]
    fn reopt_command_reports_switches_and_replay() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        // Undistorted estimates: the answer comes back and nothing
        // needs to switch (the report still shows the feedback/replay line).
        let out = run(&mut s, &format!("\\reopt {DMV_SQL}"));
        assert!(out.contains("{J55, T21}"), "{out}");
        assert!(out.contains("0 certified switches"), "{out}");
        assert!(out.contains("re-certified bit-for-bit"), "{out}");
        // Heavily inflated estimates misprice the locked-in plan; the
        // interval violation fires a certified switch mid-flight.
        let out = run(&mut s, &format!("\\reopt x500 {DMV_SQL}"));
        assert!(out.contains("{J55, T21}"), "{out}");
        assert!(out.contains("distorted x500"), "{out}");
        assert!(out.contains("violation"), "{out}");
        let out = run(&mut s, "\\reopt xq SELECT u1.L FROM U u1");
        assert!(out.contains("bad distortion"), "{out}");
        // A factor that is not a finite positive number is refused before
        // anything runs: `inf` parses, and so does an overflowing literal.
        for head in ["x0", "x-1", "xinf", "x1e400", "xNaN"] {
            let out = run(&mut s, &format!("\\reopt {head} {DMV_SQL}"));
            assert!(out.contains(&format!("bad distortion `{head}`")), "{out}");
        }
        // A factor is echoed as typed, however many digits it stands for.
        for head in ["x1e308", "x1e-320", "x16.0"] {
            let out = run(&mut s, &format!("\\reopt {head} {DMV_SQL}"));
            assert!(
                out.contains(&format!("(estimates distorted {head})")),
                "{out}"
            );
        }
        // Under \faults the run retries and degrades like plain
        // execution does, and still replays from its switch records.
        run(&mut s, "\\faults seed=7 outage=3@0");
        let out = run(&mut s, &format!("\\reopt x500 {DMV_SQL}"));
        assert!(out.contains("completeness: subset"), "{out}");
        assert!(out.contains("missing sources: R3"), "{out}");
        assert!(out.contains("re-certified bit-for-bit"), "{out}");
    }

    #[test]
    fn fetch_returns_records() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\fetch {DMV_SQL}"));
        assert!(out.contains("fetch plan"), "{out}");
        assert!(out.contains("fetched"), "{out}");
        assert!(out.contains("'J55'"), "{out}");
    }

    #[test]
    fn fetch_planned_and_broadcast_agree_on_records() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let planned = run(&mut s, &format!("\\fetch {DMV_SQL}"));
        let broadcast = run(&mut s, &format!("\\fetch broadcast {DMV_SQL}"));
        assert!(broadcast.contains("broadcast fetched"), "{broadcast}");
        // The DMV sources hold *different* records per item, so the
        // broadcast union is wider; every planned record must appear in
        // it (the planner picks real rows, one covering record per
        // item), and covering costs strictly less than broadcasting.
        let rows = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.starts_with("  ('"))
                .map(str::to_string)
                .collect()
        };
        let (p, b) = (rows(&planned), rows(&broadcast));
        assert!(!p.is_empty(), "{planned}");
        assert!(
            p.iter().all(|r| b.contains(r)),
            "{planned}\n---\n{broadcast}"
        );
        assert!(
            planned.contains("broadcast baseline would cost"),
            "{planned}"
        );
    }

    #[test]
    fn fetch_attrs_narrows_the_request_and_rejects_nonsense() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, &format!("\\fetch attrs=V {DMV_SQL}"));
        assert!(out.contains("fetch plan for {V}"), "{out}");
        assert!(out.contains("fetched"), "{out}");
        let out = run(&mut s, &format!("\\fetch attrs=Bogus {DMV_SQL}"));
        assert!(out.contains("unknown attribute"), "{out}");
        let out = run(&mut s, &format!("\\fetch attrs=L {DMV_SQL}"));
        assert!(out.contains("merge attribute"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new();
        let out = run(&mut s, "SELECT nope");
        assert!(out.starts_with("error:"), "{out}");
        let out = run(&mut s, "\\nosuch");
        assert!(out.contains("unknown command"), "{out}");
        let out = run(&mut s, "\\plan warp SELECT u1.L FROM U u1");
        assert!(out.contains("error"), "{out}");
        run(&mut s, "\\scenario dmv");
        let out = run(&mut s, "SELECT u1.Z FROM U u1 WHERE u1.Z = 'x'");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn faults_command_roundtrip() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        assert_eq!(run(&mut s, "\\faults"), "faults off");
        // A permanent outage at R3 from the first attempt: the answer
        // degrades to a subset computed from the surviving sources.
        let out = run(&mut s, "\\faults seed=7 outage=3@0");
        assert!(out.contains("outage=R3@0"), "{out}");
        let out = run(&mut s, DMV_SQL);
        assert!(out.contains("completeness: subset"), "{out}");
        assert!(out.contains("missing sources: R3"), "{out}");
        // Determinism: the same seed yields the same report.
        assert_eq!(out, run(&mut s, DMV_SQL));
        // Transient faults with retries still reach the exact answer.
        run(&mut s, "\\faults seed=7 transient=0.3");
        let out = run(&mut s, DMV_SQL);
        assert!(out.contains("{J55, T21}"), "{out}");
        assert!(out.contains("completeness: exact"), "{out}");
        let out = run(&mut s, "\\faults off");
        assert_eq!(out, "faults off");
        let out = run(&mut s, DMV_SQL);
        assert!(!out.contains("completeness"), "{out}");
    }

    #[test]
    fn faults_command_rejects_nonsense() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        assert!(run(&mut s, "\\faults transient=1.5").starts_with("error:"));
        assert!(run(&mut s, "\\faults whatever").starts_with("error:"));
        assert!(run(&mut s, "\\faults outage=0@0").starts_with("error:"));
        // Outage at a source that does not exist fails at query time.
        run(&mut s, "\\faults outage=9@0");
        assert!(run(&mut s, DMV_SQL).starts_with("error:"));
    }

    #[test]
    fn cache_command_roundtrip() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        assert_eq!(run(&mut s, "\\cache"), "cache off");
        let out = run(&mut s, "\\cache on");
        assert!(out.contains("cache on"), "{out}");
        // Cold query: every sq is a miss, answer unchanged.
        let cold = run(&mut s, DMV_SQL);
        assert!(cold.contains("{J55, T21}"), "{cold}");
        assert!(
            cold.contains("cache: 0 exact, 0 residual, 6 miss"),
            "{cold}"
        );
        // Warm repeat: everything served from cache, total cost zero.
        let warm = run(&mut s, DMV_SQL);
        assert!(warm.contains("{J55, T21}"), "{warm}");
        assert!(
            warm.contains("cache: 6 exact, 0 residual, 0 miss"),
            "{warm}"
        );
        assert!(
            warm.contains("executed cost 0.000 over 0 round trips"),
            "{warm}"
        );
        // Status shows entries, epochs, and counters.
        let status = run(&mut s, "\\cache");
        assert!(status.contains("6 entries"), "{status}");
        assert!(status.contains("R1=0"), "{status}");
        assert!(status.contains("misses 6"), "{status}");
        assert!(status.contains("\nplan-proof memo: hits "), "{status}");
        assert!(status.contains("\ncontainment memo: hits "), "{status}");
        assert!(status.contains("\nplan memo: hits "), "{status}");
        // Parallel execution uses the cache too.
        let par = run(&mut s, &format!("\\exec --parallel=2 {DMV_SQL}"));
        assert!(par.contains("{J55, T21}"), "{par}");
        assert!(par.contains("cache: 6 exact, 0 residual, 0 miss"), "{par}");
        // Clear drops entries; the next run misses again.
        assert_eq!(run(&mut s, "\\cache clear"), "cache cleared");
        let out = run(&mut s, DMV_SQL);
        assert!(out.contains("cache: 0 exact, 0 residual, 6 miss"), "{out}");
        assert_eq!(run(&mut s, "\\cache off"), "cache off");
        assert!(!run(&mut s, DMV_SQL).contains("cache:"));
    }

    #[test]
    fn cache_command_rejects_nonsense() {
        let mut s = Session::new();
        assert!(run(&mut s, "\\cache clear").starts_with("error:"));
        assert!(run(&mut s, "\\cache maybe").starts_with("error:"));
        assert!(run(&mut s, "\\cache on budget=lots").starts_with("error:"));
        let out = run(&mut s, "\\cache on budget=4096");
        assert!(out.contains("4096"), "{out}");
    }

    #[test]
    fn cached_faulty_run_reports_completeness() {
        let mut s = Session::new();
        run(&mut s, "\\scenario dmv");
        run(&mut s, "\\cache on");
        run(&mut s, "\\faults seed=7 transient=0.3");
        let out = run(&mut s, DMV_SQL);
        assert!(out.contains("{J55, T21}"), "{out}");
        assert!(out.contains("completeness: exact"), "{out}");
        assert!(out.contains("cache:"), "{out}");
    }

    #[test]
    fn quit_and_help() {
        let mut s = Session::new();
        let help = run(&mut s, "\\help");
        // Every command in the shared dispatch table is documented, and
        // every one of them actually dispatches (no "unknown command").
        for cmd in COMMANDS {
            assert!(
                help.contains(&format!("\\{cmd}")),
                "help is missing \\{cmd}"
            );
            let mut probe = Session::new();
            let (out, _) = probe.handle(&format!("\\{cmd}"));
            assert!(
                !out.contains("unknown command"),
                "\\{cmd} is in COMMANDS but does not dispatch: {out}"
            );
        }
        // And the table is exact: names outside it are rejected.
        let mut probe = Session::new();
        let (out, _) = probe.handle("\\nosuchcmd");
        assert!(out.contains("unknown command"), "{out}");
        let (out, ctl) = s.handle("\\quit");
        assert_eq!(ctl, Control::Quit);
        assert_eq!(out, "bye");
    }

    #[test]
    fn sessions_configure_and_preview() {
        let mut s = Session::new();
        let out = run(&mut s, "\\sessions tenants=2 queries=4 seed=7");
        assert!(out.contains("tenants=2"), "{out}");
        assert!(out.contains("tenant 0:"), "{out}");
        assert!(out.contains("tenant 1:"), "{out}");
        assert!(!out.contains("tenant 2:"), "{out}");
        assert!(run(&mut s, "\\sessions tenants=0").starts_with("error:"));
        assert!(run(&mut s, "\\sessions bogus=1").starts_with("error:"));
        assert!(run(&mut s, "\\sessions nonsense").starts_with("error:"));
    }

    #[test]
    fn serve_runs_the_session_workload_with_replay_parity() {
        let mut s = Session::new();
        run(&mut s, "\\sessions tenants=2 queries=4");
        let out = run(&mut s, "\\serve workers=2");
        assert!(
            out.contains("served 8 queries from 2 tenants over 2 workers"),
            "{out}"
        );
        assert!(out.contains("byte-identical to the serial replay"), "{out}");
        assert!(out.contains("linearization certified"), "{out}");
        assert!(out.contains("sharing on:"), "{out}");
        assert!(out.contains("selections served warm"), "{out}");
        assert!(out.contains("\nplan-proof memo: hits "), "{out}");
        assert!(out.contains("\ncontainment memo: hits "), "{out}");
        assert!(out.contains("\nplan memo: hits "), "{out}");
        let off = run(&mut s, "\\serve workers=2 share=off");
        assert!(
            off.contains("sharing off: 0 selections rode co-admitted fetches"),
            "{off}"
        );
        assert!(run(&mut s, "\\serve workers=0").starts_with("error:"));
        assert!(run(&mut s, "\\serve speed=11").starts_with("error:"));
        assert!(run(&mut s, "\\serve share=maybe").starts_with("error:"));
    }

    #[test]
    fn share_prints_the_schedule_the_server_runs() {
        let mut s = Session::new();
        run(&mut s, "\\sessions tenants=3 queries=4 seed=11");
        let out = run(&mut s, "\\share");
        assert!(
            out.starts_with(
                "share schedule over 3 co-admitted plans: 15 exchanges for 30 selections"
            ),
            "{out}"
        );
        assert!(
            out.contains("\n  q2#1 sq(c1, R1) rides q1#1 + residual\n"),
            "{out}"
        );
        assert!(out.contains("\n  q3#7 sq(c2, R1) rides q2#7\n"), "{out}");
        // Tenant 1's narrower c2 fetches were admitted before tenant 2's
        // broader ones, which ticket order forbids them to ride.
        assert!(
            out.contains(
                "lint unshared-subsumed-step: q1#7 exchanges sq(c2, R1) although \
                 q2#7's sq(c2, R1) provably contains it"
            ),
            "{out}"
        );
        assert!(!out.contains("lint unsound-merge-residual"), "{out}");
        assert!(!out.contains("lint duplicate-inflight-step"), "{out}");
        assert!(run(&mut s, "\\share bogus").starts_with("error:"));
    }

    #[test]
    fn empty_lines_are_ignored() {
        let mut s = Session::new();
        assert_eq!(run(&mut s, "   "), "");
    }
}
