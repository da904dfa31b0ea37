//! Tracing from outside the library: an in-memory span recorder and a
//! `Wrapper` decorator that records one span per source call.
//!
//! Nothing here is compiled into `fusion`; the harness wraps its own calls
//! into each layer, and the only spans *inside* a library call are the
//! source calls a [`TimedWrapper`] sees. End-to-end numbers are measured
//! with none of this installed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fusion::source::{
    Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper, WrapperResponse,
};
use fusion::stats::TableStats;
use fusion::types::error::Result;
use fusion::types::{BloomFilter, Condition, ItemSet, Schema, Tuple};

/// Times the traced work is repeated; each layer reports its fastest.
pub const TRACED_REPEATS: usize = 3;

/// "No span" / "no query" in [`Span::parent`] and [`Span::query`].
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one, or [`NONE`].
    pub parent: u32,
    /// The request the span belongs to (stream position or admission
    /// ticket), or [`NONE`] when it cannot be known from outside.
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread as `(id, query)`, innermost last.
    static OPEN: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans in memory; [`Recorder::write_tsv`] dumps them when the
/// benchmark ends.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    /// Parent for spans opened on a thread with no open span of its own:
    /// the harness span around a library call that runs its work on
    /// worker threads (`serve`).
    ambient: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it records it.
pub struct Open {
    id: u32,
    query: u32,
    name: &'static str,
    start: Instant,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            ambient: AtomicU32::new(NONE),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Opens a span under this thread's innermost open span; with
    /// `query` [`NONE`] it belongs to that span's request. The clock is
    /// read last, so the recorder's own work stays outside the interval.
    pub fn enter(&self, name: &'static str, query: u32) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let query = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let query = match open.last() {
                Some(&(_, inherited)) if query == NONE => inherited,
                _ => query,
            };
            open.push((id, query));
            query
        });
        Open {
            id,
            query,
            name,
            start: Instant::now(),
        }
    }

    /// Closes a span. The clock is read first.
    pub fn exit(&self, open: Open) {
        let end = Instant::now();
        let parent = OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            let top = stack.pop();
            debug_assert_eq!(
                top.map(|t| t.0),
                Some(open.id),
                "spans close innermost first"
            );
            stack.last().map(|&(id, _)| id)
        });
        let span = Span {
            id: open.id,
            parent: parent.unwrap_or_else(|| self.ambient.load(Ordering::Relaxed)),
            query: open.query,
            name: open.name,
            start_ns: (open.start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, query: u32, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, query);
        let out = f();
        self.exit(open);
        out
    }

    /// Like [`Recorder::span`], and spans opened meanwhile on *other*
    /// threads (which have no open span of their own) become its children.
    pub fn span_ambient<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, NONE);
        self.ambient.store(open.id, Ordering::Relaxed);
        let out = f();
        self.ambient.store(NONE, Ordering::Relaxed);
        self.exit(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tquery\tname\tstart_ns\tend_ns")?;
        let cell = |x: u32| {
            if x == NONE {
                "-".to_string()
            } else {
                x.to_string()
            }
        };
        let mut spans = self.spans();
        spans.sort_by_key(|s| s.id);
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                cell(s.parent),
                cell(s.query),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// part of its interval that its child spans cover (overlapping children
/// are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Name by name, the smallest totals any of several repeats of the same
/// traced work recorded — best-of-repeats (see `stats`), layer by layer.
pub fn best_totals(
    repeats: &[BTreeMap<&'static str, LayerTotal>],
) -> BTreeMap<&'static str, LayerTotal> {
    let mut best: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for totals in repeats {
        for (name, t) in totals {
            best.entry(name)
                .and_modify(|b| {
                    b.total_ns = b.total_ns.min(t.total_ns);
                    b.self_ns = b.self_ns.min(t.self_ns);
                })
                .or_insert(*t);
        }
    }
    best
}

/// Self time of all source calls (`source.*` spans) in `totals`.
pub fn source_self_ns(totals: &BTreeMap<&'static str, LayerTotal>) -> u64 {
    totals
        .iter()
        .filter(|(name, _)| name.starts_with("source."))
        .map(|(_, t)| t.self_ns)
        .sum()
}

/// Work counted at the source boundary, summed over all wrappers sharing
/// the counter.
#[derive(Debug, Default)]
pub struct SourceCounters {
    pub calls: AtomicU64,
    pub tuples_examined: AtomicU64,
    pub rows_returned: AtomicU64,
}

/// Everything one traced repeat records into: a recorder and source
/// counters of its own, and a `SourceSet` of timed wrappers feeding both.
pub struct Traced {
    pub rec: Arc<Recorder>,
    pub counters: Arc<SourceCounters>,
    pub sources: SourceSet,
}

impl Traced {
    pub fn over(wrappers: Vec<InMemoryWrapper>) -> Traced {
        let rec = Arc::new(Recorder::new());
        let counters = Arc::new(SourceCounters::default());
        let sources = SourceSet::new(
            wrappers
                .into_iter()
                .map(|w| {
                    Box::new(TimedWrapper::new(
                        w,
                        Arc::clone(&rec),
                        Arc::clone(&counters),
                    )) as Box<dyn Wrapper>
                })
                .collect(),
        );
        Traced {
            rec,
            counters,
            sources,
        }
    }
}

/// A [`Wrapper`] that forwards every call unchanged and records a
/// `source.<op>` span and the work counts around it. Installed in the
/// `SourceSet` only in the traced phase.
pub struct TimedWrapper<W: Wrapper> {
    inner: W,
    recorder: Arc<Recorder>,
    counters: Arc<SourceCounters>,
}

impl<W: Wrapper> TimedWrapper<W> {
    pub fn new(inner: W, recorder: Arc<Recorder>, counters: Arc<SourceCounters>) -> Self {
        TimedWrapper {
            inner,
            recorder,
            counters,
        }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        len: impl Fn(&T) -> usize,
        call: impl FnOnce(&W) -> Result<WrapperResponse<T>>,
    ) -> Result<WrapperResponse<T>> {
        let out = self.recorder.span(name, NONE, || call(&self.inner));
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(resp) = &out {
            self.counters
                .tuples_examined
                .fetch_add(resp.tuples_examined as u64, Ordering::Relaxed);
            self.counters
                .rows_returned
                .fetch_add(len(&resp.payload) as u64, Ordering::Relaxed);
        }
        out
    }
}

impl<W: Wrapper> Wrapper for TimedWrapper<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }

    fn processing(&self) -> &ProcessingProfile {
        self.inner.processing()
    }

    fn stats(&self) -> &TableStats {
        self.inner.stats()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn select(&self, cond: &Condition) -> Result<WrapperResponse<ItemSet>> {
        self.timed("source.select", ItemSet::len, |w| w.select(cond))
    }

    fn semijoin(&self, cond: &Condition, bindings: &ItemSet) -> Result<WrapperResponse<ItemSet>> {
        self.timed("source.semijoin", ItemSet::len, |w| {
            w.semijoin(cond, bindings)
        })
    }

    fn bloom_semijoin(
        &self,
        cond: &Condition,
        filter: &BloomFilter,
    ) -> Result<WrapperResponse<ItemSet>> {
        self.timed("source.bloom_semijoin", ItemSet::len, |w| {
            w.bloom_semijoin(cond, filter)
        })
    }

    fn probe(&self, cond: &Condition, batch: &ItemSet) -> Result<WrapperResponse<ItemSet>> {
        self.timed("source.probe", ItemSet::len, |w| w.probe(cond, batch))
    }

    fn select_records(&self, cond: &Condition) -> Result<WrapperResponse<Vec<Tuple>>> {
        self.timed("source.select_records", Vec::len, |w| {
            w.select_records(cond)
        })
    }

    fn semijoin_records(
        &self,
        cond: &Condition,
        bindings: &ItemSet,
    ) -> Result<WrapperResponse<Vec<Tuple>>> {
        self.timed("source.semijoin_records", Vec::len, |w| {
            w.semijoin_records(cond, bindings)
        })
    }

    fn load(&self) -> Result<WrapperResponse<Vec<Tuple>>> {
        self.timed("source.load", Vec::len, W::load)
    }

    fn fetch(&self, items: &ItemSet) -> Result<WrapperResponse<Vec<Tuple>>> {
        self.timed("source.fetch", Vec::len, |w| w.fetch(items))
    }

    fn fetch_projected(
        &self,
        items: &ItemSet,
        attrs: &[usize],
    ) -> Result<WrapperResponse<Vec<Tuple>>> {
        self.timed("source.fetch_projected", Vec::len, |w| {
            w.fetch_projected(items, attrs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion::types::{Attribute, CmpOp, Predicate, Relation, Value, ValueType};

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: NONE,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // query [0,100]
        //   parse [5,15]
        //   exec  [20,90]
        //     src [30,50], src [40,70] (overlap: cover [30,70] once),
        //     src [85,95] (clipped to the parent's end)
        // orphan [200,210] with a parent that was never recorded.
        let spans = [
            span(0, NONE, "query", 0, 100),
            span(2, 0, "exec", 20, 90),
            span(1, 0, "parse", 5, 15),
            span(3, 2, "src", 30, 50),
            span(4, 2, "src", 40, 70),
            span(5, 2, "src", 85, 95),
            span(6, 77, "orphan", 200, 210),
        ];
        assert_eq!(self_times(&spans), vec![20, 25, 10, 20, 30, 10, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["src"],
            LayerTotal {
                count: 3,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(totals["exec"].self_ns, 25);

        let mut slower = totals.clone();
        slower.get_mut("src").unwrap().self_ns = 70;
        slower.get_mut("exec").unwrap().self_ns = 20;
        let best = best_totals(&[totals.clone(), slower]);
        assert_eq!(best["src"].self_ns, 60);
        assert_eq!(best["exec"].self_ns, 20);
        assert_eq!(best["query"], totals["query"]);
    }

    fn by_name_in(spans: &[Span], name: &str) -> Span {
        *spans.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn recorder_links_parents_and_ambient_children() {
        let rec = Arc::new(Recorder::new());
        rec.span("outer", 7, || {
            rec.span("inner", 7, || {});
        });
        rec.span_ambient("serve", || {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || rec.span("worker", NONE, || {}))
                .join()
                .unwrap();
        });
        let spans = rec.spans();
        let by_name = |n: &str| by_name_in(&spans, n);
        assert_eq!(by_name("outer").parent, NONE);
        assert_eq!(by_name("inner").parent, by_name("outer").id);
        assert_eq!(by_name("inner").query, 7);
        rec.span("asked", 9, || rec.span("inherits", NONE, || {}));
        assert_eq!(by_name_in(&rec.spans(), "inherits").query, 9);
        assert_eq!(by_name("worker").parent, by_name("serve").id);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn timed_wrapper_passes_through() {
        let schema = Schema::new(
            vec![
                Attribute::new("M", ValueType::Str),
                Attribute::new("A1", ValueType::Int),
            ],
            "M",
        )
        .unwrap();
        let rows = (0..50)
            .map(|i| Tuple::new(vec![Value::str(format!("E{i:03}")), Value::Int(i)]))
            .collect();
        let plain = InMemoryWrapper::fully_capable("S1", Relation::from_rows(schema, rows));
        let rec = Arc::new(Recorder::new());
        let counters = Arc::new(SourceCounters::default());
        let timed = TimedWrapper::new(plain.clone(), Arc::clone(&rec), Arc::clone(&counters));

        let cond: Condition = Predicate::cmp("A1", CmpOp::Lt, 20i64).into();
        let bindings = ItemSet::from_items(["E003", "E030", "nope"]);
        assert_eq!(timed.select(&cond).unwrap(), plain.select(&cond).unwrap());
        assert_eq!(
            timed.semijoin(&cond, &bindings).unwrap(),
            plain.semijoin(&cond, &bindings).unwrap()
        );
        assert_eq!(
            timed.select_records(&cond).unwrap(),
            plain.select_records(&cond).unwrap()
        );
        assert_eq!(timed.load().unwrap(), plain.load().unwrap());
        assert_eq!(timed.name(), plain.name());
        assert_eq!(timed.stats().rows, plain.stats().rows);

        let examined = plain.select(&cond).unwrap().tuples_examined
            + plain.semijoin(&cond, &bindings).unwrap().tuples_examined
            + plain.select_records(&cond).unwrap().tuples_examined
            + plain.load().unwrap().tuples_examined;
        assert_eq!(counters.calls.load(Ordering::Relaxed), 4);
        assert_eq!(
            counters.tuples_examined.load(Ordering::Relaxed),
            examined as u64
        );
        assert_eq!(
            counters.rows_returned.load(Ordering::Relaxed),
            20 + 1 + 20 + 50
        );
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "source.select",
                "source.semijoin",
                "source.select_records",
                "source.load"
            ]
        );
    }
}
