//! Timing decorators and in-memory spans for the traced run.
//!
//! The traced run measures each layer from outside the program. It builds
//! the evaluation context itself, as `Aved::design_with_health` does, and
//! wraps the availability engine twice: a [`TimedEngine`] outside the
//! [`CachingEngine`](aved::search::CachingEngine) sees every lookup, hit or
//! miss, and one inside it sees only the misses that reach the real engine.
//! Their difference is the cache's own time. The inner decorator also reads
//! the evaluation session's counters before and after each solve, which is
//! how the `markov` layer's work is seen. Spans stay in memory and are
//! written as Chrome trace-event JSON when the run ends.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aved::avail::{AvailError, EvalHealth, EvalSession, SessionStats, TierAvailability, TierModel};
use aved::AvailabilityEngine;

/// Calls, busy time and solver work seen by one decorator. Search workers
/// add to it concurrently; each counter is a statistic that publishes no
/// other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct LayerCounters {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    solves: AtomicU64,
    iterations: AtomicU64,
    warm_hits: AtomicU64,
    rebuilds_avoided: AtomicU64,
}

/// A copy of [`LayerCounters`] at one moment; the difference of two is one
/// query's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Calls into the wrapped engine.
    pub calls: u64,
    /// Wall time inside those calls, summed over threads.
    pub busy_ns: u64,
    /// Steady-state solves run through the callers' sessions.
    pub solves: u64,
    /// Iterative-solver sweeps across those solves.
    pub iterations: u64,
    /// Solves offered a warm-start vector.
    pub warm_hits: u64,
    /// Chain builds replaced by an in-place rate repatch.
    pub rebuilds_avoided: u64,
}

impl LayerCounters {
    /// The totals so far.
    #[must_use]
    pub fn totals(&self) -> LayerTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        LayerTotals {
            calls: get(&self.calls),
            busy_ns: get(&self.busy_ns),
            solves: get(&self.solves),
            iterations: get(&self.iterations),
            warm_hits: get(&self.warm_hits),
            rebuilds_avoided: get(&self.rebuilds_avoided),
        }
    }

    fn add_session_work(&self, before: &SessionStats, after: &SessionStats) {
        let add = |c: &AtomicU64, a: u64, b: u64| c.fetch_add(b - a, Ordering::Relaxed);
        add(&self.solves, before.solves, after.solves);
        add(&self.iterations, before.iterations, after.iterations);
        add(&self.warm_hits, before.warm_hits, after.warm_hits);
        add(
            &self.rebuilds_avoided,
            before.rebuilds_avoided,
            after.rebuilds_avoided,
        );
    }
}

impl std::ops::Sub for LayerTotals {
    type Output = LayerTotals;

    fn sub(self, earlier: LayerTotals) -> LayerTotals {
        LayerTotals {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
            solves: self.solves - earlier.solves,
            iterations: self.iterations - earlier.iterations,
            warm_hits: self.warm_hits - earlier.warm_hits,
            rebuilds_avoided: self.rebuilds_avoided - earlier.rebuilds_avoided,
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    query: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    thread: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The span open on this thread. Search workers start at 0, which
    /// stands for the query's root span.
    static OPEN: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The in-memory span store of one traced run.
///
/// Every query records its root span; a detailed query also records one
/// span per decorated engine call, which bounds the trace's memory when
/// only the first few queries are detailed.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    // The current query and its root span, set before each query starts.
    // The search spawns its workers after these stores, and spawning
    // orders them before everything the workers do, so `Relaxed` suffices.
    query: AtomicU64,
    root: AtomicU64,
    detailed: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            query: AtomicU64::new(0),
            root: AtomicU64::new(0),
            detailed: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` as query `query`'s root span. With `detailed`, the
    /// decorators record a child span for every engine call.
    pub fn query<T>(&self, query: u64, detailed: bool, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.query.store(query, Ordering::Relaxed);
        self.root.store(id, Ordering::Relaxed);
        self.detailed.store(detailed, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.detailed.store(false, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: 0,
            query,
            name: "query",
            start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
        });
        out
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Writes every span to `path` as Chrome trace-event JSON, with
    /// `metadata` under `otherData`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_chrome(&self, path: &Path, metadata: &[(&str, String)]) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{")?;
        for (i, (key, value)) in metadata.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\"{key}\":\"{}\"", escape(value))?;
        }
        write!(out, "}},\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"query\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.query,
                s.id,
                s.parent,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", u32::from(c)).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// An [`AvailabilityEngine`] decorator that times every call into the
/// engine it wraps, and adds the solver work the caller's session saw.
pub struct TimedEngine<'a> {
    name: &'static str,
    inner: &'a dyn AvailabilityEngine,
    counters: &'a LayerCounters,
    tracer: &'a Tracer,
}

impl<'a> TimedEngine<'a> {
    /// Wraps `inner`; calls are counted in `counters` and, for detailed
    /// queries, recorded in `tracer` as spans named `name`.
    #[must_use]
    pub fn new(
        name: &'static str,
        inner: &'a dyn AvailabilityEngine,
        counters: &'a LayerCounters,
        tracer: &'a Tracer,
    ) -> TimedEngine<'a> {
        TimedEngine {
            name,
            inner,
            counters,
            tracer,
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let detailed = self.tracer.detailed.load(Ordering::Relaxed);
        let parent = OPEN.with(Cell::get);
        let id = if detailed {
            let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
            OPEN.with(|open| open.set(id));
            id
        } else {
            0
        };
        let start_ns = self.tracer.now_ns();
        let out = f();
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| open.set(parent));
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .busy_ns
            .fetch_add(end_ns - start_ns, Ordering::Relaxed);
        if detailed {
            self.tracer.push(Span {
                id,
                parent: if parent == 0 {
                    self.tracer.root.load(Ordering::Relaxed)
                } else {
                    parent
                },
                query: self.tracer.query.load(Ordering::Relaxed),
                name: self.name,
                start_ns,
                end_ns,
                thread: THREAD.with(|t| *t),
            });
        }
        out
    }
}

impl AvailabilityEngine for TimedEngine<'_> {
    fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError> {
        self.timed(|| self.inner.evaluate(model))
    }

    fn evaluate_with_health(
        &self,
        model: &TierModel,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.timed(|| self.inner.evaluate_with_health(model))
    }

    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        let before = *session.stats();
        let out = self.timed(|| self.inner.evaluate_with_session(model, session));
        self.counters.add_session_work(&before, session.stats());
        out
    }
}
