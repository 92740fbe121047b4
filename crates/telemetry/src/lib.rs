//! Structured tracing, metrics, and run reports for the memristive
//! mixed-mode synthesis pipeline.
//!
//! # Design
//!
//! The crate follows the same discipline as `mm-sat`'s proof-log hooks:
//! a *disabled* [`Telemetry`] handle costs a single branch per call site
//! (`Option::is_some` on one pointer), so instrumentation can stay compiled
//! into hot paths permanently. An *enabled* handle stamps each event with a
//! global sequence number and a microsecond timestamp and forwards it to a
//! pluggable [`TelemetrySink`].
//!
//! Three primitives cover the pipeline:
//!
//! * **Spans** ([`Telemetry::span`]) — timed phases. Nesting is per-thread by
//!   open/close order; the [`RunReport`] aggregator rebuilds the tree.
//! * **Counters** ([`Telemetry::counter`]) — monotonic totals (conflicts,
//!   propagations, device cycles). Emitted as *deltas* so sampled sites such
//!   as the CDCL cancel-poll can batch increments.
//! * **Points** ([`Telemetry::point`]) — instantaneous lifecycle events with
//!   attributes (rung outcomes, CNF sizes, repair rounds, device cycles).
//!
//! Everything serializes through the vendored `serde` shim to JSON Lines and
//! round-trips exactly, so a `--trace-out` file can be re-aggregated offline
//! into the same [`RunReport`] that was computed in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
mod event;
pub mod metrics;
mod report;
mod sink;

pub use atomic::{atomic_write, AtomicFile};
pub use event::{attr, kv, AttrValue, Event, EventKind, TRACE_SCHEMA_VERSION};
pub use metrics::{latency_buckets, Counter, Gauge, Histogram, MetricsRegistry};
pub use report::{CounterTotal, PhaseNode, RunReport, RungSummary, REPORT_SCHEMA_VERSION};
pub use sink::{JsonlSink, MemorySink, MultiSink, NoopSink, TelemetrySink};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Inner {
    sink: Arc<dyn TelemetrySink>,
    epoch: Instant,
    next_span: AtomicU64,
    next_seq: AtomicU64,
}

impl Inner {
    fn emit(&self, kind: EventKind) {
        let event = Event {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            t_us: self.epoch.elapsed().as_micros() as u64,
            thread: thread_label(),
            kind,
        };
        self.sink.record(&event);
    }
}

fn thread_label() -> String {
    std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("{:?}", std::thread::current().id()))
}

/// A cheaply clonable telemetry handle.
///
/// The disabled handle ([`Telemetry::disabled`], also `Default`) is a `None`
/// pointer: every emit method starts with one branch and returns. Handles
/// clone by bumping an `Arc`, so each pipeline layer can own one.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The no-cost disabled handle.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle forwarding to a shared sink.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                epoch: Instant::now(),
                next_span: AtomicU64::new(0),
                next_seq: AtomicU64::new(0),
            })),
        }
    }

    /// Convenience: an enabled handle owning a freshly boxed sink.
    pub fn with_sink(sink: impl TelemetrySink + 'static) -> Self {
        Self::new(Arc::new(sink))
    }

    /// An enabled handle that records to this handle's sink *and* to
    /// `extra`. A disabled handle becomes one that records to `extra`
    /// alone. Used by the service to attach per-job progress sinks and
    /// the live-metrics bridge without disturbing the base trace wiring.
    ///
    /// The returned handle has its own epoch and sequence numbering; the
    /// base handle keeps emitting independently.
    pub fn with_extra_sink(&self, extra: Arc<dyn TelemetrySink>) -> Self {
        match &self.inner {
            None => Self::new(extra),
            Some(inner) => Self::new(Arc::new(MultiSink::new(vec![inner.sink.clone(), extra]))),
        }
    }

    /// Whether events are being recorded. This is the single hot-path branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it closes when the returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, Vec::new())
    }

    /// Opens a span with attributes; it closes when the guard drops.
    pub fn span_with(&self, name: &str, attrs: Vec<(String, AttrValue)>) -> Span {
        match &self.inner {
            None => Span {
                telemetry: Telemetry::disabled(),
                id: 0,
            },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed) + 1;
                inner.emit(EventKind::SpanOpen {
                    id,
                    name: name.to_string(),
                    attrs,
                });
                Span {
                    telemetry: self.clone(),
                    id,
                }
            }
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            if delta > 0 {
                inner.emit(EventKind::Counter {
                    name: name.to_string(),
                    delta,
                });
            }
        }
    }

    /// Emits an instantaneous event with attributes.
    pub fn point(&self, name: &str, attrs: Vec<(String, AttrValue)>) {
        if let Some(inner) = &self.inner {
            inner.emit(EventKind::Point {
                name: name.to_string(),
                attrs,
            });
        }
    }

    /// Emits a `meta` point carrying the trace schema version; `mmsynth`
    /// stamps every trace with this as its first event.
    pub fn meta_event(&self, command: &str) {
        self.point(
            "meta",
            vec![
                kv("trace_schema_version", TRACE_SCHEMA_VERSION),
                kv("command", command),
            ],
        );
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// RAII guard for an open span; emits the close event on drop.
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    id: u64,
}

impl Span {
    /// The span's process-unique id (0 when telemetry is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.telemetry.inner {
            inner.emit(EventKind::SpanClose { id: self.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_emits_nothing() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        let span = telemetry.span("root");
        assert_eq!(span.id(), 0);
        telemetry.counter("c", 5);
        telemetry.point("p", vec![kv("k", 1u64)]);
        drop(span);
        telemetry.flush();
    }

    #[test]
    fn span_nesting_builds_a_tree() {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        {
            let _root = telemetry.span("run");
            {
                let _encode = telemetry.span("encode");
            }
            {
                let _solve = telemetry.span("solve");
                telemetry.counter("solver.conflicts", 7);
            }
            {
                let _solve = telemetry.span("solve");
                telemetry.counter("solver.conflicts", 3);
            }
        }
        let report = RunReport::from_events(&sink.snapshot());
        assert_eq!(report.schema_version, REPORT_SCHEMA_VERSION);
        let run = report.phase(&["run"]).expect("run phase");
        assert_eq!(run.count, 1);
        assert_eq!(run.children.len(), 2);
        assert_eq!(report.phase(&["run", "encode"]).expect("encode").count, 1);
        let solve = report.phase(&["run", "solve"]).expect("solve");
        assert_eq!(solve.count, 2);
        assert_eq!(report.counter("solver.conflicts"), 10);
    }

    #[test]
    fn jsonl_roundtrip_rebuilds_identical_report() {
        let memory = Arc::new(MemorySink::new());
        let buffer: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let jsonl = Arc::new(JsonlSink::with_writer(Box::new(SharedBuf(buffer.clone()))));
        let telemetry = Telemetry::new(Arc::new(MultiSink::new(vec![
            memory.clone() as Arc<dyn TelemetrySink>,
            jsonl.clone() as Arc<dyn TelemetrySink>,
        ])));
        {
            let _root = telemetry.span_with("run", vec![kv("command", "test")]);
            telemetry.point("rung", vec![kv("n_rops", 2u64), kv("outcome", "sat")]);
            telemetry.counter("device.cycles", 12);
        }
        telemetry.flush();

        let text = String::from_utf8(buffer.lock().expect("buffer").clone()).expect("utf8");
        let from_file = RunReport::from_jsonl(&text).expect("parse trace");
        let from_memory = RunReport::from_events(&memory.snapshot());
        assert_eq!(from_file, from_memory);
        assert_eq!(from_file.rungs.len(), 1);
        assert_eq!(from_file.rungs[0].outcome, "sat");
        assert_eq!(from_file.counter("device.cycles"), 12);
    }

    #[test]
    fn unclosed_spans_are_closed_at_trace_end() {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        let root = telemetry.span("run");
        telemetry.counter("c", 1);
        std::mem::forget(root); // never closed
        let report = RunReport::from_events(&sink.snapshot());
        assert_eq!(report.phase(&["run"]).expect("run").count, 1);
    }

    #[test]
    fn multithreaded_spans_stay_per_thread() {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let telemetry = telemetry.clone();
                scope.spawn(move || {
                    let _synth = telemetry.span("synth");
                    let _solve = telemetry.span("solve");
                    telemetry.counter("solver.conflicts", 1);
                });
            }
        });
        let report = RunReport::from_events(&sink.snapshot());
        let synth = report.phase(&["synth"]).expect("synth phase");
        assert_eq!(synth.count, 4);
        assert_eq!(report.phase(&["synth", "solve"]).expect("solve").count, 4);
        assert_eq!(report.counter("solver.conflicts"), 4);
    }

    use std::sync::Mutex;

    /// Test writer sharing its bytes with the asserting thread.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buffer").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
