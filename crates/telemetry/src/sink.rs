//! Pluggable event sinks.
//!
//! A [`TelemetrySink`] receives every [`Event`] an enabled [`crate::Telemetry`]
//! handle emits. Sinks must be `Send + Sync`: portfolio workers emit from many
//! threads concurrently. The implementations here cover the shipped use cases:
//!
//! * [`NoopSink`] — enabled handle, events dropped; exists so the overhead
//!   bench can measure instrumentation cost separately from I/O cost.
//! * [`MemorySink`] — collects events in memory for in-process aggregation
//!   ([`crate::RunReport::from_events`]) and tests.
//! * [`JsonlSink`] — streams one JSON object per line to a writer, buffered
//!   through a small fixed pool of sharded string buffers so concurrent
//!   writers rarely contend on the same lock.
//! * [`MultiSink`] — fans out to several sinks (e.g. JSONL file + progress).

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// Receives telemetry events. Implementations must tolerate concurrent
/// `record` calls from multiple threads.
pub trait TelemetrySink: Send + Sync {
    /// Records one event. Called on the emitting thread; must be cheap.
    fn record(&self, event: &Event);

    /// Flushes any buffered state to the underlying medium. Default: no-op.
    fn flush(&self) {}
}

/// Drops every event. Used to measure enabled-path overhead without I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Collects events in memory, in arrival order.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy of all events recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Removes and returns all events recorded so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// Number of buffer shards in a [`JsonlSink`]. Threads hash to a shard, so
/// with the portfolio's typical ≤ 8 workers collisions are rare.
const JSONL_SHARDS: usize = 16;

/// A shard buffer larger than this is drained to the writer inline.
const JSONL_FLUSH_BYTES: usize = 64 * 1024;

/// Streams events as JSON Lines.
///
/// `record` serializes on the emitting thread, appends the line to one of
/// `JSONL_SHARDS` string buffers chosen by thread-id hash, and only takes
/// the writer lock when a shard fills. Lines are written whole, so the output
/// is always valid JSONL; cross-thread line order is unspecified (consumers
/// order by [`Event::seq`]).
pub struct JsonlSink {
    shards: [Mutex<String>; JSONL_SHARDS],
    out: Mutex<Box<dyn Write + Send>>,
    hasher: RandomState,
}

impl JsonlSink {
    /// Creates a sink writing to `path` (buffered, crash-safe): bytes
    /// stream to a hidden temp sibling that is promoted onto `path` on the
    /// first [`flush`](TelemetrySink::flush) (and on drop), so a killed
    /// process never leaves a torn trace at the consumer-visible path.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = crate::atomic::AtomicFile::create(path)?;
        Ok(Self::with_writer(Box::new(file)))
    }

    /// Creates a sink over an arbitrary writer (used by tests and benches).
    pub fn with_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(String::new())),
            out: Mutex::new(out),
            hasher: RandomState::new(),
        }
    }

    fn shard_index(&self) -> usize {
        (self.hasher.hash_one(std::thread::current().id()) as usize) % JSONL_SHARDS
    }

    fn drain_to_out(&self, buf: String) {
        if buf.is_empty() {
            return;
        }
        let mut out = self.out.lock().expect("jsonl writer poisoned");
        let _ = out.write_all(buf.as_bytes());
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &Event) {
        let Ok(mut line) = serde_json::to_string(event) else {
            return;
        };
        line.push('\n');
        let full = {
            let mut shard = self.shards[self.shard_index()]
                .lock()
                .expect("jsonl shard poisoned");
            shard.push_str(&line);
            if shard.len() >= JSONL_FLUSH_BYTES {
                Some(std::mem::take(&mut *shard))
            } else {
                None
            }
        };
        if let Some(buf) = full {
            self.drain_to_out(buf);
        }
    }

    fn flush(&self) {
        for shard in &self.shards {
            let buf = std::mem::take(&mut *shard.lock().expect("jsonl shard poisoned"));
            self.drain_to_out(buf);
        }
        let _ = self.out.lock().expect("jsonl writer poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Fans every event out to a list of sinks, in order.
pub struct MultiSink {
    sinks: Vec<Arc<dyn TelemetrySink>>,
}

impl MultiSink {
    /// Creates a fan-out sink over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TelemetrySink>>) -> Self {
        Self { sinks }
    }
}

impl TelemetrySink for MultiSink {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}
