//! The wire-level event model.
//!
//! Every observable occurrence in a run — a phase starting, a counter
//! incrementing, a rung finishing — is an [`Event`]. Events are plain,
//! non-generic data so the vendored `serde` derive can handle them, and the
//! JSONL rendering round-trips exactly: a trace file can be parsed back into
//! the same `Vec<Event>` that produced it.

use serde::{Deserialize, Serialize};

/// Schema version stamped into trace files via [`crate::Telemetry::meta_event`].
///
/// Bump when the shape of [`Event`] or [`EventKind`] changes incompatibly.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// A single telemetry record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Global sequence number (total order across threads). Sinks may write
    /// events out of order; consumers sort by `seq` to reconstruct the run.
    pub seq: u64,
    /// Microseconds since the owning [`crate::Telemetry`] handle was created.
    pub t_us: u64,
    /// Label of the thread that emitted the event (thread name if set,
    /// otherwise the formatted `ThreadId`).
    pub thread: String,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A span (timed phase) opened. Spans nest per-thread: the aggregator
    /// derives parentage from open/close order on the emitting thread.
    SpanOpen {
        /// Process-unique span id (never 0).
        id: u64,
        /// Phase name, e.g. `"encode"` or `"solve"`.
        name: String,
        /// Attributes attached at open time.
        attrs: Vec<(String, AttrValue)>,
    },
    /// A span closed. Unmatched closes are ignored by the aggregator;
    /// spans still open at end of trace are closed at the last timestamp.
    SpanClose {
        /// Id from the matching [`EventKind::SpanOpen`].
        id: u64,
    },
    /// A monotonic counter incremented by `delta`.
    Counter {
        /// Counter name, e.g. `"solver.conflicts"`.
        name: String,
        /// Amount added to the counter.
        delta: u64,
    },
    /// An instantaneous event with attributes, e.g. a rung outcome.
    Point {
        /// Event name, e.g. `"rung"` or `"encoder.cnf"`.
        name: String,
        /// Structured payload.
        attrs: Vec<(String, AttrValue)>,
    },
}

impl EventKind {
    /// The name carried by the event, if its kind has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            EventKind::SpanOpen { name, .. }
            | EventKind::Counter { name, .. }
            | EventKind::Point { name, .. } => Some(name),
            EventKind::SpanClose { .. } => None,
        }
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl AttrValue {
    /// Returns the value as `u64` if it is an integer attribute.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(x) => Some(*x),
            AttrValue::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// Returns the value as `&str` if it is a string attribute.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as `bool` if it is a boolean attribute.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<u64> for AttrValue {
    fn from(x: u64) -> Self {
        AttrValue::U64(x)
    }
}

impl From<u32> for AttrValue {
    fn from(x: u32) -> Self {
        AttrValue::U64(u64::from(x))
    }
}

impl From<usize> for AttrValue {
    fn from(x: usize) -> Self {
        AttrValue::U64(x as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(x: i64) -> Self {
        AttrValue::I64(x)
    }
}

impl From<f64> for AttrValue {
    fn from(x: f64) -> Self {
        AttrValue::F64(x)
    }
}

impl From<bool> for AttrValue {
    fn from(x: bool) -> Self {
        AttrValue::Bool(x)
    }
}

impl From<&str> for AttrValue {
    fn from(x: &str) -> Self {
        AttrValue::Str(x.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(x: String) -> Self {
        AttrValue::Str(x)
    }
}

/// Builds one attribute pair; shorthand for event construction sites.
///
/// ```
/// use mm_telemetry::kv;
/// let attrs = vec![kv("n_rops", 3u64), kv("outcome", "sat")];
/// ```
pub fn kv(key: &str, value: impl Into<AttrValue>) -> (String, AttrValue) {
    (key.to_string(), value.into())
}

/// Looks up an attribute by key in an attribute list.
pub fn attr<'a>(attrs: &'a [(String, AttrValue)], key: &str) -> Option<&'a AttrValue> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}
