//! Progress frames: the one sink that turns a job's telemetry points
//! into `progress` frames, for the daemon's wire and `mmsynth --progress`.
//!
//! A frame is one JSON object, distinguishable from any final response
//! by its `"frame":"progress"` field (responses never carry `frame`):
//!
//! ```text
//! {"frame":"progress","id":"j1","event":"rung","n_rops":2,"outcome":"unsat"}
//! {"frame":"progress","id":"j1","event":"job.cache","outcome":"miss"}
//! {"id":"j1","status":"ok","cache":"miss",...}
//! ```
//!
//! The daemon ([`channel_sink`]) forwards only the *lifecycle* points an
//! operator can act on ([`FRAME_EVENTS`]); span plumbing and raw counters
//! stay in the trace. Frames travel over the connection's one channel to
//! the writer thread, which writes each as it arrives (see
//! `daemon::write_loop`). The job's final reply is sent on the same
//! channel by the same worker thread after its last frame, so every
//! frame of a job reaches the writer ahead of that job's final — order
//! within a job is deterministic even though frames of concurrent jobs
//! interleave freely. The local CLI passes no filter and renders every
//! frame on stderr, the same way `mmsynth client --progress` renders the
//! daemon's.

use std::sync::mpsc::Sender;

use mm_telemetry::metrics::Counter;
use mm_telemetry::{AttrValue, Event, EventKind, TelemetrySink};
use serde::Value;

/// Point names forwarded to subscribers: rung activation and verdict,
/// ladder summary, cache outcome, repair rounds.
pub const FRAME_EVENTS: &[&str] = &[
    "rung.spawned",
    "rung",
    "ladder",
    "job.cache",
    "repair.round",
];

/// A [`TelemetrySink`] that builds a `progress` frame for each point
/// event of one job and hands it to `deliver`.
pub struct ProgressFrameSink<F> {
    id: String,
    events: Option<&'static [&'static str]>,
    deliver: F,
}

impl<F: Fn(Value) + Send + Sync> ProgressFrameSink<F> {
    /// A sink framing `id`'s points named in `events` (every point when
    /// `None`) and passing each frame to `deliver`.
    pub fn new(id: &str, events: Option<&'static [&'static str]>, deliver: F) -> Self {
        Self {
            id: id.to_string(),
            events,
            deliver,
        }
    }
}

/// The daemon's sink: streams `id`'s [`FRAME_EVENTS`] frames, one JSON
/// line each sent as `T::from(line)`, to the connection's writer thread,
/// counting sent frames into `emitted` (`mmsynth_progress_frames_total`).
pub fn channel_sink<T: From<String> + Send>(
    id: &str,
    frames: Sender<T>,
    emitted: Counter,
) -> impl TelemetrySink {
    ProgressFrameSink::new(id, Some(FRAME_EVENTS), move |frame| {
        let line = serde_json::to_string(&frame).expect("frame serializes");
        // A gone writer means the client hung up; the job still runs to
        // its verdict, it just streams to nobody.
        if frames.send(T::from(line)).is_ok() {
            emitted.inc();
        }
    })
}

fn attr_value(v: &AttrValue) -> Value {
    match v {
        AttrValue::U64(x) => Value::UInt(*x),
        AttrValue::I64(x) => Value::Int(*x),
        AttrValue::F64(x) => Value::Float(*x),
        AttrValue::Str(s) => Value::Str(s.clone()),
        AttrValue::Bool(b) => Value::Bool(*b),
    }
}

impl<F: Fn(Value) + Send + Sync> TelemetrySink for ProgressFrameSink<F> {
    fn record(&self, event: &Event) {
        let EventKind::Point { name, attrs } = &event.kind else {
            return;
        };
        if self
            .events
            .is_some_and(|events| !events.contains(&name.as_str()))
        {
            return;
        }
        let mut fields = vec![
            ("frame".to_string(), Value::Str("progress".to_string())),
            ("id".to_string(), Value::Str(self.id.clone())),
            ("event".to_string(), Value::Str(name.clone())),
        ];
        for (key, value) in attrs {
            // The job id is already the frame's `id`; point-level ids
            // (e.g. on `job.cache`) would just repeat it.
            if key != "id" {
                fields.push((key.clone(), attr_value(value)));
            }
        }
        (self.deliver)(Value::Object(fields));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    use mm_telemetry::{kv, Telemetry};

    use super::*;

    #[test]
    fn forwards_whitelisted_points_only_and_tags_the_job() {
        let (tx, rx) = channel();
        let emitted = Counter::detached();
        let telemetry = Telemetry::disabled().with_extra_sink(Arc::new(channel_sink(
            "job-7",
            tx,
            emitted.clone(),
        )));
        telemetry.point("rung", vec![kv("n_rops", 2u64), kv("outcome", "unsat")]);
        telemetry.point("encoder.cnf", vec![kv("clauses", 100u64)]);
        telemetry.counter("solver.conflicts", 10);
        telemetry.point("job.cache", vec![kv("id", "job-7"), kv("outcome", "miss")]);
        {
            let _span = telemetry.span("solve");
        }
        drop(telemetry);
        let frames: Vec<String> = rx.try_iter().collect();
        assert_eq!(frames.len(), 2, "frames: {frames:?}");
        assert_eq!(emitted.get(), 2);
        assert!(frames[0].contains(r#""frame":"progress""#));
        assert!(frames[0].contains(r#""id":"job-7""#));
        assert!(frames[0].contains(r#""event":"rung""#));
        assert!(frames[0].contains(r#""outcome":"unsat""#));
        assert!(frames[1].contains(r#""event":"job.cache""#));
        let id_count = frames[1].matches(r#""id":"#).count();
        assert_eq!(id_count, 1, "point-level id is not repeated: {}", frames[1]);
    }

    #[test]
    fn hung_up_client_does_not_kill_the_job() {
        let (tx, rx) = channel::<String>();
        drop(rx);
        let emitted = Counter::detached();
        let sink = channel_sink("gone", tx, emitted.clone());
        let telemetry = Telemetry::disabled().with_extra_sink(Arc::new(sink));
        telemetry.point("rung", vec![kv("outcome", "sat")]);
        assert_eq!(emitted.get(), 0, "nothing emitted to a gone client");
    }
}
