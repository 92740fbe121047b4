//! Flag parsing and telemetry wiring shared by `mmsynth` and `mmsynthd`.
//!
//! Each binary accepts only the flags it reads: an unknown flag, a count
//! given no value, or a count that does not parse or does not fit is an
//! error naming the flag and its value, never a silent default.

use std::path::Path;
use std::sync::Arc;

use memristive_mm::service::progress::ProgressFrameSink;
use memristive_mm::telemetry::{
    atomic_write, JsonlSink, MemorySink, MultiSink, RunReport, Telemetry, TelemetrySink,
};
use serde::Value;

/// A command line: `--name [value]` flags and bare words.
pub struct Args {
    /// `--name value` pairs in command-line order; `None` for a flag given
    /// with no value.
    flags: Vec<(String, Option<String>)>,
    /// Words that are no flag or flag value, in order.
    pub bare: Vec<String>,
}

impl Args {
    /// Splits `argv`: a word after `--name` is its value unless it is a
    /// flag itself.
    pub fn parse(argv: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut bare = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => Some(it.next().expect("peeked").clone()),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                bare.push(a.clone());
            }
        }
        Self { flags, bare }
    }

    /// The last `--name`: `Some(None)` when it was given with no value.
    fn flag(&self, name: &str) -> Option<Option<&str>> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_deref())
    }

    /// The value of `--name`; a flag given with no value reads `"true"`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flag(name).map(|v| v.unwrap_or("true"))
    }

    /// The value of `--name` as a count, `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Names the flag when it has no value, and the flag and its value when
    /// the value is not a nonnegative integer.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(None) => Err(format!("--{name} needs a value")),
            Some(Some(v)) => v
                .parse()
                .map_err(|_| format!("--{name} expects a nonnegative integer, got {v:?}")),
        }
    }

    /// [`get_usize`](Self::get_usize) for a count that must fit a `u32`.
    ///
    /// # Errors
    ///
    /// As `get_usize`, and names the flag and its value when the count
    /// exceeds `u32::MAX`.
    #[allow(dead_code)] // `mmsynthd` reads no `u32` count
    pub fn get_u32(&self, name: &str, default: u32) -> Result<u32, String> {
        let n = self.get_usize(name, default as usize)?;
        u32::try_from(n).map_err(|_| format!("--{name} must be at most {}, got {n}", u32::MAX))
    }

    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Rejects the first flag that no space-separated list in `known`
    /// names; `program` is the command the error names.
    pub fn check_flags(&self, known: &[&str], program: &str) -> Result<(), String> {
        let accepted = |name: &str| {
            known
                .iter()
                .flat_map(|k| k.split_whitespace())
                .any(|k| k == name)
        };
        match self.flags.iter().find(|(n, _)| !accepted(n)) {
            Some((name, _)) => Err(format!("unknown flag --{name} for `{program}`")),
            None => Ok(()),
        }
    }
}

/// Telemetry wiring: `--trace-out FILE` streams raw JSONL events,
/// `--report-json FILE` aggregates them into a versioned [`RunReport`],
/// `--progress` renders every point event on stderr as a progress frame,
/// the way `mmsynth client --progress` renders the daemon's.
pub struct TelemetrySetup {
    pub telemetry: Telemetry,
    memory: Option<Arc<MemorySink>>,
    report_path: Option<String>,
}

impl TelemetrySetup {
    /// The sinks `args` asks for; `command` names the trace's `meta` event.
    pub fn from_args(args: &Args, command: &str) -> Result<Self, String> {
        let report_path = args.get("report-json").map(str::to_string);
        let mut sinks: Vec<Arc<dyn TelemetrySink>> = Vec::new();
        let mut memory = None;
        if let Some(path) = args.get("trace-out") {
            let sink =
                JsonlSink::create(Path::new(path)).map_err(|e| format!("creating {path}: {e}"))?;
            sinks.push(Arc::new(sink));
        }
        if report_path.is_some() {
            let m = Arc::new(MemorySink::new());
            memory = Some(m.clone());
            sinks.push(m);
        }
        if args.has("progress") {
            let ticker =
                ProgressFrameSink::new(command, None, |frame| render_progress_frame(&frame));
            sinks.push(Arc::new(ticker));
        }
        let telemetry = match sinks.len() {
            0 => Telemetry::disabled(),
            1 => Telemetry::new(sinks.pop().expect("length checked")),
            _ => Telemetry::new(Arc::new(MultiSink::new(sinks))),
        };
        telemetry.meta_event(command);
        Ok(Self {
            telemetry,
            memory,
            report_path,
        })
    }

    /// Flushes sinks and writes the aggregated run report, if requested.
    pub fn finish(&self) -> Result<(), String> {
        self.telemetry.flush();
        if let (Some(path), Some(memory)) = (&self.report_path, &self.memory) {
            let report = RunReport::from_events(&memory.snapshot());
            let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            atomic_write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("run report written to {path}");
        }
        Ok(())
    }
}

/// One stderr line per frame: `mmsynth: progress <event> k=v ...`.
pub fn render_progress_frame(frame: &Value) {
    let Value::Object(fields) = frame else { return };
    let mut event = String::new();
    let mut rest = String::new();
    for (key, value) in fields {
        match key.as_str() {
            "frame" | "id" => {}
            "event" => {
                if let Value::Str(s) = value {
                    event = s.clone();
                }
            }
            _ => {
                let rendered = match value {
                    Value::Str(s) => s.clone(),
                    other => serde_json::to_string(other).unwrap_or_default(),
                };
                rest.push_str(&format!(" {key}={rendered}"));
            }
        }
    }
    eprintln!("mmsynth: progress {event}{rest}");
}
