//! The JSON-lines wire protocol.
//!
//! One request object per line in, one response object per line out.
//! Requests are parsed *tolerantly* by hand from the document tree —
//! unknown fields are ignored, optional fields default — so old clients
//! keep working across server upgrades; responses use the derived
//! serializers so every field is always present (absent values as
//! `null`).
//!
//! ```text
//! {"op":"minimize","id":"j1","tables":["0110"],"max_rops":3,"max_steps":3}
//! {"id":"j1","status":"ok","cache":"miss","circuit":{...},...}
//! ```
//!
//! Status values mirror the CLI's exit-code contract: `ok` (exit 0),
//! `degraded` (exit 2 — budget/deadline ran out, the payload is the best
//! known), `overloaded` (admission queue full, retry later), `error`
//! (malformed request or internal failure), `shutting_down` (drain in
//! progress; resubmit elsewhere).

use std::time::Duration;

use mm_boolfn::{BoolFnError, MultiOutputFn, TruthTable};
use mm_circuit::{CampaignReport, Metrics, MmCircuit};
use mm_sat::DratProof;
use mm_synth::request::{MinimizeMode, MinimizeRequest};
use serde::Value;

use crate::cache::CacheStats;

/// Protocol schema version, echoed in `hello` and `stats` responses.
pub const PROTO_VERSION: u64 = 1;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id echoed back in the response (defaults to `""`).
    pub id: String,
    /// What to do.
    pub op: Op,
    /// Stream `progress` frames for this job ahead of its final response
    /// (`"subscribe": true`). Non-subscribing requests are served exactly
    /// as before — no frames, byte-identical finals.
    pub subscribe: bool,
}

/// The operations the daemon serves.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Cache/queue counters.
    Stats,
    /// Live-metrics snapshot: the full registry as structured JSON plus
    /// the rendered Prometheus exposition text. Answered inline by the
    /// daemon (outside [`JobResponse`]'s fixed shape) so it stays
    /// responsive under queue pressure.
    Metrics,
    /// Begin a graceful drain (same path as SIGTERM).
    Shutdown,
    /// Cached minimization of a function.
    Minimize {
        /// The function, one bitstring per output (row 0 first).
        tables: Vec<String>,
        /// Ladder + budget facet.
        request: MinimizeRequest,
        /// Skip the cache entirely (solve cold, do not store).
        no_cache: bool,
    },
    /// One fixed-budget decision call (`SynthSpec::mixed_mode`).
    Synthesize {
        /// The function, one bitstring per output.
        tables: Vec<String>,
        /// R-op budget.
        n_rops: usize,
        /// Leg budget (`None` = the paper heuristic).
        n_legs: Option<usize>,
        /// Steps-per-leg budget.
        n_vsteps: usize,
        /// Per-call conflict limit.
        max_conflicts: Option<u64>,
    },
    /// Fault-injection campaign against a synthesized schedule.
    Faultsim {
        /// The function, one bitstring per output.
        tables: Vec<String>,
        /// R-op budget for the circuit under test.
        n_rops: usize,
        /// Steps-per-leg budget for the circuit under test.
        n_vsteps: usize,
        /// Seeded trials per plan.
        trials: u32,
        /// Base RNG seed.
        seed: u64,
        /// Cells stuck at LRS for the injected plan (empty = control only).
        stuck_lrs: Vec<usize>,
    },
}

impl Op {
    /// The lowercase wire token, used as the `op` metric label.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Ping => "ping",
            Self::Stats => "stats",
            Self::Metrics => "metrics",
            Self::Shutdown => "shutdown",
            Self::Minimize { .. } => "minimize",
            Self::Synthesize { .. } => "synthesize",
            Self::Faultsim { .. } => "faultsim",
        }
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// How to read one request field: what it must be (for the error) and a
/// reader that yields `None` for a value of any other type.
type Reader<T> = (&'static str, fn(&Value) -> Option<T>);

const UINT: Reader<u64> = ("a nonnegative integer", |v| match v {
    Value::UInt(x) => Some(*x),
    Value::Int(x) => u64::try_from(*x).ok(),
    _ => None,
});
const USIZE: Reader<usize> = ("a nonnegative integer", |v| {
    (UINT.1)(v).and_then(|x| usize::try_from(x).ok())
});
const BOOL: Reader<bool> = ("true or false", |v| match v {
    Value::Bool(b) => Some(*b),
    _ => None,
});
const SECONDS: Reader<Duration> = ("a finite nonnegative number of seconds", |v| {
    let secs = match v {
        Value::Float(x) => *x,
        Value::UInt(x) => *x as f64,
        Value::Int(x) => *x as f64,
        _ => return None,
    };
    Duration::try_from_secs_f64(secs).ok()
});
const STRING: Reader<String> = ("a string", |v| as_str(Some(v)).map(str::to_string));
const STRINGS: Reader<Vec<String>> = ("an array of strings", |v| match v {
    Value::Array(items) => items
        .iter()
        .map(|item| as_str(Some(item)).map(str::to_string))
        .collect(),
    _ => None,
});
const USIZES: Reader<Vec<usize>> = ("an array of nonnegative integers", |v| match v {
    Value::Array(items) => items.iter().map(USIZE.1).collect(),
    _ => None,
});

/// The field `name` of `value`: `None` when absent or `null`.
///
/// # Errors
///
/// Names the field, what it must be and its value when it holds another
/// type, instead of falling back to a default.
fn field<T>(value: &Value, name: &str, (expected, read): Reader<T>) -> Result<Option<T>, String> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => read(v).map(Some).ok_or_else(|| {
            let got = serde_json::to_string(v).unwrap_or_default();
            format!("\"{name}\" must be {expected}, got {got}")
        }),
    }
}

/// The unsigned field `name` of `value`, `default` when absent.
///
/// # Errors
///
/// As [`field`], and names the field when its value does not fit a
/// `u32`, instead of truncating it.
fn u32_field(value: &Value, name: &str, default: u32) -> Result<u32, String> {
    match field(value, name, UINT)? {
        None => Ok(default),
        Some(x) => u32::try_from(x)
            .map_err(|_| format!("\"{name}\" must be at most {}, got {x}", u32::MAX)),
    }
}

impl JobRequest {
    /// Parses one request line. Unknown fields are ignored; a missing or
    /// unknown `op`, or a malformed required field, is an error whose
    /// message goes back to the client verbatim.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn parse(line: &str) -> Result<Self, String> {
        Self::parse_keeping_id(line).map_err(|(_, e)| e)
    }

    /// Like [`parse`](Self::parse), but a failure also carries the
    /// request's `id` when it could be read (`""` otherwise), so the
    /// error reply can still echo it.
    ///
    /// # Errors
    ///
    /// Returns the id and a description of the first problem found.
    pub fn parse_keeping_id(line: &str) -> Result<Self, (String, String)> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| (String::new(), format!("bad request json: {e}")))?;
        let id = field(&value, "id", STRING)
            .map_err(|e| (String::new(), e))?
            .unwrap_or_default();
        match Self::parse_op(&value) {
            Ok((op, subscribe)) => Ok(Self { id, op, subscribe }),
            Err(e) => Err((id, e)),
        }
    }

    /// The op and the `subscribe` flag of a request whose `id` was read.
    fn parse_op(value: &Value) -> Result<(Op, bool), String> {
        let op = as_str(value.get("op")).ok_or("missing \"op\"")?;
        let op = match op {
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "shutdown" => Op::Shutdown,
            "minimize" => {
                let tables =
                    field(value, "tables", STRINGS)?.ok_or("minimize needs \"tables\": [bits]")?;
                let max_rops = field(value, "max_rops", USIZE)?.unwrap_or(4);
                let max_vsteps = field(value, "max_steps", USIZE)?.unwrap_or(3);
                let mode = if field(value, "r_only", BOOL)?.unwrap_or(false) {
                    MinimizeMode::ROnly { max_rops }
                } else {
                    MinimizeMode::MixedMode {
                        max_rops,
                        max_vsteps,
                        is_adder: field(value, "adder", BOOL)?.unwrap_or(false),
                    }
                };
                Op::Minimize {
                    tables,
                    request: MinimizeRequest {
                        mode,
                        max_conflicts: field(value, "max_conflicts", UINT)?,
                        deadline: field(value, "deadline_secs", SECONDS)?,
                        certify: field(value, "certify", BOOL)?.unwrap_or(false),
                    },
                    no_cache: field(value, "no_cache", BOOL)?.unwrap_or(false),
                }
            }
            "synthesize" => Op::Synthesize {
                tables: field(value, "tables", STRINGS)?
                    .ok_or("synthesize needs \"tables\": [bits]")?,
                n_rops: field(value, "rops", USIZE)?.ok_or("synthesize needs \"rops\"")?,
                n_legs: field(value, "legs", USIZE)?,
                n_vsteps: field(value, "steps", USIZE)?.unwrap_or(3),
                max_conflicts: field(value, "max_conflicts", UINT)?,
            },
            "faultsim" => Op::Faultsim {
                tables: field(value, "tables", STRINGS)?
                    .ok_or("faultsim needs \"tables\": [bits]")?,
                n_rops: field(value, "rops", USIZE)?.unwrap_or(1),
                n_vsteps: field(value, "steps", USIZE)?.unwrap_or(3),
                trials: u32_field(value, "trials", 16)?,
                seed: field(value, "seed", UINT)?.unwrap_or(42),
                stuck_lrs: field(value, "stuck_lrs", USIZES)?.unwrap_or_default(),
            },
            other => return Err(format!("unknown op {other:?}")),
        };
        let subscribe = field(value, "subscribe", BOOL)?.unwrap_or(false);
        Ok((op, subscribe))
    }
}

/// Builds the [`MultiOutputFn`] a request's `tables` describe.
///
/// # Errors
///
/// Propagates [`BoolFnError`] for empty/ragged/non-power-of-two tables.
pub fn function_from_tables(tables: &[String]) -> Result<MultiOutputFn, BoolFnError> {
    let outputs = tables
        .iter()
        .map(|bits| TruthTable::from_bitstring(bits))
        .collect::<Result<Vec<_>, _>>()?;
    MultiOutputFn::new("wire", outputs)
}

/// How a minimize, synthesize or faultsim response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the persistent cache.
    Hit,
    /// Solved cold and stored.
    Miss,
    /// Cache skipped (`no_cache`, a deadline or a capped `synthesize`,
    /// or no cache directory configured).
    Bypass,
}

impl CacheOutcome {
    /// The lowercase wire token (`"hit"` | `"miss"` | `"bypass"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Bypass => "bypass",
        }
    }
}

// Manual impls: the wire format is the lowercase token, not the derive's
// capitalized variant name.
impl serde::Serialize for CacheOutcome {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for CacheOutcome {
    fn from_value(value: &serde_json::Value) -> Result<Self, serde::Error> {
        match value {
            serde_json::Value::Str(s) => match s.as_str() {
                "hit" => Ok(Self::Hit),
                "miss" => Ok(Self::Miss),
                "bypass" => Ok(Self::Bypass),
                other => Err(serde::Error::msg(format!(
                    "unknown cache outcome {other:?}"
                ))),
            },
            _ => Err(serde::Error::msg("cache outcome must be a string")),
        }
    }
}

/// One response line. Everything is optional except `id` + `status`, so
/// a single shape covers all ops.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct JobResponse {
    /// Echo of the request id.
    pub id: String,
    /// `ok` | `degraded` | `overloaded` | `error` | `shutting_down`.
    pub status: String,
    /// How a minimize, synthesize or faultsim answer was produced.
    pub cache: Option<CacheOutcome>,
    /// Why a `degraded` response degraded (mirrors exit code 2).
    pub degraded_reason: Option<String>,
    /// The circuit, for the *requested* (de-canonicalized) function.
    pub circuit: Option<MmCircuit>,
    /// The circuit's cost metrics.
    pub metrics: Option<Metrics>,
    /// Whether minimality was proved.
    pub proven_optimal: Option<bool>,
    /// DRAT refutation of the rung below the optimum, when certified.
    pub proof: Option<DratProof>,
    /// Solver calls spent (0 for a pure cache hit).
    pub solver_calls: Option<u64>,
    /// Fixed-budget decision verdict (`sat` | `unsat` | `unknown`).
    pub verdict: Option<String>,
    /// Fault-campaign report, for `faultsim`.
    pub campaign: Option<CampaignReport>,
    /// Cache counters, for `stats`.
    pub cache_stats: Option<CacheStats>,
    /// Entries currently on disk, for `stats`.
    pub cache_entries: Option<u64>,
    /// Protocol schema version, for `ping`/`stats`.
    pub proto_version: Option<u64>,
    /// Human-readable error, for `error`.
    pub error: Option<String>,
}

impl JobResponse {
    /// A bare response with the given id and status.
    pub fn new(id: &str, status: &str) -> Self {
        Self {
            id: id.to_string(),
            status: status.to_string(),
            ..Self::default()
        }
    }

    /// The `error` response for a malformed or failed request.
    pub fn error(id: &str, message: impl Into<String>) -> Self {
        Self {
            error: Some(message.into()),
            ..Self::new(id, "error")
        }
    }

    /// The `overloaded` shed response.
    pub fn overloaded(id: &str) -> Self {
        Self::new(id, "overloaded")
    }

    /// Serializes to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_line_parses_with_defaults() {
        let req = JobRequest::parse(r#"{"op":"minimize","id":"j1","tables":["0110"]}"#).unwrap();
        assert_eq!(req.id, "j1");
        let Op::Minimize {
            tables,
            request,
            no_cache,
        } = req.op
        else {
            panic!("wrong op");
        };
        assert_eq!(tables, vec!["0110"]);
        assert!(!no_cache);
        assert_eq!(
            request.mode,
            MinimizeMode::MixedMode {
                max_rops: 4,
                max_vsteps: 3,
                is_adder: false
            }
        );
        assert!(request.is_deterministic());
    }

    #[test]
    fn unknown_fields_are_tolerated_and_options_honored() {
        let req = JobRequest::parse(
            r#"{"op":"minimize","id":"x","tables":["0001"],"r_only":true,"max_rops":5,
                "max_conflicts":100,"deadline_secs":1.5,"certify":true,"no_cache":true,
                "some_future_field":{"nested":[1,2]}}"#,
        )
        .unwrap();
        let Op::Minimize {
            request, no_cache, ..
        } = req.op
        else {
            panic!("wrong op");
        };
        assert!(no_cache);
        assert_eq!(request.mode, MinimizeMode::ROnly { max_rops: 5 });
        assert_eq!(request.max_conflicts, Some(100));
        assert_eq!(request.deadline, Some(Duration::from_secs_f64(1.5)));
        assert!(request.certify);
    }

    #[test]
    fn metrics_op_and_subscribe_flag_parse() {
        let req = JobRequest::parse(r#"{"op":"metrics","id":"m"}"#).unwrap();
        assert_eq!(req.op, Op::Metrics);
        assert_eq!(req.op.name(), "metrics");
        assert!(!req.subscribe, "subscribe defaults off");
        let req =
            JobRequest::parse(r#"{"op":"minimize","id":"s","tables":["0110"],"subscribe":true}"#)
                .unwrap();
        assert!(req.subscribe);
        assert_eq!(req.op.name(), "minimize");
    }

    #[test]
    fn malformed_lines_produce_messages_not_panics() {
        assert!(JobRequest::parse("").is_err());
        assert!(JobRequest::parse("not json").is_err());
        assert!(JobRequest::parse(r#"{"id":"x"}"#)
            .unwrap_err()
            .contains("op"));
        assert!(JobRequest::parse(r#"{"op":"minimize"}"#)
            .unwrap_err()
            .contains("tables"));
        assert!(JobRequest::parse(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
    }

    #[test]
    fn out_of_range_trials_are_rejected_by_name() {
        let line = |trials: u64| {
            format!(r#"{{"op":"faultsim","id":"f","tables":["0110"],"trials":{trials}}}"#)
        };
        let req = JobRequest::parse(&line(u64::from(u32::MAX))).unwrap();
        assert!(matches!(req.op, Op::Faultsim { trials, .. } if trials == u32::MAX));
        // 2^32 + 1 used to truncate to 1 trial.
        let err = JobRequest::parse(&line(4_294_967_297)).unwrap_err();
        assert!(
            err.contains("\"trials\"") && err.contains("4294967297"),
            "{err}"
        );
    }

    #[test]
    fn wrong_typed_fields_are_rejected_by_name() {
        // Each used to fall back to its default: 16 trials, no stuck
        // plan, 4 R-ops, an uncertified run.
        let rejected = |line: &str, field: &str| {
            let err = JobRequest::parse(line).unwrap_err();
            assert!(err.contains(&format!("\"{field}\"")), "{line}: {err}");
        };
        rejected(
            r#"{"op":"faultsim","id":"f","tables":["0110"],"trials":"999","stuck_lrs":["x",-1]}"#,
            "trials",
        );
        rejected(
            r#"{"op":"faultsim","id":"f","tables":["0110"],"stuck_lrs":["x",-1]}"#,
            "stuck_lrs",
        );
        rejected(
            r#"{"op":"faultsim","id":"f","tables":["0110"],"stuck_lrs":[-1]}"#,
            "stuck_lrs",
        );
        rejected(
            r#"{"op":"minimize","id":"m","tables":["0110"],"max_rops":"3"}"#,
            "max_rops",
        );
        rejected(
            r#"{"op":"minimize","id":"m","tables":["0110"],"certify":"yes"}"#,
            "certify",
        );
        rejected(
            r#"{"op":"minimize","id":"m","tables":["0110"],"deadline_secs":"1"}"#,
            "deadline_secs",
        );
        rejected(r#"{"op":"minimize","id":"m","tables":"0110"}"#, "tables");
        rejected(r#"{"op":"minimize","id":"m","tables":[6]}"#, "tables");
        rejected(
            r#"{"op":"synthesize","id":"s","tables":["0110"],"rops":2.5}"#,
            "rops",
        );
        rejected(r#"{"op":"ping","id":"p","subscribe":1}"#, "subscribe");
        rejected(r#"{"op":"ping","id":7}"#, "id");
        rejected(r#"{"op":"ping","id":["p"]}"#, "id");
        // Wrong values too: each used to mean "no deadline".
        for deadline in ["-1", "-0.5", "1e999", "1e300"] {
            rejected(
                &format!(
                    r#"{{"op":"minimize","id":"m","tables":["0110"],"deadline_secs":{deadline}}}"#
                ),
                "deadline_secs",
            );
        }
        // The message carries the value, and null reads as absent.
        let err =
            JobRequest::parse(r#"{"op":"faultsim","id":"f","tables":["0110"],"trials":"999"}"#)
                .unwrap_err();
        assert!(err.contains(r#""999""#), "{err}");
        let req = JobRequest::parse(
            r#"{"op":"faultsim","id":"f","tables":["0110"],"trials":null,"stuck_lrs":[2,0]}"#,
        )
        .unwrap();
        assert!(matches!(
            req.op,
            Op::Faultsim { trials: 16, ref stuck_lrs, .. } if *stuck_lrs == [2, 0]
        ));
    }

    #[test]
    fn parse_failures_keep_a_readable_id() {
        let (id, err) = JobRequest::parse_keeping_id(
            r#"{"op":"faultsim","id":"f","tables":["0110"],"trials":"999"}"#,
        )
        .unwrap_err();
        assert_eq!(id, "f");
        assert!(err.contains("\"trials\""), "{err}");
        let (id, err) = JobRequest::parse_keeping_id(r#"{"op":"ping","id":7}"#).unwrap_err();
        assert_eq!(id, "", "a non-string id is not echoed");
        assert!(err.contains("\"id\" must be a string, got 7"), "{err}");
        assert_eq!(JobRequest::parse_keeping_id("not json").unwrap_err().0, "");
        assert_eq!(
            JobRequest::parse_keeping_id(r#"{"id":"x"}"#).unwrap_err().0,
            "x"
        );
        // Absent and null ids still read as "".
        assert_eq!(
            JobRequest::parse(r#"{"op":"ping","id":null}"#).unwrap().id,
            ""
        );
        let req =
            JobRequest::parse(r#"{"op":"minimize","id":"m","tables":["0110"],"deadline_secs":0}"#)
                .unwrap();
        assert!(
            matches!(req.op, Op::Minimize { request, .. } if request.deadline == Some(Duration::ZERO))
        );
    }

    #[test]
    fn tables_build_functions_and_reject_garbage() {
        let f = function_from_tables(&["0110".into(), "0001".into()]).unwrap();
        assert_eq!(f.n_inputs(), 2);
        assert_eq!(f.n_outputs(), 2);
        assert!(function_from_tables(&["011".into()]).is_err());
        assert!(function_from_tables(&[]).is_err());
    }

    #[test]
    fn responses_serialize_every_field() {
        let resp = JobResponse::error("j9", "boom");
        let line = resp.to_line();
        let value: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(as_str(value.get("id")), Some("j9"));
        assert_eq!(as_str(value.get("status")), Some("error"));
        assert_eq!(as_str(value.get("error")), Some("boom"));
        assert_eq!(value.get("circuit"), Some(&Value::Null));
    }
}
