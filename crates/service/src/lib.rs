//! Crash-safe synthesis service: the long-running counterpart to the
//! `mmsynth` CLI.
//!
//! The crate packages four robustness layers around the synthesis stack:
//!
//! - [`cache`] — a persistent, content-addressed result cache keyed by
//!   the NPN-canonical form of the requested function
//!   ([`mm_boolfn::npn`]). Entries are written atomically with a
//!   checksum and schema version; a startup recovery scan quarantines
//!   anything torn or corrupt instead of serving it.
//! - [`supervisor`] — a bounded worker pool with panic isolation
//!   (`catch_unwind`) and an explicit `overloaded` shed when the
//!   admission queue is full. Every job runs once, at the budget its
//!   request states; a request's deadline runs from its admission.
//! - [`engine`] — the job executor: canonicalize → cache lookup → solve
//!   miss on the portfolio → store → de-canonicalize, so a cache hit is
//!   bit-identical to a cold solve.
//! - [`daemon`] — JSON-lines serve loops (stdio, Unix socket, TCP) with
//!   pipelined per-connection reader/writer threads and a SIGTERM drain
//!   that never abandons an accepted job.
//!
//! [`proto`] holds the wire types. The only `unsafe` in the crate is the
//! SIGTERM latch in its dedicated module.
#![deny(unsafe_code)]

pub mod cache;
pub mod daemon;
pub mod engine;
pub mod http;
pub mod metrics;
pub mod progress;
pub mod proto;
mod signal;
pub mod supervisor;

pub use cache::{CacheEntry, CacheKey, CacheStats, RecoveryReport, ResultCache};
pub use daemon::{Daemon, DaemonConfig};
pub use engine::{Attempt, AttemptResult, Engine};
pub use http::MetricsServer;
pub use metrics::{MetricsBridgeSink, ServiceMetrics};
pub use proto::{CacheOutcome, JobRequest, JobResponse, Op, PROTO_VERSION};
pub use supervisor::{JobVerdict, Submission, Supervisor, SupervisorConfig};
