//! The `mmsynthd` daemon: JSON-lines serve loops over stdio, Unix and
//! TCP sockets, wired to the [`Engine`] through the [`Supervisor`].
//!
//! # Serve loop shape
//!
//! Each connection gets a *reader* (the calling thread) and a *writer*
//! thread joined by one channel that the writer blocks on. The reader
//! numbers and parses each request line and sends inline replies
//! itself; a submitted job's worker sends its progress frames, then its
//! final, on the same channel. The writer writes frames as they arrive
//! and finals **in submission order**, one line per request. Decoupling
//! the two lets a client pipeline requests — which is also what makes
//! the bounded admission queue (and the `overloaded` shed response)
//! actually reachable from a single connection.
//!
//! # Shutdown
//!
//! SIGTERM/SIGINT, the `shutdown` op, and stdin EOF all converge on the
//! same drain: stop admitting, let the supervisor finish every accepted
//! job, flush the cache index, checkpoint telemetry. Accepted jobs are
//! never abandoned — each gets exactly one response line.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mm_telemetry::metrics::MetricsRegistry;
use mm_telemetry::{atomic_write, kv, Telemetry, TelemetrySink};
use serde::Value;

use crate::cache::{RecoveryReport, ResultCache};
use crate::engine::Engine;
use crate::http::MetricsServer;
use crate::metrics::{MetricsBridgeSink, ServiceMetrics};
use crate::progress;
use crate::proto::{JobRequest, JobResponse, Op, PROTO_VERSION};
use crate::signal;
use crate::supervisor::{JobVerdict, Submission, Supervisor, SupervisorConfig};

/// Lifetime counter snapshot next to the cache index.
const LIFETIME_FILE: &str = "metrics.json";

/// Longest request line the daemon reads, newline excluded. Real requests
/// are under a kilobyte; a longer line is answered with an error and
/// skipped without being held in memory.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Persistent result-cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Re-execute cached circuits on the device model before serving.
    pub paranoid: bool,
    /// Concurrent jobs.
    pub workers: usize,
    /// Admission queue depth beyond the jobs in flight.
    pub queue_depth: usize,
    /// Portfolio width per solve.
    pub solve_jobs: usize,
    /// Serve `GET /metrics` (Prometheus exposition) on this address
    /// (e.g. `127.0.0.1:9464`; port 0 picks a free one). `None` disables
    /// the exporter.
    pub metrics_addr: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            cache_dir: None,
            paranoid: false,
            workers: 2,
            queue_depth: 16,
            solve_jobs: 2,
            metrics_addr: None,
        }
    }
}

/// A running daemon: engine + supervisor + (optional) persistent cache,
/// with a per-daemon metrics registry (never the process global, so
/// in-process daemons — tests, embedders — do not cross-contaminate).
pub struct Daemon {
    engine: Arc<Engine>,
    supervisor: Supervisor<JobResponse>,
    telemetry: Telemetry,
    recovery: RecoveryReport,
    metrics: Arc<ServiceMetrics>,
    registry: Arc<MetricsRegistry>,
    metrics_server: Option<MetricsServer>,
    /// Where drained counter totals persist (`<cache_dir>/metrics.json`).
    lifetime_path: Option<PathBuf>,
    /// Totals carried over from prior runs, merged back in at drain.
    lifetime_prior: Vec<(String, String, u64)>,
}

/// One final reply owed to the client.
enum Pending {
    /// Already-final response line.
    Ready(String),
    /// A response rendered only when its turn to be written comes — a
    /// `metrics` snapshot resolved here observes every job answered
    /// before it, not the moment its request was parsed — and on the
    /// writer thread, so a job's worker does not serialize its verdict.
    Lazy(Box<dyn FnOnce() -> String + Send>),
}

/// What a connection's writer receives on its one channel.
enum Out {
    /// A progress frame, written as soon as it arrives.
    Frame(String),
    /// Request `n`'s final reply, written once finals `0..n` are out.
    Final(u64, Pending),
}

impl From<String> for Out {
    fn from(frame: String) -> Self {
        Self::Frame(frame)
    }
}

impl Daemon {
    /// Opens the cache (running its crash-recovery scan), starts the
    /// worker pool, and installs the termination latch.
    pub fn start(config: DaemonConfig, telemetry: Telemetry) -> io::Result<Self> {
        signal::install_termination_handler();
        // A fresh daemon has not been signalled yet: clearing the latch
        // here makes restart-in-the-same-process (tests, embedders) match
        // the one-daemon-per-process production shape.
        signal::reset_termination();
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = ServiceMetrics::register(registry.clone());
        // Every telemetry handle derived from this one also folds solver
        // counters and rung verdicts into the registry.
        let telemetry =
            telemetry.with_extra_sink(Arc::new(MetricsBridgeSink::new(registry.clone())));
        let mut recovery = RecoveryReport::default();
        let mut engine = Engine::new(config.solve_jobs).with_telemetry(telemetry.clone());
        let mut lifetime_path = None;
        if let Some(dir) = &config.cache_dir {
            let (cache, report) = ResultCache::open(dir)?;
            recovery = report;
            telemetry.point(
                "daemon.recovery",
                vec![
                    kv("valid", recovery.valid),
                    kv("quarantined", recovery.quarantined),
                    kv("temps_removed", recovery.temps_removed),
                ],
            );
            engine = engine.with_cache(
                cache
                    .with_metrics(metrics.clone())
                    .with_paranoid(config.paranoid),
            );
            lifetime_path = Some(dir.join(LIFETIME_FILE));
        }
        let lifetime_prior = match &lifetime_path {
            Some(path) => load_lifetime_gauges(&registry, path),
            None => Vec::new(),
        };
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: config.workers,
            queue_depth: config.queue_depth,
            metrics: metrics.clone(),
        });
        let metrics_server = match &config.metrics_addr {
            Some(addr) => Some(MetricsServer::spawn(addr, registry.clone())?),
            None => None,
        };
        Ok(Self {
            engine: Arc::new(engine),
            supervisor,
            telemetry,
            recovery,
            metrics,
            registry,
            metrics_server,
            lifetime_path,
            lifetime_prior,
        })
    }

    /// Where `GET /metrics` answers, when the exporter is enabled
    /// (resolves a requested port 0).
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(MetricsServer::local_addr)
    }

    /// What the startup recovery scan found (all zeros without a cache).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Handles request line `n`: cheap ops answer inline (they must stay
    /// responsive under overload), solve ops go through the supervisor.
    /// Returns the inline reply, or `None` when a worker will send the
    /// final — and, for subscribed jobs, the progress frames before it —
    /// on `conn`, the connection's channel.
    fn admit(&self, line: &str, n: u64, conn: &Sender<Out>) -> Option<Pending> {
        let request = match JobRequest::parse_keeping_id(line) {
            Ok(r) => r,
            Err((id, e)) => return Some(Pending::Ready(JobResponse::error(&id, e).to_line())),
        };
        let id = request.id.clone();
        match &request.op {
            Op::Ping | Op::Stats => Some(Pending::Ready(
                match request.op {
                    Op::Stats => self.engine.stats_response(&id),
                    _ => JobResponse {
                        proto_version: Some(PROTO_VERSION),
                        ..JobResponse::new(&id, "ok")
                    },
                }
                .to_line(),
            )),
            // Answered with a hand-built line, not through `JobResponse`:
            // the response's derived serializer emits every field, so
            // growing it would change the bytes of *all* responses.
            // Lazy, so a pipelined `metrics` op snapshots *after* the
            // jobs submitted ahead of it have answered.
            Op::Metrics => {
                let registry = self.registry.clone();
                Some(Pending::Lazy(Box::new(move || {
                    metrics_line(&registry, &id)
                })))
            }
            Op::Shutdown => {
                signal::request_termination();
                Some(Pending::Ready(JobResponse::new(&id, "ok").to_line()))
            }
            Op::Minimize { .. } | Op::Synthesize { .. } | Op::Faultsim { .. } => {
                self.submit(request, n, conn)
            }
        }
    }

    /// Queues a solve op. A minimize's `deadline_secs` runs from here, its
    /// admission: the job solves only for what its queue wait left of it,
    /// and one that waited past it degrades without launching a rung.
    fn submit(&self, request: JobRequest, n: u64, conn: &Sender<Out>) -> Option<Pending> {
        let id = request.id.clone();
        let engine = self.engine.clone();
        let progress = request.subscribe.then(|| -> Arc<dyn TelemetrySink> {
            let emitted = self.metrics.progress_frames.clone();
            Arc::new(progress::channel_sink(&id, conn.clone(), emitted))
        });
        let admitted = Instant::now();
        let started = Arc::new(OnceLock::new());
        let reply = reply_to(conn, n, &id, request.op.name(), &self.metrics, &started);
        let job = {
            let id = id.clone();
            let mut op = request.op;
            move || {
                let waited = started.get_or_init(Instant::now).duration_since(admitted);
                if let Op::Minimize { request, .. } = &mut op {
                    request.deadline = request.deadline.map(|d| d.saturating_sub(waited));
                }
                engine.run_with(&id, &op, progress)
            }
        };
        match self.supervisor.submit(job, reply) {
            Submission::Queued => None,
            Submission::Overloaded => {
                self.telemetry
                    .point("daemon.shed", vec![kv("id", id.as_str())]);
                Some(Pending::Ready(JobResponse::overloaded(&id).to_line()))
            }
            Submission::ShuttingDown => Some(Pending::Ready(
                JobResponse::new(&id, "shutting_down").to_line(),
            )),
        }
    }

    /// Serves one connection: reads request lines from `reader` until EOF
    /// or termination, writes one response line per request to `writer`
    /// in submission order. Subscribed jobs additionally get `progress`
    /// frames interleaved ahead of their finals.
    pub fn serve<R, W>(&self, mut reader: R, writer: W) -> io::Result<()>
    where
        R: BufRead,
        W: Write + Send + 'static,
    {
        let (tx, rx) = channel::<Out>();
        let writer_thread = std::thread::Builder::new()
            .name("mmsynthd-writer".into())
            .spawn(move || write_loop(rx, writer))
            .expect("spawn writer");
        let mut n = 0;
        let mut buf = Vec::new();
        loop {
            let pending = match read_request_line(&mut reader, &mut buf) {
                Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
                Ok(Some(Ok(line))) => self.admit(line, n, &tx),
                Ok(Some(Err(reason))) => {
                    Some(Pending::Ready(JobResponse::error("", reason).to_line()))
                }
                // EOF, or a torn read (client died mid-line): not a daemon
                // failure.
                Ok(None) | Err(_) => break,
            };
            if let Some(pending) = pending {
                if tx.send(Out::Final(n, pending)).is_err() {
                    break; // writer gone (client hung up)
                }
            }
            n += 1;
            if signal::termination_requested() {
                break;
            }
        }
        // The writer ends once this sender and every job's are gone.
        drop(tx);
        writer_thread.join().expect("writer thread panicked")
    }

    /// Serves stdin/stdout until EOF or termination, then drains.
    pub fn serve_stdio(self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.serve(stdin.lock(), stdout)?;
        self.drain()
    }

    /// Accepts connections on a Unix socket until termination, then
    /// drains. Each connection is served on its own thread.
    pub fn serve_unix(self, path: &Path) -> io::Result<()> {
        // A stale socket file from a killed predecessor must not block
        // restart.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let daemon = self.accept_until_termination(|| {
            let (stream, _) = listener.accept()?;
            stream.set_nonblocking(false)?;
            Ok((stream.try_clone()?, stream))
        })?;
        let _ = std::fs::remove_file(path);
        daemon.drain()
    }

    /// Accepts TCP connections until termination, then drains.
    pub fn serve_tcp(self, addr: &str) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        self.accept_until_termination(|| {
            let (stream, _) = listener.accept()?;
            stream.set_nonblocking(false)?;
            Ok((stream.try_clone()?, stream))
        })?
        .drain()
    }

    /// Polls a nonblocking listener's `accept` — a connection's read and
    /// write halves — until termination, serving each connection on its
    /// own thread, then joins them and hands the daemon back to drain.
    /// Threads of closed connections are joined on every pass, so a
    /// long-lived daemon holds one thread per open connection only.
    fn accept_until_termination<S>(
        self,
        mut accept: impl FnMut() -> io::Result<(S, S)>,
    ) -> io::Result<Self>
    where
        S: Read + Write + Send + 'static,
    {
        let daemon = Arc::new(self);
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !signal::termination_requested() {
            join_finished(&mut conns);
            match accept() {
                Ok((read_half, write_half)) => {
                    let daemon = daemon.clone();
                    conns.push(std::thread::spawn(move || {
                        let _ = daemon.serve(BufReader::new(read_half), write_half);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
        Ok(Arc::try_unwrap(daemon).unwrap_or_else(|_| panic!("connection threads joined")))
    }

    /// The drain sequence: finish accepted jobs, flush the cache index,
    /// persist lifetime counter totals, stop the exporter, checkpoint
    /// telemetry.
    pub fn drain(self) -> io::Result<()> {
        let Self {
            engine,
            supervisor,
            telemetry,
            registry,
            metrics_server,
            lifetime_path,
            lifetime_prior,
            ..
        } = self;
        supervisor.shutdown();
        if let Some(cache) = &engine.cache {
            cache.flush_index()?;
        }
        if let Some(path) = &lifetime_path {
            persist_lifetime_totals(&registry, &lifetime_prior, path)?;
        }
        if let Some(server) = metrics_server {
            server.shutdown();
        }
        telemetry.point("daemon.drained", vec![]);
        telemetry.flush();
        Ok(())
    }
}

/// The `metrics` op's response line: the registry as structured JSON
/// plus the same Prometheus text the HTTP exporter serves.
fn metrics_line(registry: &MetricsRegistry, id: &str) -> String {
    let doc = Value::Object(vec![
        ("id".to_string(), Value::Str(id.to_string())),
        ("status".to_string(), Value::Str("ok".to_string())),
        ("metrics".to_string(), registry.to_value()),
        (
            "metrics_text".to_string(),
            Value::Str(registry.render_prometheus()),
        ),
    ]);
    serde_json::to_string(&doc).expect("metrics line serializes")
}

/// Loads the persisted counter totals of prior runs, exposing each as a
/// `<family>_lifetime` gauge, and returns them for re-merging at drain.
/// A missing or unreadable snapshot just starts lifetime totals fresh.
fn load_lifetime_gauges(registry: &MetricsRegistry, path: &Path) -> Vec<(String, String, u64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    let Some(Value::Array(series)) = doc.get("counters") else {
        return Vec::new();
    };
    let mut prior = Vec::new();
    for entry in series {
        let (Some(Value::Str(name)), Some(Value::Str(labels)), Some(Value::UInt(total))) =
            (entry.get("name"), entry.get("labels"), entry.get("total"))
        else {
            continue;
        };
        registry
            .gauge_with_block(
                &format!("{name}_lifetime"),
                labels,
                &format!("Total of {name} across all prior daemon runs, persisted at drain."),
            )
            .set(i64::try_from(*total).unwrap_or(i64::MAX));
        prior.push((name.clone(), labels.clone(), *total));
    }
    prior
}

/// Writes prior + this run's counter totals through [`atomic_write`], so
/// a crash mid-drain leaves the old snapshot intact and at most a temp
/// file the next recovery scan sweeps.
fn persist_lifetime_totals(
    registry: &MetricsRegistry,
    prior: &[(String, String, u64)],
    path: &Path,
) -> io::Result<()> {
    let mut totals = registry.counter_totals();
    for (name, labels, carried) in prior {
        match totals.iter_mut().find(|(n, l, _)| n == name && l == labels) {
            Some((_, _, total)) => *total += carried,
            None => totals.push((name.clone(), labels.clone(), *carried)),
        }
    }
    totals.sort();
    let series: Vec<Value> = totals
        .into_iter()
        .map(|(name, labels, total)| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(name)),
                ("labels".to_string(), Value::Str(labels)),
                ("total".to_string(), Value::UInt(total)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("version".to_string(), Value::UInt(1)),
        ("counters".to_string(), Value::Array(series)),
    ]);
    atomic_write(path, serde_json::to_string(&doc).expect("totals serialize"))
}

/// The supervisor reply for request `n`, job `id` of kind `op`. Every
/// verdict (an answer, a panic or a job lost with its worker) passes here
/// exactly once, so this is where it is counted in `mmsynth_jobs_total`,
/// with the time since its worker `started` the job. The verdict is then
/// sent on the connection's channel, to be rendered as the final line
/// when its turn comes.
fn reply_to(
    conn: &Sender<Out>,
    n: u64,
    id: &str,
    op: &'static str,
    metrics: &Arc<ServiceMetrics>,
    started: &Arc<OnceLock<Instant>>,
) -> impl FnOnce(JobVerdict<JobResponse>) + Send + 'static {
    let (conn, id) = (conn.clone(), id.to_string());
    let (metrics, started) = (metrics.clone(), started.clone());
    move |verdict| {
        let response = match verdict {
            JobVerdict::Done(resp) => resp,
            JobVerdict::Degraded { reason } => JobResponse {
                degraded_reason: Some(reason),
                ..JobResponse::new(&id, "degraded")
            },
            JobVerdict::Dropped => JobResponse::error(&id, "job was dropped during shutdown"),
        };
        let ran = started.get().map_or(Duration::ZERO, Instant::elapsed);
        metrics.observe_job(op, &response.status, ran.as_micros() as u64);
        let render = move || response.to_line();
        // A gone writer means the client hung up; the job still ran.
        let _ = conn.send(Out::Final(n, Pending::Lazy(Box::new(render))));
    }
}

/// Writes a connection's output until its channel closes: frames as they
/// arrive, finals in submission order, so every accepted request gets
/// exactly one final line. A job's worker sends its frames before its
/// final on this same channel, so each frame precedes its own job's
/// final; a final that arrives before an earlier one waits in `early`.
fn write_loop<W: Write>(rx: Receiver<Out>, mut writer: W) -> io::Result<()> {
    let mut early = HashMap::new();
    let mut next = 0;
    for out in rx {
        match out {
            Out::Frame(frame) => writeln!(writer, "{frame}")?,
            Out::Final(n, pending) => {
                early.insert(n, pending);
                while let Some(pending) = early.remove(&next) {
                    let line = match pending {
                        Pending::Ready(line) => line,
                        Pending::Lazy(render) => render(),
                    };
                    writeln!(writer, "{line}")?;
                    next += 1;
                }
            }
        }
        writer.flush()?;
    }
    Ok(())
}

/// Joins and removes the threads in `conns` that have ended.
fn join_finished(conns: &mut Vec<JoinHandle<()>>) {
    for conn in conns.extract_if(.., |c| c.is_finished()) {
        let _ = conn.join();
    }
}

/// Reads the next request line into `buf`, without its line ending.
/// Returns `None` at EOF, and `Some(Err(reason))` for a line the daemon
/// will not parse: one longer than [`MAX_LINE_BYTES`], whose rest is read
/// and discarded, or one that is not UTF-8.
fn read_request_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<Result<&'a str, String>>> {
    buf.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if reader.take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|e| format!("request line is not UTF-8: {e}")),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mm_daemon_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A writer whose bytes stay readable by the test.
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().write(data)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn run_lines(config: DaemonConfig, input: impl Into<Vec<u8>>) -> Vec<String> {
        // The termination latch is process-global, so tests touching the
        // daemon serialize against the signal test.
        let _guard = signal::test_guard();
        let daemon = Daemon::start(config, Telemetry::disabled()).unwrap();
        let out: Vec<u8> = Vec::new();
        let buf = std::sync::Arc::new(std::sync::Mutex::new(out));
        daemon
            .serve(io::Cursor::new(input.into()), Shared(buf.clone()))
            .unwrap();
        daemon.drain().unwrap();
        let bytes = buf.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn ping_and_stats_round_trip_over_stdio() {
        let dir = temp_dir("ping");
        let config = DaemonConfig {
            cache_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        };
        let input = r#"{"op":"ping","id":"p1"}
{"op":"stats","id":"s1"}
"#;
        let lines = run_lines(config, input);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""id":"p1""#), "line: {}", lines[0]);
        assert!(lines[0].contains(r#""status":"ok""#));
        assert!(lines[1].contains(r#""id":"s1""#));
        assert!(
            lines[1].contains(r#""cache_entries":0"#),
            "line: {}",
            lines[1]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minimize_misses_then_hits_in_submission_order() {
        let dir = temp_dir("roundtrip");
        let config = DaemonConfig {
            cache_dir: Some(dir.clone()),
            workers: 1,
            ..DaemonConfig::default()
        };
        // Same function twice: second request must be a cache hit and the
        // replies must come back in submission order.
        let input = r#"{"op":"minimize","id":"m1","tables":["0110"],"max_rops":3,"max_steps":3}
{"op":"minimize","id":"m2","tables":["0110"],"max_rops":3,"max_steps":3}
"#;
        let lines = run_lines(config, input);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""id":"m1""#));
        assert!(lines[0].contains(r#""cache":"miss""#), "line: {}", lines[0]);
        assert!(lines[1].contains(r#""id":"m2""#));
        assert!(lines[1].contains(r#""cache":"hit""#), "line: {}", lines[1]);
        assert!(lines[1].contains(r#""solver_calls":0"#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_get_error_responses_and_do_not_kill_the_loop() {
        let lines = run_lines(
            DaemonConfig::default(),
            "this is not json\n{\"op\":\"ping\",\"id\":\"after\"}\n",
        );
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains(r#""status":"error""#),
            "line: {}",
            lines[0]
        );
        assert!(lines[1].contains(r#""id":"after""#));
    }

    #[test]
    fn a_non_utf8_line_gets_an_error_and_the_connection_goes_on() {
        let lines = run_lines(
            DaemonConfig::default(),
            &b"\xff\n{\"op\":\"ping\",\"id\":\"after\"}\n"[..],
        );
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains(r#""status":"error""#), "{}", lines[0]);
        assert!(lines[0].contains("not UTF-8"), "{}", lines[0]);
        assert!(lines[1].contains(r#""id":"after""#), "{}", lines[1]);
        assert!(lines[1].contains(r#""status":"ok""#), "{}", lines[1]);
    }

    #[test]
    fn an_oversized_line_gets_an_error_and_the_connection_goes_on() {
        // One byte over the cap is refused; a ping padded to exactly the
        // cap is still read and answered.
        let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
        input.push(b'\n');
        let mut at_cap = br#"{"op":"ping","id":"at-cap"}"#.to_vec();
        at_cap.resize(MAX_LINE_BYTES, b' ');
        input.extend(at_cap);
        input.extend(b"\n{\"op\":\"ping\",\"id\":\"after\"}\n");
        let lines = run_lines(DaemonConfig::default(), input);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains(r#""status":"error""#), "{}", lines[0]);
        assert!(
            lines[0].contains(&format!("exceeds {MAX_LINE_BYTES} bytes")),
            "{}",
            lines[0]
        );
        for (line, id) in lines[1..]
            .iter()
            .zip([r#""id":"at-cap""#, r#""id":"after""#])
        {
            assert!(line.contains(id), "{line}");
            assert!(line.contains(r#""status":"ok""#), "{line}");
        }
    }

    #[test]
    fn finished_connection_threads_are_joined() {
        // The accept loop's bookkeeping across many short connections:
        // each has ended by the next pass, so at most one is ever held.
        let mut conns = Vec::new();
        for _ in 0..64 {
            join_finished(&mut conns);
            assert!(conns.len() <= 1, "{} threads held", conns.len());
            let conn = std::thread::spawn(|| {});
            while !conn.is_finished() {
                std::thread::yield_now();
            }
            conns.push(conn);
        }
        join_finished(&mut conns);
        assert!(conns.is_empty());
    }

    #[test]
    fn unparsable_requests_echo_their_readable_id() {
        let lines = run_lines(
            DaemonConfig::default(),
            concat!(
                r#"{"op":"faultsim","id":"f","tables":["0110"],"trials":"999"}"#,
                "\n",
                r#"{"op":"warp","id":"w"}"#,
                "\n",
                r#"{"op":"ping","id":7}"#,
                "\n",
            ),
        );
        assert_eq!(lines.len(), 3);
        for (line, id) in lines
            .iter()
            .zip([r#""id":"f""#, r#""id":"w""#, r#""id":"""#])
        {
            assert!(line.contains(id), "line: {line}");
            assert!(line.contains(r#""status":"error""#), "line: {line}");
        }
        assert!(
            lines[2].contains(r#"\"id\" must be a string"#),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn metrics_op_reports_counters_and_lifetime_survives_restart() {
        let dir = temp_dir("metrics_op");
        let config = DaemonConfig {
            cache_dir: Some(dir.clone()),
            workers: 1,
            ..DaemonConfig::default()
        };
        let input = r#"{"op":"minimize","id":"m1","tables":["0110"],"max_rops":3,"max_steps":3}
{"op":"metrics","id":"x1"}
"#;
        let lines = run_lines(config.clone(), input);
        assert_eq!(lines.len(), 2);
        let snapshot = &lines[1];
        assert!(snapshot.contains(r#""id":"x1""#), "line: {snapshot}");
        assert!(snapshot.contains(r#""metrics_text":"#), "line: {snapshot}");
        assert!(
            snapshot.contains("mmsynth_admissions_total 1"),
            "line: {snapshot}"
        );
        assert!(
            snapshot.contains("mmsynth_cache_misses_total 1"),
            "line: {snapshot}"
        );
        // Solver counters reach the registry through the bridge sink.
        assert!(snapshot.contains("mmsynth_rungs_total"), "line: {snapshot}");

        // Restart over the same directory: the drained totals come back
        // as `_lifetime` gauges while the live counters start at zero.
        let second = run_lines(config, "{\"op\":\"metrics\",\"id\":\"x2\"}\n");
        assert_eq!(second.len(), 1);
        assert!(
            second[0].contains("mmsynth_admissions_total_lifetime 1"),
            "line: {}",
            second[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subscribed_jobs_stream_progress_frames_before_their_final() {
        let dir = temp_dir("subscribe");
        // One worker, no portfolio: rung spawn timing (and with it
        // `solver_calls`) is deterministic, so finals compare bytewise.
        let config = DaemonConfig {
            cache_dir: Some(dir.clone()),
            workers: 1,
            solve_jobs: 1,
            ..DaemonConfig::default()
        };
        let input = r#"{"op":"minimize","id":"s1","tables":["0110"],"max_rops":3,"max_steps":3,"subscribe":true}
"#;
        let lines = run_lines(config.clone(), input);
        let finals: Vec<&String> = lines
            .iter()
            .filter(|l| !l.contains(r#""frame":"progress""#))
            .collect();
        assert_eq!(finals.len(), 1, "lines: {lines:#?}");
        assert!(finals[0].contains(r#""id":"s1""#));
        let rung_frames = lines
            .iter()
            .filter(|l| l.contains(r#""frame":"progress""#) && l.contains(r#""event":"rung""#))
            .count();
        assert!(rung_frames >= 1, "lines: {lines:#?}");
        // Every frame precedes the final.
        let final_pos = lines.iter().position(|l| *l == *finals[0]).unwrap();
        assert_eq!(final_pos, lines.len() - 1, "lines: {lines:#?}");

        // The identical request without `subscribe` emits no frames —
        // and its final is byte-identical to pre-streaming output.
        let dir2 = temp_dir("subscribe_off");
        let quiet = run_lines(
            DaemonConfig {
                cache_dir: Some(dir2.clone()),
                workers: 1,
                solve_jobs: 1,
                ..DaemonConfig::default()
            },
            r#"{"op":"minimize","id":"s1","tables":["0110"],"max_rops":3,"max_steps":3}
"#,
        );
        assert_eq!(quiet.len(), 1, "lines: {quiet:#?}");
        assert_eq!(quiet[0], *finals[0], "subscribe must not change finals");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn restart_reuses_the_cache_directory() {
        let dir = temp_dir("restart");
        let config = DaemonConfig {
            cache_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        };
        let input = "{\"op\":\"minimize\",\"id\":\"a\",\"tables\":[\"0001\"],\"max_rops\":3,\"max_steps\":3}\n";
        let first = run_lines(config.clone(), input);
        assert!(first[0].contains(r#""cache":"miss""#));
        // New daemon, same directory: the entry written by the first run
        // must survive the recovery scan and serve a hit.
        let second = run_lines(config, input);
        assert!(
            second[0].contains(r#""cache":"hit""#),
            "line: {}",
            second[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_orders_finals_and_writes_frames_as_they_arrive() {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let lines_out = {
            let buf = buf.clone();
            move || buf.lock().unwrap().iter().filter(|b| **b == b'\n').count()
        };
        let (tx, rx) = channel();
        for message in [
            // Job 1 streams and resolves before job 0: its frame goes out
            // at once, its final waits for job 0's.
            Out::Frame("frame 1".into()),
            Out::Final(1, Pending::Ready("final 1".into())),
            Out::Frame("frame 0".into()),
            // A metrics-style final renders only when its turn comes.
            Out::Final(
                2,
                Pending::Lazy(Box::new(move || format!("final 2 after {}", lines_out()))),
            ),
            Out::Frame("frame 3".into()),
            Out::Final(0, Pending::Ready("final 0".into())),
            Out::Final(3, Pending::Ready("final 3".into())),
        ] {
            tx.send(message).unwrap();
        }
        drop(tx);
        write_loop(rx, Shared(buf.clone())).unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "frame 1\nframe 0\nframe 3\nfinal 0\nfinal 1\nfinal 2 after 5\nfinal 3\n"
        );
    }

    #[test]
    fn a_queued_jobs_deadline_runs_from_its_admission() {
        // One worker: `late` waits in the queue for all of `slow`'s 2 s,
        // so it may solve for only 1 s more. GF(2²) multiplication's
        // ladder outlasts both deadlines. Measured from when `late`
        // started instead, its final would come 5 s after admission.
        let gf22 = mm_boolfn::generators::gf22_multiplier();
        let tables: Vec<String> = gf22.outputs().iter().map(|t| t.to_bitstring()).collect();
        let line = |id: &str, secs: f64| {
            format!(
                r#"{{"op":"minimize","id":"{id}","tables":{tables:?},"max_rops":4,"max_steps":3,"deadline_secs":{secs}}}"#
            )
        };
        let config = DaemonConfig {
            workers: 1,
            solve_jobs: 1,
            ..DaemonConfig::default()
        };
        let admitted = Instant::now();
        let lines = run_lines(
            config,
            format!("{}\n{}\n", line("slow", 2.0), line("late", 3.0)),
        );
        let elapsed = admitted.elapsed();
        assert_eq!(lines.len(), 2, "{lines:?}");
        for line in &lines {
            assert!(
                line.contains(r#""degraded_reason":"deadline expired""#),
                "{line}"
            );
        }
        assert!(
            elapsed < Duration::from_secs(4),
            "`late` answered {elapsed:?} after admission, past its 3 s deadline plus 1 s of slack"
        );
    }

    #[test]
    fn every_verdict_is_counted_and_answered_once() {
        // An answer, a job its worker lost and a panic each pass through
        // `reply_to` once: one final line and one `mmsynth_jobs_total`
        // sample apiece, and a lost job's final does not stall the next.
        let metrics = ServiceMetrics::detached();
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            queue_depth: 4,
            metrics: metrics.clone(),
        });
        let (tx, rx) = channel();
        let reply = |n, id| reply_to(&tx, n, id, "minimize", &metrics, &Arc::default());
        let done = supervisor.submit(|| JobResponse::new("done", "ok"), reply(0, "done"));
        reply(1, "lost")(JobVerdict::Dropped);
        let boom = supervisor.submit(
            || -> JobResponse { panic!("it explodes") },
            reply(2, "boom"),
        );
        assert!(matches!(
            (done, boom),
            (Submission::Queued, Submission::Queued)
        ));
        supervisor.shutdown();
        drop(tx);
        let buf = Arc::new(std::sync::Mutex::new(Vec::new()));
        write_loop(rx, Shared(buf.clone())).unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[1].contains(r#""id":"lost""#), "{text}");
        assert!(
            lines[1].contains("job was dropped during shutdown"),
            "{text}"
        );
        assert!(lines[2].contains("worker panicked: it explodes"), "{text}");
        let scrape = metrics.registry().render_prometheus();
        for status in ["ok", "error", "degraded"] {
            let sample = format!(r#"mmsynth_jobs_total{{op="minimize",status="{status}"}} 1"#);
            assert!(scrape.contains(&sample), "{sample} in {scrape}");
        }
        assert!(scrape.contains(r#"mmsynth_job_duration_us_count{op="minimize"} 3"#));
        assert_eq!((metrics.admissions.get(), metrics.panics.get()), (2, 1));
    }
}
