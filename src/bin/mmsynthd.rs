//! `mmsynthd` — the crash-safe synthesis daemon.
//!
//! Accepts JSON-lines jobs (`minimize`, `synth`, `faultsim`, plus
//! `ping`/`stats`/`shutdown`) over stdin/stdout by default, or over a
//! Unix/TCP socket with `--socket`/`--tcp`. Results for deterministic
//! minimize requests are cached persistently under `--cache-dir`, keyed
//! by the NPN-canonical form of the requested function, so equivalent
//! requests — across restarts and across clients — are served without
//! re-solving.
//!
//! ```text
//! echo '{"op":"minimize","id":"1","tables":["0110"]}' \
//!   | mmsynthd --cache-dir /var/cache/mmsynth
//! ```
//!
//! SIGTERM (or the `shutdown` op, or stdin EOF) drains: queued jobs
//! finish, the cache index is flushed, telemetry is checkpointed.

use std::path::PathBuf;
use std::process::ExitCode;

use memristive_mm::service::{Daemon, DaemonConfig};

mod cli;
use cli::{Args, TelemetrySetup};

/// Every flag `mmsynthd` reads.
const FLAGS: &str = "help cache-dir paranoid workers queue-depth jobs socket tcp metrics-addr \
                     trace-out report-json";

const USAGE: &str = "\
mmsynthd — synthesis daemon (JSON-lines protocol)

usage: mmsynthd [options]

  --cache-dir DIR    persistent NPN result cache (recommended)
  --paranoid         re-execute cached circuits on the device model
  --workers N        concurrent jobs (default 2)
  --queue-depth N    queued jobs before shedding `overloaded` (default 16)
  --jobs N           portfolio width per solve (default 2)
  --socket PATH      serve a Unix socket instead of stdio
  --tcp ADDR:PORT    serve TCP instead of stdio
  --metrics-addr A:P serve Prometheus text on GET http://A:P/metrics
  --trace-out FILE   stream telemetry events as JSONL
  --report-json FILE aggregated run report on shutdown
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv);
    if let Some(word) = args.bare.first() {
        return Err(format!("unexpected argument {word:?} (flags only)"));
    }
    args.check_flags(&[FLAGS], "mmsynthd")?;
    if args.has("help") {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let tel = TelemetrySetup::from_args(&args, "mmsynthd")?;

    let config = DaemonConfig {
        cache_dir: args.get("cache-dir").map(PathBuf::from),
        paranoid: args.has("paranoid"),
        workers: args.get_usize("workers", 2)?.max(1),
        queue_depth: args.get_usize("queue-depth", 16)?.max(1),
        solve_jobs: args.get_usize("jobs", 2)?.max(1),
        metrics_addr: args.get("metrics-addr").map(str::to_string),
    };
    let cache_dir = config.cache_dir.clone();
    let daemon = Daemon::start(config, tel.telemetry.clone())
        .map_err(|e| format!("starting daemon: {e}"))?;
    if let Some(addr) = daemon.metrics_local_addr() {
        eprintln!("mmsynthd: metrics on http://{addr}/metrics");
    }
    let recovery = daemon.recovery().clone();
    if let Some(dir) = &cache_dir {
        eprintln!(
            "mmsynthd: cache {}: {} valid, {} quarantined, {} temp files removed",
            dir.display(),
            recovery.valid,
            recovery.quarantined,
            recovery.temps_removed
        );
    }

    let served = if let Some(path) = args.get("socket") {
        eprintln!("mmsynthd: serving on unix socket {path}");
        daemon.serve_unix(std::path::Path::new(path))
    } else if let Some(addr) = args.get("tcp") {
        eprintln!("mmsynthd: serving on tcp {addr}");
        daemon.serve_tcp(addr)
    } else {
        eprintln!("mmsynthd: serving on stdio");
        daemon.serve_stdio()
    };
    served.map_err(|e| format!("serve loop: {e}"))?;

    tel.finish()?;
    eprintln!("mmsynthd: drained");
    Ok(ExitCode::SUCCESS)
}
