//! End-to-end telemetry: a parallel minimization traced to JSONL must
//! reconstruct into exactly the report the in-memory event stream yields,
//! its per-rung outcomes must match the returned verdict, and the `mmsynth`
//! binary's `--trace-out`/`--report-json`/`--stats-json` flags must produce
//! parseable, schema-stamped artifacts.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use memristive_mm::boolfn::generators;
use memristive_mm::synth::optimize;
use memristive_mm::synth::{EncodeOptions, Synthesizer};
use memristive_mm::telemetry::{
    attr, EventKind, JsonlSink, MemorySink, MultiSink, RunReport, Telemetry, TelemetrySink,
    REPORT_SCHEMA_VERSION, TRACE_SCHEMA_VERSION,
};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmsynth_{}_{name}", std::process::id()))
}

#[test]
fn traced_minimize_roundtrips_and_matches_verdict() {
    let path = temp_path("e2e_trace.jsonl");
    let memory = Arc::new(MemorySink::new());
    let jsonl = Arc::new(JsonlSink::create(&path).expect("temp trace file"));
    let telemetry = Telemetry::new(Arc::new(MultiSink::new(vec![
        memory.clone() as Arc<dyn TelemetrySink>,
        jsonl as Arc<dyn TelemetrySink>,
    ])));
    telemetry.meta_event("minimize");
    let synth = Synthesizer::new().with_telemetry(telemetry.clone());
    let f = generators::xor_gate(2);
    let report = optimize::minimize_r_only(&synth, &f, 5, &EncodeOptions::recommended(), 8)
        .expect("xor specs encode");
    telemetry.flush();

    // The trace stamp is the first event emitted and carries the schema
    // version (MemorySink preserves emission order).
    let events = memory.snapshot();
    match &events.first().expect("events recorded").kind {
        EventKind::Point { name, attrs } => {
            assert_eq!(name, "meta");
            assert_eq!(
                attr(attrs, "trace_schema_version").and_then(|v| v.as_u64()),
                Some(TRACE_SCHEMA_VERSION)
            );
        }
        other => panic!("first event is not the meta stamp: {other:?}"),
    }

    // JSONL file and in-memory stream aggregate to the identical report —
    // the sharded writer loses inter-thread line order, the global sequence
    // numbers recover it.
    let text = std::fs::read_to_string(&path).expect("trace written");
    let from_file = RunReport::from_jsonl(&text).expect("every trace line parses");
    let from_memory = RunReport::from_events(&events);
    assert_eq!(
        from_file, from_memory,
        "JSONL and in-memory aggregation diverge"
    );
    assert_eq!(from_file.schema_version, REPORT_SCHEMA_VERSION);

    // Acceptance bar: the per-rung outcomes in the trace match the returned
    // verdict exactly — SAT at the optimum, no SAT below it, and the proof
    // anchored at the rung directly below the winner (rungs further down may
    // be lattice-closed by that UNSAT answer and cancel as "unknown").
    let best = report.best.expect("XOR2 is R-realizable");
    assert!(report.proven_optimal);
    let winner = u64::try_from(best.metrics().n_rops).expect("small");
    // Rungs the winner's SAT answer cancelled mid-run: the solver returns
    // Unknown with `cancelled: true` on the rung event (DESIGN §6).
    let cancelled_mid_run = |n_rops: u64| {
        events.iter().any(|e| match &e.kind {
            EventKind::Point { name, attrs } => {
                name == "rung"
                    && attr(attrs, "n_rops").and_then(|v| v.as_u64()) == Some(n_rops)
                    && attr(attrs, "cancelled").and_then(|v| v.as_bool()) == Some(true)
            }
            _ => false,
        })
    };
    for rung in &from_file.rungs {
        match rung.n_rops.cmp(&winner) {
            std::cmp::Ordering::Less => assert!(
                rung.outcome == "unsat" || rung.outcome == "skipped" || rung.outcome == "unknown",
                "no rung below the optimum may be SAT, got {rung:?}"
            ),
            std::cmp::Ordering::Equal => {
                assert_eq!(rung.outcome, "sat", "the optimum rung is SAT")
            }
            std::cmp::Ordering::Greater => assert!(
                rung.outcome == "sat"
                    || rung.outcome == "skipped"
                    || (rung.outcome == "unknown" && cancelled_mid_run(rung.n_rops)),
                "above the optimum every rung is SAT or cancelled, got {rung:?}"
            ),
        }
    }
    assert!(
        from_file
            .rungs
            .iter()
            .any(|r| r.n_rops == winner && r.outcome == "sat"),
        "the winning rung must appear in the trace"
    );
    assert!(
        from_file
            .rungs
            .iter()
            .any(|r| r.n_rops == winner - 1 && r.outcome == "unsat"),
        "proven optimality must be anchored by an UNSAT answer at winner - 1"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn mmsynth_binary_writes_trace_report_and_stats() {
    let trace = temp_path("cli_trace.jsonl");
    let report = temp_path("cli_report.json");
    let stats = temp_path("cli_stats.json");
    let output = Command::new(env!("CARGO_BIN_EXE_mmsynth"))
        .args([
            "minimize",
            "--function",
            "xor2",
            "--r-only",
            "--max-rops",
            "4",
            "--jobs",
            "8",
        ])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--report-json")
        .arg(&report)
        .arg("--stats-json")
        .arg(&stats)
        .output()
        .expect("mmsynth runs");
    assert!(
        output.status.success(),
        "mmsynth failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The trace parses line by line and aggregates into the same report
    // the binary wrote.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let from_trace = RunReport::from_jsonl(&text).expect("trace parses");
    let report_text = std::fs::read_to_string(&report).expect("report written");
    let written: RunReport = {
        use serde::Deserialize as _;
        let value = serde_json::from_str(&report_text).expect("report parses");
        RunReport::from_value(&value).expect("report deserializes")
    };
    assert_eq!(written.schema_version, REPORT_SCHEMA_VERSION);
    assert_eq!(written, from_trace, "written report diverges from trace");
    assert!(
        written.phase(&["synth"]).is_some(),
        "synthesis phase missing from {report_text}"
    );
    assert!(!written.rungs.is_empty(), "rung events missing");
    assert!(
        written
            .rungs
            .iter()
            .any(|r| r.n_rops == 3 && r.outcome == "sat"),
        "XOR2's optimum (3 R-ops) missing from the rung summaries"
    );

    // The stats sidecar is schema-stamped and consistent with the verdict.
    let stats_value: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).expect("stats written"))
            .expect("stats parse");
    let get = |key: &str| match &stats_value {
        serde::Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("stats field {key} missing")),
        other => panic!("stats is not an object: {other:?}"),
    };
    assert_eq!(get("schema_version"), serde::Value::UInt(3));
    assert_eq!(get("proven_optimal"), serde::Value::Bool(true));
    match get("calls") {
        serde::Value::Array(calls) => assert!(!calls.is_empty(), "no call records"),
        other => panic!("calls is not an array: {other:?}"),
    }

    for path in [&trace, &report, &stats] {
        let _ = std::fs::remove_file(path);
    }
}
