//! Job execution: the bridge from wire requests to the synthesis stack
//! and the result cache.
//!
//! # Hit ≡ miss, bit for bit
//!
//! The engine only ever *solves canonical representatives*. On a miss it
//! canonicalizes, runs the ladder on the canonical function, stores the
//! canonical result, then de-canonicalizes for the reply; on a hit it
//! loads the same canonical result and de-canonicalizes identically. A
//! cache hit is therefore bit-identical (circuit, proof, verdict) to a
//! cold solve of the same request — and since the portfolio's verdicts
//! are worker-count-invariant for conflict-limited budgets (see
//! `mm_synth::optimize`), that identity holds at any `--jobs`.
//!
//! `synthesize` and `faultsim` follow the same rule one level down, in
//! `canonical_rung`: each solves one canonical `Rung`, cached under the
//! rung facet, and de-canonicalizes its circuit — `synthesize` to reply
//! with it, `faultsim` to compile it and run the campaign. Hit or miss,
//! cache or none, the reply sees the same circuit.
//!
//! The engine is the one owner of this protocol: `mmsynth minimize
//! --cache-dir` runs its job through [`Engine::run`] too, and every job
//! runs once, at the budget its request states.
//!
//! # What gets cached
//!
//! Only *deterministic, conclusive* results: no deadline on the request
//! and `OptimizeStatus::Complete`. Degraded results are served but never
//! stored, so the cache can only contain verdicts a cold solve would
//! reproduce. An unlimited rung's SAT or UNSAT verdict is always stored;
//! a `synthesize` with `max_conflicts` bypasses the cache both ways,
//! since its capped cold solve may answer `unknown`.

use std::sync::Arc;
use std::time::Duration;

use mm_boolfn::npn::canonicalize;
use mm_circuit::campaign::run_campaign_traced;
use mm_circuit::{CampaignConfig, DeviceState, FaultPlan, MmCircuit, Schedule};
use mm_sat::{Budget, DratProof};
use mm_synth::optimize::{CallRecord, OptimizeReport, OptimizeStatus, SynthResultKind};
use mm_synth::request::{decanonicalize_circuit, MinimizeRequest};
use mm_synth::{EncodeOptions, SynthResult, Synthesizer};
use mm_telemetry::{kv, Telemetry, TelemetrySink};

use crate::cache::{CacheEntry, ResultCache, Rung, RungEntry};
use crate::proto::{function_from_tables, CacheOutcome, JobResponse, Op, PROTO_VERSION};

/// The attempt a job used to run at, kept so callers written against the
/// deleted retry schedule still build; [`Engine::run_attempt`] ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// 0-based attempt index.
    pub index: u32,
    /// Conflict budget of the attempt (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Delay before the attempt.
    pub backoff: Duration,
}

/// What [`Engine::run_attempt`] answers: always `Done`. `Retry` is never
/// built; it is kept so matches written against the retry schedule still
/// build.
pub enum AttemptResult<R> {
    /// The job's answer.
    Done(R),
    /// Never built.
    Retry {
        /// Best-known partial answer.
        partial: Option<R>,
        /// Why the attempt was inconclusive.
        reason: String,
    },
}

/// Shared, thread-safe job executor.
pub struct Engine {
    /// The persistent cache, when a cache dir was configured.
    pub cache: Option<ResultCache>,
    /// Portfolio width per solve.
    pub solve_jobs: usize,
    /// Telemetry handle for job spans/points.
    pub telemetry: Telemetry,
    /// Encoding options for every solve.
    pub options: EncodeOptions,
}

impl Engine {
    /// An engine with the recommended encoding and no cache.
    pub fn new(solve_jobs: usize) -> Self {
        Self {
            cache: None,
            solve_jobs: solve_jobs.max(1),
            telemetry: Telemetry::disabled(),
            options: EncodeOptions::recommended(),
        }
    }

    /// Attaches the persistent cache.
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches telemetry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs `op` once, at the budget its request states, and answers it.
    pub fn run(self: &Arc<Self>, id: &str, op: &Op) -> JobResponse {
        self.run_with(id, op, None)
    }

    /// Like [`run`](Self::run), additionally teeing this job's telemetry
    /// into `progress` (the per-job frame sink of a `subscribe: true`
    /// request). The sink observes exactly what the trace does;
    /// non-subscribed jobs take the `None` path, which is the
    /// pre-streaming code path unchanged.
    pub fn run_with(
        self: &Arc<Self>,
        id: &str,
        op: &Op,
        progress: Option<Arc<dyn TelemetrySink>>,
    ) -> JobResponse {
        let telemetry = match progress {
            Some(sink) => self.telemetry.with_extra_sink(sink),
            None => self.telemetry.clone(),
        };
        self.dispatch(id, op, &telemetry)
    }

    /// [`run`](Self::run) under the signature of the deleted retry
    /// schedule, for callers that still build an [`Attempt`]: `attempt`
    /// is ignored and the answer is always [`AttemptResult::Done`].
    #[deprecated(note = "every job runs once; call `Engine::run`")]
    pub fn run_attempt(
        self: &Arc<Self>,
        id: &str,
        op: &Op,
        _attempt: &Attempt,
    ) -> AttemptResult<JobResponse> {
        AttemptResult::Done(self.run(id, op))
    }

    fn dispatch(self: &Arc<Self>, id: &str, op: &Op, telemetry: &Telemetry) -> JobResponse {
        let _span = telemetry.span_with("job.attempt", vec![kv("id", id)]);
        match op {
            Op::Ping => JobResponse {
                proto_version: Some(PROTO_VERSION),
                ..JobResponse::new(id, "ok")
            },
            Op::Stats => self.stats_response(id),
            // The daemon answers drain and metrics snapshots itself;
            // answering here keeps the protocol total.
            Op::Shutdown | Op::Metrics => JobResponse::new(id, "ok"),
            Op::Minimize {
                tables,
                request,
                no_cache,
            } => self.minimize(id, tables, request, *no_cache, telemetry),
            Op::Synthesize {
                tables,
                n_rops,
                n_legs,
                n_vsteps,
                max_conflicts,
            } => self.synthesize(
                id,
                tables,
                *n_rops,
                *n_legs,
                *n_vsteps,
                *max_conflicts,
                telemetry,
            ),
            Op::Faultsim {
                tables,
                n_rops,
                n_vsteps,
                trials,
                seed,
                stuck_lrs,
            } => self.faultsim(
                id, tables, *n_rops, *n_vsteps, *trials, *seed, stuck_lrs, telemetry,
            ),
        }
    }

    /// The `stats` op: cache counters + entry count.
    pub fn stats_response(&self, id: &str) -> JobResponse {
        JobResponse {
            proto_version: Some(PROTO_VERSION),
            cache_stats: self.cache.as_ref().map(ResultCache::stats),
            cache_entries: self.cache.as_ref().map(ResultCache::len),
            ..JobResponse::new(id, "ok")
        }
    }

    fn minimize(
        self: &Arc<Self>,
        id: &str,
        tables: &[String],
        request: &MinimizeRequest,
        no_cache: bool,
        telemetry: &Telemetry,
    ) -> JobResponse {
        let f = match function_from_tables(tables) {
            Ok(f) => f,
            Err(e) => return JobResponse::error(id, e.to_string()),
        };
        let (canonical, transform) = canonicalize(&f);
        let cacheable = !no_cache && request.is_deterministic();
        if cacheable {
            if let Some(cache) = &self.cache {
                if let Some(entry) = cache.lookup(&canonical, request) {
                    telemetry.point("job.cache", vec![kv("id", id), kv("outcome", "hit")]);
                    let mut resp = entry_response(id, &entry, &transform, request);
                    resp.cache = Some(CacheOutcome::Hit);
                    return resp;
                }
            }
        }

        // Miss (or bypass): solve the canonical representative.
        let synth = Synthesizer::new().with_telemetry(telemetry.clone());
        let report = match request.run(&synth, &canonical, &self.options, self.solve_jobs) {
            Ok(report) => report,
            Err(e) => return JobResponse::error(id, e.to_string()),
        };
        let entry = entry_from_report(&canonical, request, &report);
        if cacheable && !report.status.is_degraded() {
            if let Some(cache) = &self.cache {
                if let Err(e) = cache.store(request, &entry) {
                    // A failed store must not fail the job; the solve is
                    // still good.
                    telemetry.point(
                        "job.cache",
                        vec![kv("id", id), kv("store_error", e.to_string())],
                    );
                }
            }
        }
        let outcome = if self.cache.is_some() && cacheable {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Bypass
        };
        telemetry.point(
            "job.cache",
            vec![kv("id", id), kv("outcome", outcome.as_str())],
        );
        let mut resp = entry_response(id, &entry, &transform, request);
        resp.cache = Some(outcome);
        resp.solver_calls = Some(report.calls.len() as u64);
        if let OptimizeStatus::Degraded { reason } = &report.status {
            resp.status = "degraded".into();
            resp.degraded_reason = Some(reason.to_string());
        }
        resp
    }

    #[allow(clippy::too_many_arguments)] // mirrors the wire op's fields
    fn synthesize(
        &self,
        id: &str,
        tables: &[String],
        n_rops: usize,
        n_legs: Option<usize>,
        n_vsteps: usize,
        max_conflicts: Option<u64>,
        telemetry: &Telemetry,
    ) -> JobResponse {
        let f = match function_from_tables(tables) {
            Ok(f) => f,
            Err(e) => return JobResponse::error(id, e.to_string()),
        };
        let rung = Rung {
            n_rops,
            n_legs: n_legs.unwrap_or_else(|| mm_synth::SynthSpec::paper_legs(&f, n_rops, false)),
            n_vsteps,
        };
        let (result, outcome) = match self.canonical_rung(id, &f, rung, max_conflicts, telemetry) {
            Ok(solved) => solved,
            Err(e) => return JobResponse::error(id, e),
        };
        let mut resp = match result {
            SynthResult::Realizable(circuit) => JobResponse {
                verdict: Some("sat".into()),
                metrics: Some(circuit.metrics()),
                circuit: Some(circuit),
                ..JobResponse::new(id, "ok")
            },
            SynthResult::Unrealizable => JobResponse {
                verdict: Some("unsat".into()),
                ..JobResponse::new(id, "ok")
            },
            SynthResult::Unknown => JobResponse {
                verdict: Some("unknown".into()),
                degraded_reason: Some("budget exhausted".into()),
                ..JobResponse::new(id, "degraded")
            },
        };
        resp.cache = Some(outcome);
        resp
    }

    #[allow(clippy::too_many_arguments)] // mirrors the wire op's fields
    fn faultsim(
        &self,
        id: &str,
        tables: &[String],
        n_rops: usize,
        n_vsteps: usize,
        trials: u32,
        seed: u64,
        stuck_lrs: &[usize],
        telemetry: &Telemetry,
    ) -> JobResponse {
        let f = match function_from_tables(tables) {
            Ok(f) => f,
            Err(e) => return JobResponse::error(id, e.to_string()),
        };
        let rung = Rung {
            n_rops,
            n_legs: mm_synth::SynthSpec::paper_legs(&f, n_rops, false),
            n_vsteps,
        };
        let (result, outcome) = match self.canonical_rung(id, &f, rung, None, telemetry) {
            Ok(solved) => solved,
            Err(e) => return JobResponse::error(id, e),
        };
        let mut resp = match result {
            SynthResult::Realizable(circuit) => {
                campaign_response(id, &circuit, trials, seed, stuck_lrs, telemetry)
            }
            SynthResult::Unrealizable => JobResponse::error(
                id,
                "faultsim needs a realizable circuit at the given budgets",
            ),
            // No budget is set, so this only follows a cancellation.
            SynthResult::Unknown => JobResponse::error(id, "faultsim synthesis was inconclusive"),
        };
        resp.cache = Some(outcome);
        resp
    }

    /// The verdict of `rung` for `f`, solved on `f`'s canonical
    /// representative with at most `max_conflicts` conflicts and
    /// de-canonicalized. An unlimited rung is served from the cache when
    /// it holds the rung, and otherwise solved and stored. A capped rung
    /// bypasses the cache both ways: a hit must answer what a cold solve
    /// would, and a capped cold solve may answer `Unknown`. (`rung`'s leg
    /// count is NPN-invariant, so callers may derive it from `f`.)
    fn canonical_rung(
        &self,
        id: &str,
        f: &mm_boolfn::MultiOutputFn,
        rung: Rung,
        max_conflicts: Option<u64>,
        telemetry: &Telemetry,
    ) -> Result<(SynthResult, CacheOutcome), String> {
        let (canonical, transform) = canonicalize(f);
        let served = |circuit: Option<MmCircuit>| match circuit {
            Some(c) => SynthResult::Realizable(
                decanonicalize_circuit(&c, &transform)
                    .expect("solved circuits are structurally valid"),
            ),
            None => SynthResult::Unrealizable,
        };
        let cache = self.cache.as_ref().filter(|_| max_conflicts.is_none());
        if let Some(entry) = cache.and_then(|cache| cache.lookup_rung(&canonical, rung)) {
            telemetry.point("job.cache", vec![kv("id", id), kv("outcome", "hit")]);
            return Ok((served(entry.circuit), CacheOutcome::Hit));
        }
        let spec =
            mm_synth::SynthSpec::mixed_mode(&canonical, rung.n_rops, rung.n_legs, rung.n_vsteps)
                .map_err(|e| e.to_string())?
                .with_options(self.options.clone());
        let mut synth = Synthesizer::new().with_telemetry(telemetry.clone());
        if let Some(c) = max_conflicts {
            synth = synth.with_budget(Budget::new().with_max_conflicts(c));
        }
        let circuit = match synth.run(&spec).map_err(|e| e.to_string())?.result {
            SynthResult::Realizable(circuit) => Some(circuit),
            SynthResult::Unrealizable => None,
            // Never stored (an unlimited rung only gets here on cancellation).
            SynthResult::Unknown => return Ok((SynthResult::Unknown, CacheOutcome::Bypass)),
        };
        let Some(cache) = cache else {
            return Ok((served(circuit), CacheOutcome::Bypass));
        };
        let entry = RungEntry {
            canonical,
            rung,
            circuit,
        };
        if let Err(e) = cache.store_rung(&entry) {
            telemetry.point(
                "job.cache",
                vec![kv("id", id), kv("store_error", e.to_string())],
            );
        }
        telemetry.point("job.cache", vec![kv("id", id), kv("outcome", "miss")]);
        Ok((served(entry.circuit), CacheOutcome::Miss))
    }
}

/// Compiles `circuit` and runs the faultsim campaign on it: a clean
/// control plan, plus an injected plan when `stuck_lrs` names cells.
fn campaign_response(
    id: &str,
    circuit: &MmCircuit,
    trials: u32,
    seed: u64,
    stuck_lrs: &[usize],
    telemetry: &Telemetry,
) -> JobResponse {
    let schedule = match Schedule::compile(circuit) {
        Ok(s) => s,
        Err(e) => return JobResponse::error(id, e.to_string()),
    };
    let mut plans = vec![FaultPlan::named("control")];
    if !stuck_lrs.is_empty() {
        let mut injected = FaultPlan::named("injected");
        for &cell in stuck_lrs {
            injected = injected.with_stuck(cell, DeviceState::Lrs);
        }
        plans.push(injected);
    }
    let config = CampaignConfig {
        trials,
        seed,
        ..CampaignConfig::default()
    };
    match run_campaign_traced(&schedule, &plans, &config, telemetry) {
        Ok(campaign) => JobResponse {
            campaign: Some(campaign),
            metrics: Some(circuit.metrics()),
            ..JobResponse::new(id, "ok")
        },
        Err(e) => JobResponse::error(id, e.to_string()),
    }
}

/// Builds the response fields every minimize path (hit and miss) shares:
/// the de-canonicalized circuit, its metrics, the optimality flag and,
/// for a certified request only, the stored proof — so a hit answers
/// exactly what a cold solve of the same request would.
fn entry_response(
    id: &str,
    entry: &CacheEntry,
    transform: &mm_boolfn::npn::NpnTransform,
    request: &MinimizeRequest,
) -> JobResponse {
    let circuit = entry.circuit.as_ref().map(|c| {
        decanonicalize_circuit(c, transform).expect("stored circuits are structurally valid")
    });
    JobResponse {
        metrics: circuit.as_ref().map(MmCircuit::metrics),
        circuit,
        proven_optimal: Some(entry.proven_optimal),
        proof: entry.proof.clone().filter(|_| request.certify),
        solver_calls: Some(0),
        ..JobResponse::new(id, "ok")
    }
}

/// Folds an [`OptimizeReport`] for the canonical function into a cache
/// entry.
fn entry_from_report(
    canonical: &mm_boolfn::MultiOutputFn,
    request: &MinimizeRequest,
    report: &OptimizeReport,
) -> CacheEntry {
    let (mode, max_conflicts) = request.cache_facet();
    CacheEntry {
        canonical: canonical.clone(),
        mode,
        max_conflicts,
        circuit: report.best.clone(),
        proven_optimal: report.proven_optimal,
        proof: optimality_proof(&report.calls),
    }
}

/// The certified refutation backing the optimality claim: the UNSAT call
/// at the *largest* budget point. That point always completes and its
/// cold certified solve is deterministic, so the choice (unlike "last in
/// `calls`") is invariant under portfolio scheduling.
pub fn optimality_proof(calls: &[CallRecord]) -> Option<DratProof> {
    calls
        .iter()
        .filter(|c| c.result == SynthResultKind::Unrealizable && c.certified)
        .max_by_key(|c| (c.n_rops, c.n_legs, c.n_vsteps))
        .and_then(|c| c.proof.clone())
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;
    use mm_synth::request::MinimizeMode;

    use super::*;
    use crate::cache::RecoveryReport;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mm_engine_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn minimize_op(tables: Vec<String>) -> Op {
        Op::Minimize {
            tables,
            request: MinimizeRequest {
                mode: MinimizeMode::MixedMode {
                    max_rops: 3,
                    max_vsteps: 3,
                    is_adder: false,
                },
                max_conflicts: None,
                deadline: None,
                certify: false,
            },
            no_cache: false,
        }
    }

    #[test]
    fn miss_then_hit_serve_identical_answers() {
        let dir = temp_dir("hit_identity");
        let (cache, recovery) = ResultCache::open(&dir).unwrap();
        assert_eq!(recovery, RecoveryReport::default());
        let engine = Arc::new(Engine::new(2).with_cache(cache));
        // XNOR exercises a non-identity transform (it canonicalizes onto
        // XOR's representative).
        let tables = vec![generators::xnor_gate(2).outputs()[0].to_bitstring()];
        let op = minimize_op(tables);
        let miss = engine.run("a", &op);
        assert_eq!(miss.cache, Some(CacheOutcome::Miss));
        assert_eq!(miss.status, "ok");
        let hit = engine.run("b", &op);
        assert_eq!(hit.cache, Some(CacheOutcome::Hit));
        assert_eq!(
            hit.circuit, miss.circuit,
            "hit serves the identical circuit"
        );
        assert_eq!(hit.proven_optimal, miss.proven_optimal);
        assert_eq!(hit.proof.is_some(), miss.proof.is_some());
        assert_eq!(hit.solver_calls, Some(0));
        let circuit = hit.circuit.expect("xnor is realizable");
        let f = generators::xnor_gate(2);
        assert!(
            circuit.implements(&f),
            "served circuit implements the *requested* fn"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncertified_hits_on_certified_entries_carry_no_proof() {
        let dir = temp_dir("certified_entry");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let engine = Arc::new(Engine::new(2).with_cache(cache));
        let op = |table: &str, certify: bool, no_cache: bool| {
            let Op::Minimize {
                tables,
                mut request,
                ..
            } = minimize_op(vec![table.into()])
            else {
                unreachable!()
            };
            request.certify = certify;
            Op::Minimize {
                tables,
                request,
                no_cache,
            }
        };
        // A certified XOR solve stores its refutation; XNOR is the same
        // NPN class, so its uncertified request hits that entry.
        let miss = engine.run("a", &op("0110", true, false));
        assert_eq!(miss.cache, Some(CacheOutcome::Miss));
        assert!(miss.proof.is_some(), "the certified miss carries its proof");
        let mut hit = engine.run("b", &op("1001", false, false));
        assert_eq!(hit.cache, Some(CacheOutcome::Hit));
        let mut cold = engine.run("b", &op("1001", false, true));
        assert_eq!(cold.cache, Some(CacheOutcome::Bypass));
        for resp in [&mut hit, &mut cold] {
            resp.cache = None;
            resp.solver_calls = None;
        }
        assert_eq!(
            hit.to_line(),
            cold.to_line(),
            "a hit answers as a cold solve"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_requests_bypass_and_do_not_store() {
        let dir = temp_dir("bypass");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let engine = Arc::new(Engine::new(2).with_cache(cache));
        let Op::Minimize {
            tables, request, ..
        } = minimize_op(vec!["0110".into()])
        else {
            unreachable!()
        };
        let op = Op::Minimize {
            tables,
            request,
            no_cache: true,
        };
        let resp = engine.run("x", &op);
        assert_eq!(resp.cache, Some(CacheOutcome::Bypass));
        assert_eq!(engine.cache.as_ref().unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_degraded_minimize_answers_degraded_and_stores_nothing() {
        let dir = temp_dir("degraded");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let engine = Arc::new(Engine::new(1).with_cache(cache));
        let Op::Minimize {
            tables,
            mut request,
            no_cache,
        } = minimize_op(vec!["10010110".into()])
        else {
            unreachable!()
        };
        request.max_conflicts = Some(5);
        let op = Op::Minimize {
            tables,
            request,
            no_cache,
        };
        let resp = engine.run("d", &op);
        assert_eq!(resp.status, "degraded");
        assert_eq!(resp.degraded_reason.as_deref(), Some("budget exhausted"));
        assert_eq!(resp.cache, Some(CacheOutcome::Miss));
        assert!(resp.circuit.is_some(), "the best-known circuit is served");
        assert_eq!(
            engine.cache.as_ref().unwrap().len(),
            0,
            "degraded results must never be stored"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthesize_and_faultsim_round_trip() {
        let dir = temp_dir("synthesize");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let engine = Arc::new(Engine::new(2).with_cache(cache));
        let synthesize = |table: &str, max_conflicts: Option<u64>| Op::Synthesize {
            tables: vec![table.into()],
            n_rops: 1,
            n_legs: None,
            n_vsteps: 3,
            max_conflicts,
        };
        let miss = engine.run("s", &synthesize("0001", None));
        assert_eq!(miss.status, "ok");
        assert_eq!(miss.verdict.as_deref(), Some("sat"));
        assert_eq!(miss.cache, Some(CacheOutcome::Miss));
        // x1 ∧ ¬x2 is AND's NPN variant: it hits AND's canonical rung.
        let hit = engine.run("s", &synthesize("0010", None));
        assert_eq!(hit.cache, Some(CacheOutcome::Hit));
        assert_eq!((&hit.verdict, &hit.metrics), (&miss.verdict, &miss.metrics));
        let circuit = hit.circuit.expect("the rung is SAT");
        assert!(circuit.implements(&function_from_tables(&["0010".into()]).unwrap()));
        // A capped solve may answer `unknown`, which no hit may: bypass.
        let capped = engine.run("s", &synthesize("0001", Some(1)));
        assert_eq!(capped.cache, Some(CacheOutcome::Bypass));
        assert_eq!(engine.cache.as_ref().unwrap().len(), 1);

        let op = Op::Faultsim {
            tables: vec!["0001".into()],
            n_rops: 1,
            n_vsteps: 3,
            trials: 4,
            seed: 7,
            stuck_lrs: vec![0],
        };
        let resp = engine.run("f", &op);
        assert_eq!(resp.status, "ok");
        let campaign = resp.campaign.expect("campaign report");
        assert_eq!(campaign.plans.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faultsim_hits_answer_as_cold_solves() {
        let dir = temp_dir("faultsim_hit");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let cached = Arc::new(Engine::new(1).with_cache(cache));
        let uncached = Arc::new(Engine::new(1));
        let faultsim = |table: &str, n_rops: usize| Op::Faultsim {
            tables: vec![table.into()],
            n_rops,
            n_vsteps: 2,
            trials: 8,
            seed: 7,
            stuck_lrs: vec![1],
        };
        // XOR solves the canonical rung; XNOR is its NPN variant and hits.
        let miss = cached.run("f", &faultsim("0110", 1));
        assert_eq!(miss.cache, Some(CacheOutcome::Miss));
        assert_eq!(miss.status, "ok");
        let mut hit = cached.run("f", &faultsim("1001", 1));
        assert_eq!(hit.cache, Some(CacheOutcome::Hit));
        let mut cold = uncached.run("f", &faultsim("1001", 1));
        assert_eq!(cold.cache, Some(CacheOutcome::Bypass));
        for resp in [&mut hit, &mut cold] {
            resp.cache = None;
        }
        assert_eq!(
            hit.to_line(),
            cold.to_line(),
            "a hit answers as a cold solve"
        );
        let campaign = hit.campaign.expect("campaign report");
        assert_eq!(campaign.plans[0].failures, 0, "the control plan is clean");

        // An UNSAT rung is stored too, and its hit answers the same error.
        let miss = cached.run("u", &faultsim("0110", 0));
        assert_eq!(
            (miss.status.as_str(), miss.cache),
            ("error", Some(CacheOutcome::Miss))
        );
        let hit = cached.run("u", &faultsim("1001", 0));
        assert_eq!(hit.cache, Some(CacheOutcome::Hit));
        assert_eq!(hit.error, miss.error);
        assert_eq!(cached.cache.as_ref().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faultsim_too_large_for_the_counts_is_an_error_response() {
        let engine = Arc::new(Engine::new(1));
        let faultsim = |trials: u32| Op::Faultsim {
            tables: vec!["0001".into()],
            n_rops: 1,
            n_vsteps: 3,
            trials,
            seed: 7,
            stuck_lrs: vec![0],
        };
        // 2 inputs: 4 executions per trial, counted in a u32.
        let resp = engine.run("f", &faultsim(u32::MAX / 4));
        assert_eq!(resp.status, "ok");
        let campaign = resp.campaign.expect("campaign report");
        assert_eq!(campaign.plans[1].executions, u32::MAX / 4 * 4);
        let resp = engine.run("f", &faultsim(u32::MAX / 4 + 1));
        assert_eq!(resp.status, "error");
        let message = resp.error.expect("error message");
        assert!(message.contains("1073741824 trials"), "{message}");
    }

    #[test]
    fn bad_tables_yield_error_responses_not_panics() {
        let engine = Arc::new(Engine::new(1));
        let op = minimize_op(vec!["junk".into()]);
        let resp = engine.run("e", &op);
        assert_eq!(resp.status, "error");
        assert!(resp.error.is_some());
    }
}
