//! Long-running probe of the heavier Table IV rows (run in background).
use mm_boolfn::generators;
use mm_sat::{Budget, Deadline};
use mm_synth::{SynthResult, SynthSpec, Synthesizer};
use std::time::{Duration, Instant};

fn probe(
    name: &str,
    f: &mm_boolfn::MultiOutputFn,
    n_r: usize,
    n_l: usize,
    n_vs: usize,
    budget_s: u64,
) {
    let spec = match (n_l, n_vs) {
        (0, 0) => SynthSpec::r_only(f, n_r).unwrap(),
        _ => SynthSpec::mixed_mode(f, n_r, n_l, n_vs).unwrap(),
    };
    let synth = Synthesizer::new()
        .with_budget(Budget::new().with_deadline(Deadline::after(Duration::from_secs(budget_s))));
    let t = Instant::now();
    let out = synth.run(&spec).unwrap();
    let kind = match out.result {
        SynthResult::Realizable(_) => "SAT",
        SynthResult::Unrealizable => "UNSAT",
        SynthResult::Unknown => "UNKNOWN",
    };
    println!(
        "{name} (R={n_r}, L={n_l}, VS={n_vs}): {kind} vars={} clauses={} in {:.1?} ({} conflicts)",
        out.encode_stats.n_vars,
        out.encode_stats.n_clauses,
        t.elapsed(),
        out.solver_stats.conflicts
    );
}

fn main() {
    let add2 = generators::ripple_adder(2);
    probe("2-bit adder MM", &add2, 4, 6, 5, 3600); // paper: SAT 109s
    let gfinv = generators::gf16_inversion();
    probe("GF(2^4) inversion MM", &gfinv, 7, 11, 4, 3600); // paper: SAT 1539s
    probe("2-bit adder MM vs-1", &add2, 4, 6, 4, 3600); // optimality: expect UNSAT
    let gf = generators::gf22_multiplier();
    probe("GF(2^2) mult R-only", &gf, 14, 0, 0, 3600); // paper: <=14 SAT
}
