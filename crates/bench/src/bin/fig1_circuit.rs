//! Reproduces the paper's Fig. 1: the optimal mixed-mode GF(2²)
//! multiplier — 18 V-ops in 6 legs of 3 steps, 4 MAGIC NOR R-ops,
//! 10 devices, 7 compute steps.
//!
//! The exact gate-level solution is not unique (any satisfying assignment
//! of Φ(f_GFMUL, 18, 4) is a valid Fig. 1); the printed circuit is this
//! run's witness, verified against the GF(2²) multiplication table.
//! Pass `--dot` to emit Graphviz instead of text.

use mm_boolfn::generators;
use mm_sat::{Budget, Deadline};
use mm_synth::{EncodeOptions, SynthSpec, Synthesizer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, budget) = mm_bench::parse_budget(&args, 300);
    let dot = rest.iter().any(|a| a == "--dot");

    let f = generators::gf22_multiplier();
    let spec = SynthSpec::mixed_mode(&f, 4, 6, 3)
        .expect("Fig. 1 budgets are valid")
        .with_options(EncodeOptions::recommended());
    let synth =
        Synthesizer::new().with_budget(Budget::new().with_deadline(Deadline::after(budget)));
    let outcome = synth.run(&spec).expect("encoding never fails here");
    let Some(circuit) = outcome.circuit() else {
        eprintln!("budget exhausted — rerun with a larger --budget");
        std::process::exit(1);
    };

    if dot {
        print!("{}", circuit.to_dot());
        return;
    }

    println!("Fig. 1: mixed-mode GF(2^2) multiplier, Φ(f_GFMUL, 18, 4)");
    println!(
        "synthesized in {:.2?} ({} vars, {} clauses)\n",
        outcome.total_time(),
        outcome.encode_stats.n_vars,
        outcome.encode_stats.n_clauses
    );
    print!("{}", circuit.to_text());
    let m = circuit.metrics();
    println!(
        "\nmetrics: N_R={} N_L={} N_VS={} N_St={} N_Dev={} (paper: 4/6/3/7/10)",
        m.n_rops, m.n_legs, m.n_vsteps, m.n_steps, m.n_devices_structural
    );
    println!(
        "verified: {}",
        if circuit.implements(&f) {
            "OK"
        } else {
            "MISMATCH"
        }
    );
}
