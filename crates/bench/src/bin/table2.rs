//! Reproduces the paper's Table II: 4-input AND, NAND, OR and NOR realized
//! simultaneously by V-ops only on a line array with a shared bottom
//! electrode.
//!
//! The paper presents hand-derived schedules; here the SAT synthesizer
//! re-derives them (N_R = 0, N_L = 4, N_VS = 5) and the state evolution of
//! every leg is printed in the paper's format.

use mm_boolfn::{generators, MultiOutputFn};
use mm_sat::{Budget, Deadline};
use mm_synth::{EncodeOptions, SynthSpec, Synthesizer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, budget) = mm_bench::parse_budget(&args, 300);

    let f = MultiOutputFn::new(
        "table2",
        vec![
            generators::and_gate(4)
                .output(0)
                .expect("single output")
                .clone(),
            generators::nand_gate(4)
                .output(0)
                .expect("single output")
                .clone(),
            generators::or_gate(4)
                .output(0)
                .expect("single output")
                .clone(),
            generators::nor_gate(4)
                .output(0)
                .expect("single output")
                .clone(),
        ],
    )
    .expect("four 4-input outputs")
    .with_output_names(["f1=AND4", "f2=NAND4", "f3=OR4", "f4=NOR4"]);

    println!("Table II: V-op-only realization of 4-input AND/NAND/OR/NOR");
    println!("(shared BE across all four legs; re-derived by SAT, not copied)\n");

    let spec = SynthSpec::mixed_mode(&f, 0, 4, 5)
        .expect("valid spec")
        .with_options(EncodeOptions::recommended());
    let synth =
        Synthesizer::new().with_budget(Budget::new().with_deadline(Deadline::after(budget)));
    let outcome = synth
        .run(&spec)
        .expect("encoding Table II spec never fails");
    let Some(circuit) = outcome.circuit() else {
        println!("budget exhausted or unrealizable — rerun with a larger --budget");
        return;
    };
    println!(
        "synthesized in {:.2?} ({} vars, {} clauses)\n",
        outcome.total_time(),
        outcome.encode_stats.n_vars,
        outcome.encode_stats.n_clauses
    );

    // Print per-leg schedules and state evolution, paper-style. The solver
    // is free to permute which leg realizes which gate; the tap list below
    // gives the association.
    for (t, leg) in circuit.legs().iter().enumerate() {
        println!("leg V{}:", t + 1);
        println!("  s0      {}", "0".repeat(16));
        let traj = circuit.leg_trajectory(t);
        for (k, op) in leg.ops().iter().enumerate() {
            println!(
                "  TE={:<8} BE={:<8} -> s{} = {}",
                op.te.to_string(),
                op.be.to_string(),
                k + 1,
                traj[k]
            );
        }
        println!();
    }
    for (i, (&o, name)) in circuit.outputs().iter().zip(f.output_names()).enumerate() {
        println!(
            "output {} ({name}) taps {o}: {}",
            i + 1,
            circuit.signal_value(o).to_bitstring()
        );
    }
    let ok = circuit.implements(&f);
    println!(
        "verified against the gate truth tables: {}",
        if ok { "OK" } else { "MISMATCH" }
    );
    println!("\npaper comparison: the paper's hand schedules use 5 steps (AND, NOR)");
    println!("and 4 steps (NAND, OR) padded by dummy cycles; any SAT solution at");
    println!("N_VS = 5 with shared BE is an equally valid realization.");
}
