//! Extension experiment for the paper's future work (§VI): how much
//! latency do "potentially parallel R-ops" on a 2D crossbar buy over the
//! 1D line array?
//!
//! For each benchmark circuit the harness reports the line-array step
//! count (`N_VS + N_R`) against the crossbar bound (`N_VS + depth of the
//! R-op DAG`), and validates the crossbar device model by executing the
//! GF(2²) multiplier schedule inside one crossbar column for every input.

use mm_bench::table4::{benchmarks, run_row, RowStatus};
use mm_circuit::{parallel, Schedule};
use mm_device::Crossbar;
use mm_synth::heuristic;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, budget) = mm_bench::parse_budget(&args, 120);

    println!("Crossbar extension: serialized vs parallel R-op latency");
    println!(
        "{:<18} {:<10} {:>4} {:>6} {:>11} {:>14} {:>8}",
        "circuit", "source", "N_R", "depth", "line N_St", "crossbar N_St", "speedup"
    );
    for bench in benchmarks() {
        // Prefer the exactly synthesized circuit; fall back to the
        // heuristic mapper when the SAT budget expires.
        let (circuit, source) = match run_row(&bench, false, budget) {
            r if r.status == RowStatus::Reproduced => {
                // Re-synthesize to get the circuit itself (run_row returns
                // metrics only); cheap relative to the solve already done.
                let spec = mm_synth::SynthSpec::mixed_mode(
                    &bench.function,
                    bench.paper_mm.n_rops,
                    bench.paper_mm.n_legs,
                    bench.paper_mm.n_vsteps,
                )
                .expect("valid")
                .with_options(mm_synth::EncodeOptions::recommended());
                let outcome = mm_synth::Synthesizer::new()
                    .with_budget(
                        mm_sat::Budget::new().with_deadline(mm_sat::Deadline::after(budget)),
                    )
                    .run(&spec)
                    .expect("runs");
                match outcome.result {
                    mm_synth::SynthResult::Realizable(c) => (c, "optimal"),
                    _ => (heuristic::map(&bench.function).expect("maps"), "heuristic"),
                }
            }
            _ => (heuristic::map(&bench.function).expect("maps"), "heuristic"),
        };
        let m = circuit.metrics();
        let depth = parallel::crossbar_rop_depth(&circuit);
        let line = m.n_steps;
        let xbar = parallel::crossbar_steps_bound(&circuit);
        println!(
            "{:<18} {:<10} {:>4} {:>6} {:>11} {:>14} {:>7.2}x",
            bench.name,
            source,
            m.n_rops,
            depth,
            line,
            xbar,
            line as f64 / xbar as f64
        );
    }

    // Device-model validation: run the GF(2^2) multiplier inside a crossbar
    // column for every input.
    let f = mm_boolfn::generators::gf22_multiplier();
    let circuit = heuristic::map(&f).expect("maps");
    let schedule = Schedule::compile(&circuit).expect("schedulable");
    let mut ok = true;
    for x in 0..16u32 {
        let mut xbar = Crossbar::ideal(schedule.n_cells(), 2);
        let got = schedule.execute_on_crossbar(x, &mut xbar, 0);
        let want: Vec<bool> = (0..2)
            .map(|i| f.output(i).expect("two outputs").eval(x))
            .collect();
        if got != want {
            ok = false;
        }
    }
    println!(
        "\ncrossbar column executes the GF(2^2) multiplier for all 16 inputs: {}",
        if ok { "OK" } else { "MISMATCH" }
    );
    println!("(the bound assumes free operand routing; realizing it costs copy cycles —");
    println!(" the 'new complexities' the paper anticipates)");
}
