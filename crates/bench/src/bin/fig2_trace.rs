//! Reproduces the paper's Fig. 2: the electrical execution record of the
//! GF(2²) multiplier on a 10-cell BiFeO₃ line array for input
//! `x1 x2 x3 x4 = 1011`.
//!
//! The paper measured a physical array with a Keithley 2400 source meter;
//! here the synthesized circuit is compiled to a cycle-accurate schedule
//! and executed on the simulated BFO array, producing the same
//! observables: per-cell resistance per cycle, applied TE/BE voltages,
//! |I| across each cell, and the final readouts (expected:
//! out1 = 0, out2 = 1).

use mm_boolfn::generators;
use mm_circuit::Schedule;
use mm_device::{ElectricalParams, LineArray, Variability};
use mm_sat::{Budget, Deadline};
use mm_synth::{EncodeOptions, SynthSpec, Synthesizer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, budget) = mm_bench::parse_budget(&args, 300);
    let noisy = rest.iter().any(|a| a == "--noisy");

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
    let schedule = Schedule::compile(circuit).expect("decoded circuits are schedulable");

    // Paper input: x1 x2 x3 x4 = 1011 (a = 10₂ = x, b = 11₂ = x+1 in GF(4)).
    let x: u32 = 0b1011;
    let expected = f.eval(x);
    let params = if noisy {
        ElectricalParams::bfo().with_variability(Variability::LOW)
    } else {
        ElectricalParams::bfo()
    };
    let mut array = LineArray::bfo(schedule.n_cells(), params, 2025);
    let outputs = schedule.execute(x, &mut array);

    println!("Fig. 2: electrical execution of the GF(2^2) multiplier, input x = 1011");
    println!(
        "array: {} BFO cells ({} legs + {} R-op outputs), {}\n",
        schedule.n_cells(),
        circuit.legs().len(),
        circuit.rops().len(),
        if noisy {
            "LOW variability corner"
        } else {
            "nominal devices"
        }
    );
    print!("{}", array.trace().to_table());
    println!();
    for (i, out) in outputs.iter().enumerate() {
        println!("readout out{} = {}", i + 1, u8::from(*out));
    }
    let want: Vec<bool> = (0..f.n_outputs())
        .map(|i| (expected >> (f.n_outputs() - 1 - i)) & 1 == 1)
        .collect();
    println!(
        "expected (GF multiplication table): out1 = {}, out2 = {} -> {}",
        u8::from(want[0]),
        u8::from(want[1]),
        if outputs == want {
            "MATCH (paper reads 0 / 1)"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "\ncycle count: {} total ({} V-op steps + {} R-ops + readouts; paper: 9 incl. readouts)",
        array.trace().len(),
        circuit.metrics().n_vsteps,
        circuit.metrics().n_rops
    );
}
