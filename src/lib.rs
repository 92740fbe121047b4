//! `memristive-mm` — optimal synthesis of memristive mixed-mode circuits.
//!
//! This is the facade crate of the workspace reproducing *Optimal Synthesis
//! of Memristive Mixed-Mode Circuits* (DATE 2025). It re-exports the public
//! APIs of the member crates:
//!
//! * [`boolfn`] — truth tables, literals, GF(2^m) arithmetic, benchmark
//!   function generators and a Quine–McCluskey minimizer.
//! * [`sat`] — a from-scratch CDCL SAT solver and CNF toolkit.
//! * [`device`] — memristive device models, variability, and the 1D
//!   line-array executor.
//! * [`circuit`] — the mixed-mode circuit IR, scheduling and evaluation.
//! * [`synth`] — the paper's core contribution: SAT-based optimal synthesis
//!   of mixed-mode circuits, the universality census, and the heuristic
//!   mapper.
//! * [`telemetry`] — structured tracing: spans, counters and point events
//!   from every layer above, JSONL sinks, and the [`telemetry::RunReport`]
//!   per-phase timing aggregator.
//! * [`service`] — the crash-safe synthesis service behind `mmsynthd`: a
//!   persistent NPN-canonical result cache, supervised one-attempt jobs
//!   with panic isolation and overload shedding, and the JSON-lines
//!   daemon loops.
//!
//! # Quickstart
//!
//! ```no_run
//! use memristive_mm::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Synthesize a 1-bit full adder as a mixed-mode circuit with 2 R-ops
//! // and 3 V-legs of 3 steps each (the paper's Table IV optimum).
//! let f = generators::ripple_adder(1);
//! let spec = SynthSpec::mixed_mode(&f, 2, 3, 3)?;
//! let outcome = Synthesizer::new().run(&spec)?;
//! let circuit = outcome.circuit().expect("the paper proves this is SAT");
//! assert_eq!(circuit.metrics().n_steps, 5);
//! # Ok(())
//! # }
//! ```

pub use mm_boolfn as boolfn;
pub use mm_circuit as circuit;
pub use mm_device as device;
pub use mm_sat as sat;
pub use mm_service as service;
pub use mm_synth as synth;
pub use mm_telemetry as telemetry;

/// Convenient glob-import surface for examples and downstream experiments.
pub mod prelude {
    pub use mm_boolfn::{generators, Gf2m, Literal, LiteralSet, MultiOutputFn, TruthTable};
    pub use mm_circuit::{MmCircuit, ROpKind, Schedule, Signal};
    pub use mm_device::{DeviceState, ElectricalParams, LineArray, Variability};
    pub use mm_sat::{Budget, CnfFormula, SatResult, Solver};
    pub use mm_synth::{SynthOutcome, SynthResult, SynthSpec, Synthesizer};
}
