//! Shared driver for the Table IV reproduction: the benchmark set, the
//! paper's reference values, and budgeted row runners.

use std::time::Duration;

use mm_boolfn::{generators, MultiOutputFn};
use mm_sat::{Budget, Deadline};
use mm_synth::{EncodeOptions, SynthResult, SynthSpec, Synthesizer};

/// The paper's reference values for one Table IV row.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// `N_R` as printed.
    pub n_rops: usize,
    /// Whether the printed `N_R` carries the "≤" marker (optimality proof
    /// timed out on the paper's machine).
    pub upper_bound_only: bool,
    /// `N_L` (0 for R-only rows).
    pub n_legs: usize,
    /// `N_VS` (0 for R-only rows).
    pub n_vsteps: usize,
    /// `N_St` as printed.
    pub n_steps: usize,
    /// `N_Dev` as printed.
    pub n_devices: usize,
    /// SLIME 5 runtime in seconds as printed.
    pub time_s: f64,
}

/// One benchmark circuit of Table IV with both of its paper rows.
pub struct Benchmark {
    /// Row label as printed in the paper.
    pub name: &'static str,
    /// The specified function.
    pub function: MultiOutputFn,
    /// Whether the adder leg convention (`N_L = N_R + N_O − 1`) applies.
    pub is_adder: bool,
    /// The paper's mixed-mode row.
    pub paper_mm: PaperRow,
    /// The paper's R-only row.
    pub paper_r_only: PaperRow,
}

/// The five Table IV benchmarks with the paper's printed reference values.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "1-bit adder",
            function: generators::ripple_adder(1),
            is_adder: true,
            paper_mm: PaperRow {
                n_rops: 2,
                upper_bound_only: false,
                n_legs: 3,
                n_vsteps: 3,
                n_steps: 5,
                n_devices: 5,
                time_s: 3.0,
            },
            paper_r_only: PaperRow {
                n_rops: 9,
                upper_bound_only: false,
                n_legs: 0,
                n_vsteps: 0,
                n_steps: 9,
                n_devices: 20,
                time_s: 2.0,
            },
        },
        Benchmark {
            name: "2-bit adder",
            function: generators::ripple_adder(2),
            is_adder: true,
            paper_mm: PaperRow {
                n_rops: 4,
                upper_bound_only: false,
                n_legs: 6,
                n_vsteps: 5,
                n_steps: 9,
                n_devices: 10,
                time_s: 109.0,
            },
            paper_r_only: PaperRow {
                n_rops: 18,
                upper_bound_only: true,
                n_legs: 0,
                n_vsteps: 0,
                n_steps: 18,
                n_devices: 39,
                time_s: 343_233.0,
            },
        },
        Benchmark {
            name: "3-bit adder",
            function: generators::ripple_adder(3),
            is_adder: true,
            paper_mm: PaperRow {
                n_rops: 5,
                upper_bound_only: false,
                n_legs: 8,
                n_vsteps: 6,
                n_steps: 11,
                n_devices: 14,
                time_s: 24_154.0,
            },
            paper_r_only: PaperRow {
                n_rops: 25,
                upper_bound_only: true,
                n_legs: 0,
                n_vsteps: 0,
                n_steps: 25,
                n_devices: 54,
                time_s: 162_433.0,
            },
        },
        Benchmark {
            name: "GF(2^4) inversion",
            function: generators::gf16_inversion(),
            is_adder: false,
            paper_mm: PaperRow {
                n_rops: 7,
                upper_bound_only: false,
                n_legs: 11,
                n_vsteps: 4,
                n_steps: 11,
                n_devices: 18,
                time_s: 1539.0,
            },
            paper_r_only: PaperRow {
                n_rops: 30,
                upper_bound_only: true,
                n_legs: 0,
                n_vsteps: 0,
                n_steps: 30,
                n_devices: 64,
                time_s: 78_187.0,
            },
        },
        Benchmark {
            name: "GF(2^2) multipl.",
            function: generators::gf22_multiplier(),
            is_adder: false,
            paper_mm: PaperRow {
                n_rops: 4,
                upper_bound_only: false,
                n_legs: 6,
                n_vsteps: 3,
                n_steps: 7,
                n_devices: 10,
                time_s: 6.0,
            },
            paper_r_only: PaperRow {
                n_rops: 14,
                upper_bound_only: true,
                n_legs: 0,
                n_vsteps: 0,
                n_steps: 14,
                n_devices: 30,
                time_s: 15.0,
            },
        },
    ]
}

/// Outcome of reproducing one row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// What the call concluded.
    pub status: RowStatus,
    /// Cost metrics of the found circuit, if any.
    pub metrics: Option<mm_circuit::Metrics>,
    /// CNF variables of the instance at the paper's budgets.
    pub n_vars: u32,
    /// CNF clauses of the instance at the paper's budgets.
    pub n_clauses: usize,
    /// Encode + solve wall-clock time.
    pub time: Duration,
}

/// Row reproduction status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// SAT at the paper's budgets, circuit verified.
    Reproduced,
    /// UNSAT at the paper's budgets — would contradict the paper.
    Contradiction,
    /// Budget exhausted before an answer.
    BudgetExceeded,
}

/// Runs one benchmark's MM (or R-only) instance at the paper's budgets.
pub fn run_row(bench: &Benchmark, r_only: bool, budget: Duration) -> RowResult {
    let paper = if r_only {
        &bench.paper_r_only
    } else {
        &bench.paper_mm
    };
    let spec = if r_only {
        SynthSpec::r_only(&bench.function, paper.n_rops)
    } else {
        SynthSpec::mixed_mode(&bench.function, paper.n_rops, paper.n_legs, paper.n_vsteps)
    }
    .expect("paper budgets are structurally valid")
    .with_options(EncodeOptions::recommended());
    let synth =
        Synthesizer::new().with_budget(Budget::new().with_deadline(Deadline::after(budget)));
    let outcome = synth.run(&spec).expect("paper specs never fail to encode");
    RowResult {
        status: match outcome.result {
            SynthResult::Realizable(_) => RowStatus::Reproduced,
            SynthResult::Unrealizable => RowStatus::Contradiction,
            SynthResult::Unknown => RowStatus::BudgetExceeded,
        },
        metrics: outcome.circuit().map(|c| c.metrics()),
        n_vars: outcome.encode_stats.n_vars,
        n_clauses: outcome.encode_stats.n_clauses,
        time: outcome.total_time(),
    }
}

/// Checks the optimality certificate of a mixed-mode row: UNSAT at
/// `N_VS − 1` and (for `N_R > 0`) at `N_R − 1`.
pub fn check_optimality(bench: &Benchmark, budget: Duration) -> (RowStatus, RowStatus) {
    let paper = &bench.paper_mm;
    // Each probe gets the whole budget, anchored where it starts.
    let probe = |n_r: usize, n_l: usize, n_vs: usize| -> RowStatus {
        let spec = SynthSpec::mixed_mode(&bench.function, n_r, n_l, n_vs)
            .expect("probe budgets are valid")
            .with_options(EncodeOptions::recommended());
        let synth =
            Synthesizer::new().with_budget(Budget::new().with_deadline(Deadline::after(budget)));
        match synth.run(&spec).expect("probe specs encode").result {
            SynthResult::Unrealizable => RowStatus::Reproduced,
            SynthResult::Realizable(_) => RowStatus::Contradiction,
            SynthResult::Unknown => RowStatus::BudgetExceeded,
        }
    };
    let fewer_steps = probe(paper.n_rops, paper.n_legs, paper.n_vsteps - 1);
    let fewer_rops = probe(
        paper.n_rops - 1,
        SynthSpec::paper_legs(&bench.function, paper.n_rops - 1, bench.is_adder),
        paper.n_vsteps,
    );
    (fewer_steps, fewer_rops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_set_matches_table4_dimensions() {
        let set = benchmarks();
        assert_eq!(set.len(), 5);
        let dims: Vec<(u8, usize)> = set
            .iter()
            .map(|b| (b.function.n_inputs(), b.function.n_outputs()))
            .collect();
        assert_eq!(dims, vec![(3, 2), (5, 3), (7, 4), (4, 4), (4, 2)]);
        for b in &set {
            // Paper consistency: N_St = N_VS + N_R and the leg convention.
            let p = &b.paper_mm;
            assert_eq!(p.n_steps, p.n_vsteps + p.n_rops, "{}", b.name);
            assert_eq!(
                p.n_legs,
                SynthSpec::paper_legs(&b.function, p.n_rops, b.is_adder),
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn one_bit_adder_row_reproduces_quickly() {
        let set = benchmarks();
        let adder = &set[0];
        let result = run_row(adder, false, Duration::from_secs(120));
        assert_eq!(result.status, RowStatus::Reproduced);
        let m = result.metrics.expect("reproduced rows carry metrics");
        assert_eq!(m.n_steps, adder.paper_mm.n_steps);
        assert_eq!(m.n_devices_structural, adder.paper_mm.n_devices);
    }
}
