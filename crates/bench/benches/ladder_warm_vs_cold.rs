//! Warm (incremental) vs cold minimality ladders on Table IV workloads.
//!
//! The cold engine re-encodes and re-solves `Φ(f)` from scratch at every
//! rung; the warm engine encodes once at the top rung with disable-literal
//! guards, then walks the whole two-phase ladder (outer `N_R`, inner
//! `N_VS`) on one long-lived solver, flipping assumptions between rungs so
//! every learned clause carries over. This bench measures end-to-end
//! ladder wall-clock for both engines on the same minimization — the
//! acceptance target is warm ≥ 1.3× faster. Reference numbers on the dev
//! container: 1-bit adder ≈ 1.7× (one worker and 4-worker portfolio
//! alike), GF(2^2) multiplier mixed-mode ≈ 1.5×, its inner step ladder
//! ≈ 1.2×.
//!
//! Run with `cargo bench --bench ladder_warm_vs_cold`. The `*_serial`
//! groups run the ladder with one worker, isolating the reuse effect (no
//! portfolio overlap to hide it behind); the final groups add the 4-worker
//! portfolio with bus clause sharing and the inprocessing on/off
//! comparison on the warm engine (restart-boundary subsumption +
//! vivification on the long-lived solver; reference: ≈ 2.2× further
//! speedup on the adder's warm mixed-mode ladder, with the diversified
//! portfolio ≈ 1.5×).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_bench::table4;
use mm_sat::Budget;
use mm_synth::optimize;
use mm_synth::{EncodeOptions, Synthesizer};

fn engines() -> [(&'static str, Synthesizer); 2] {
    [
        ("cold", Synthesizer::new()),
        ("warm", Synthesizer::new().with_incremental(true)),
    ]
}

fn table4_function(name: &str) -> mm_boolfn::MultiOutputFn {
    table4::benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("Table IV contains {name}"))
        .function
}

fn ladder_warm_vs_cold(c: &mut Criterion) {
    let opts = EncodeOptions::recommended();
    let adder1 = table4_function("1-bit adder");
    let gf22 = table4_function("GF(2^2) multipl.");

    // Full two-phase mixed-mode ladder on the 1-bit adder with one worker:
    // the outer rungs up to the first SAT, then the inner step ladder.
    let mut group = c.benchmark_group("ladder_warm_vs_cold/adder1_serial");
    group.sample_size(10);
    for (name, synth) in engines() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &synth, |b, synth| {
            b.iter(|| {
                optimize::minimize_mixed_mode(synth, &adder1, 4, 4, true, &opts, 1)
                    .expect("adder specs encode")
            })
        });
    }
    group.finish();

    // The GF(2^2) multiplier's inner step ladder at the paper's optimal
    // N_R = 4: the heaviest UNSAT rung (N_VS = 2) dominates, and the warm
    // engine attacks it with every clause learned on the rungs before it.
    let mut group = c.benchmark_group("ladder_warm_vs_cold/gf22_vsteps_serial");
    group.sample_size(2);
    for (name, synth) in engines() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &synth, |b, synth| {
            b.iter(|| {
                optimize::minimize_vsteps(synth, &gf22, 4, 6, 3, &opts, 1)
                    .expect("gf22 specs encode")
            })
        });
    }
    group.finish();

    // Portfolio variant: per-worker solver reuse plus bus clause sharing.
    let mut group = c.benchmark_group("ladder_warm_vs_cold/adder1_portfolio_j4");
    group.sample_size(10);
    for (name, synth) in engines() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &synth, |b, synth| {
            b.iter(|| {
                optimize::minimize_mixed_mode(synth, &adder1, 4, 4, true, &opts, 4)
                    .expect("adder specs encode")
            })
        });
    }
    group.finish();

    // Inprocessing ablation on the warm engine: the same adder ladder with
    // restart-boundary inprocessing enabled (default) vs disabled via the
    // budget knob. One worker isolates the clause-database effect; the j4
    // portfolio adds per-worker diversification (seed/phase/restart
    // policy) on top.
    let inprocess_engines = |jobs_label: &'static str| {
        [
            (
                format!("{jobs_label}/inprocess"),
                Synthesizer::new().with_incremental(true),
            ),
            (
                format!("{jobs_label}/no-inprocess"),
                Synthesizer::new()
                    .with_incremental(true)
                    .with_budget(Budget::new().with_inprocess(false)),
            ),
        ]
    };
    let mut group = c.benchmark_group("ladder_warm_vs_cold/adder1_inprocess");
    group.sample_size(10);
    for (jobs_label, jobs) in [("serial", 1), ("j4", 4)] {
        for (name, synth) in inprocess_engines(jobs_label) {
            group.bench_with_input(BenchmarkId::from_parameter(name), &synth, |b, synth| {
                b.iter(|| {
                    optimize::minimize_mixed_mode(synth, &adder1, 4, 4, true, &opts, jobs)
                        .expect("adder specs encode")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, ladder_warm_vs_cold);
criterion_main!(benches);
