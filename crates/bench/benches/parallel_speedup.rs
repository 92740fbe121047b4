//! Wall-clock comparison of the portfolio minimization engine at different
//! worker counts, on a Table IV workload.
//!
//! The workload is the 2-bit adder's mixed-mode `N_R` ladder (the paper's
//! outer minimization loop) under a per-call conflict cap. The cap bounds
//! each ladder point to roughly equal solver effort, which is the regime
//! where the portfolio helps most: with one worker the points run back to
//! back, with `N` workers they overlap and the wall-clock approaches the
//! single hardest point. The conflict cap (rather than a time limit) also
//! keeps the reported optimum deterministic across worker counts.
//!
//! On a single-core machine the configurations tie (modulo scheduling
//! noise); any speedup requires real hardware parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_bench::table4;
use mm_sat::Budget;
use mm_synth::optimize;
use mm_synth::{EncodeOptions, Synthesizer};

fn parallel_speedup(c: &mut Criterion) {
    let bench = table4::benchmarks()
        .into_iter()
        .find(|b| b.name == "2-bit adder")
        .expect("Table IV contains the 2-bit adder");
    let synth = Synthesizer::new().with_budget(Budget::new().with_max_conflicts(20_000));
    let opts = EncodeOptions::recommended();

    let mut job_counts = vec![1, 2, optimize::default_jobs()];
    job_counts.sort_unstable();
    job_counts.dedup();

    let mut group = c.benchmark_group("parallel_speedup/adder2_rops_ladder");
    // Each iteration is seconds of solver work; a couple of samples is
    // enough to compare configurations.
    group.sample_size(2);
    for jobs in job_counts {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                optimize::minimize_mixed_mode(&synth, &bench.function, 4, 5, true, &opts, jobs)
                    .expect("adder specs encode")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, parallel_speedup);
criterion_main!(benches);
