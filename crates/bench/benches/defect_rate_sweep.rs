//! S1: times the defect-rate sweep of the reduction factor R — analytic
//! for the benchmark geometry, simulated for a scaled-down population.
//! The sweep's results are the S1 rows of `examples/goldens/paper_results.md`.

use bench::small_population;
use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{defect_rate_sweep, AnalyticModel, HuangScheme, ShardPlan};
use esram_exec::THREADS_ENV;
use std::hint::black_box;
use std::time::Duration;

/// The plan the simulated point runs under, read from
/// `ESRAM_DIAG_THREADS` (CI pins it to 1 so the perf gate compares like
/// with like).
fn shard_plan() -> ShardPlan {
    ShardPlan::from_env_values(std::env::var(THREADS_ENV).ok().as_deref()).0
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("defect_rate_sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.bench_function("analytic_sweep_7_points", |b| {
        let model = AnalyticModel::date2005_benchmark();
        let rates = [0.001, 0.0025, 0.005, 0.01, 0.02, 0.05, 0.1];
        b.iter(|| black_box(defect_rate_sweep(&model, &rates)))
    });
    group.bench_function("simulated_point_1pct", |b| {
        let plan = shard_plan();
        b.iter_batched(
            || small_population(4, 64, 16, 0.01, 11),
            |mut soc| {
                black_box(
                    HuangScheme::new(10.0)
                        .diagnose_with(plan, soc.memories_mut())
                        .expect("run")
                        .cycles,
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
