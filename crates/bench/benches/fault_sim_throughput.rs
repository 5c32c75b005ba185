//! P1: fault-simulation throughput — the sharded + pruned library path
//! ([`FaultSimulator::simulate_universe_with`]): shared
//! `SchedulePatterns`, golden-run-gated single-row pruning and sharding
//! under the plan `ESRAM_DIAG_THREADS` selects (default: one worker per
//! core), on the S1 scaled geometry and at benchmark scale.
//!
//! These entries feed the CI perf gate (`perf_gate`), which fails a
//! release build when a fresh run regresses more than 2x against the
//! committed `BENCH_results.json`. When refreshing that committed
//! ledger, run this bench with `ESRAM_DIAG_THREADS=1` (as CI's gate run
//! does) so the `*_sharded` baselines do not encode the recording
//! machine's core count.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_exec::THREADS_ENV;
use fault_models::FaultList;
use march::{algorithms, FaultSimulator, MarchSchedule, ShardPlan};
use sram_model::MemConfig;
use std::hint::black_box;
use testutil::{stuck_at_population, SEEDS};

/// S1 scaled-down geometry (as used by the simulated defect-rate sweep).
fn s1_config() -> MemConfig {
    MemConfig::new(64, 16).expect("valid geometry")
}

/// The paper's benchmark geometry.
fn benchmark_config() -> MemConfig {
    testutil::benchmark_geometry()
}

/// The plan the bench runs under, read from `ESRAM_DIAG_THREADS`.
fn shard_plan() -> ShardPlan {
    ShardPlan::from_env_values(std::env::var(THREADS_ENV).ok().as_deref()).0
}

/// The current library path: sharded + pruned batched simulation.
fn simulate_sharded(sim: &FaultSimulator, schedule: &MarchSchedule, universe: &FaultList) -> usize {
    sim.simulate_universe_with(shard_plan(), schedule, universe)
        .iter()
        .filter(|outcome| outcome.detected)
        .count()
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim_throughput");
    group.sample_size(10);

    let s1 = s1_config();
    let s1_universe = stuck_at_population(s1, 64, SEEDS[0]);
    let s1_schedule = algorithms::march_cw(s1.width());
    let s1_sim = FaultSimulator::new(s1);
    group.bench_function("s1_sharded", |b| {
        b.iter(|| black_box(simulate_sharded(&s1_sim, &s1_schedule, &s1_universe)))
    });

    let bench_geometry = benchmark_config();
    let bench_universe = stuck_at_population(bench_geometry, 64, SEEDS[1]);
    let bench_schedule = algorithms::march_cw(bench_geometry.width());
    let bench_sim = FaultSimulator::new(bench_geometry);
    group.bench_function("benchmark_scale_sharded", |b| {
        b.iter(|| black_box(simulate_sharded(&bench_sim, &bench_schedule, &bench_universe)))
    });
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
