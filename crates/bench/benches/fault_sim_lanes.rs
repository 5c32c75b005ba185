//! P2: lane-parallel fault simulation — the 64-lane kernel against the
//! frozen per-memory kernel.
//!
//! Comparator roles:
//!
//! * `*_lanes` — the current library path: [`FaultSimKernel::Lanes`],
//!   which simulates one representative per equivalent single-cell
//!   fault, packs up to 64 compatible faults into the bit lanes of a
//!   `u64` and replays each march schedule once per batch over the
//!   union of the batch's pruned rows.
//! * `*_permem` — the earlier architecture, kept as the
//!   [`FaultSimKernel::PerMemory`] kernel: one pruned `Sram` replay per
//!   fault. This is the equivalence oracle, not a strawman — identical
//!   sharding, pruning and golden-run gating, differing in the kernel
//!   and in simulating every fault rather than representatives.
//!
//! Both kernels must agree on detections (asserted before timing); the
//! committed ledger pair records the speedup (acceptance bar: >= 4x at
//! benchmark scale, single thread).
//! These entries feed the CI perf gate (`perf_gate --strict --prefix
//! fault_sim_lanes/`). When refreshing the committed ledger, run with
//! `ESRAM_DIAG_THREADS=1` (as CI's gate run does) so the entries do not
//! encode the recording machine's core count.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_exec::THREADS_ENV;
use fault_models::{DefectProfile, FaultInjector, FaultList, FaultUniverse};
use march::{algorithms, FaultSimKernel, FaultSimulator, MarchSchedule, ShardPlan};
use sram_model::MemConfig;
use std::hint::black_box;
use testutil::{benchmark_geometry, SEEDS};

/// Detections under the given kernel, on the plan `ESRAM_DIAG_THREADS`
/// selects — the measured unit of work.
fn simulate(sim: &FaultSimulator, schedule: &MarchSchedule, universe: &FaultList) -> usize {
    let plan = ShardPlan::from_env_values(std::env::var(THREADS_ENV).ok().as_deref()).0;
    sim.simulate_universe_with(plan, schedule, universe)
        .iter()
        .filter(|outcome| outcome.detected)
        .count()
}

fn kernel_sim(config: MemConfig, kernel: FaultSimKernel) -> FaultSimulator {
    FaultSimulator::new(config).with_kernel(kernel)
}

/// The benchmark-scale workload: the leading slice of the exhaustive
/// stuck-at universe at the paper's 512 × 100 geometry. This is the
/// shape the Sec. 4.1 coverage evaluation simulates — row-major, 200
/// faults per row. The lane kernel simulates only 400 representatives
/// (two values × two row phases × 100 bits) in seven lane batches and
/// expands their verdicts to the other faults, while the per-memory
/// kernel resets and replays a memory per fault.
fn coverage_slice(config: MemConfig, count: usize) -> FaultList {
    FaultUniverse::new(config)
        .stuck_at()
        .iter()
        .take(count)
        .copied()
        .collect()
}

/// The Sec. 4.2 defect-rate sweep point: the paper's 1 % defect rate
/// over the benchmark geometry, drawing from all four baseline defect
/// classes — so coupling batches, lane batches and decoder singles
/// (pruned to their deviation rows, never batched) are all exercised.
fn defect_rate_point(config: MemConfig) -> FaultList {
    FaultInjector::with_seed(SEEDS[2]).generate(config, &DefectProfile::date2005(0.01))
}

fn bench_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim_lanes");
    group.sample_size(10);

    let config = benchmark_geometry();
    let schedule = algorithms::march_cw(config.width());
    let universe = coverage_slice(config, 8192);
    let lanes = kernel_sim(config, FaultSimKernel::Lanes);
    let permem = kernel_sim(config, FaultSimKernel::PerMemory);
    let lanes_detected = simulate(&lanes, &schedule, &universe);
    let permem_detected = simulate(&permem, &schedule, &universe);
    assert_eq!(
        lanes_detected, permem_detected,
        "lane and per-memory kernels must agree on detections"
    );
    group.bench_function("benchmark_scale_lanes", |b| {
        b.iter(|| black_box(simulate(&lanes, &schedule, &universe)))
    });
    group.bench_function("benchmark_scale_permem", |b| {
        b.iter(|| black_box(simulate(&permem, &schedule, &universe)))
    });

    let sweep_universe = defect_rate_point(config);
    let sweep_lanes_detected = simulate(&lanes, &schedule, &sweep_universe);
    let sweep_permem_detected = simulate(&permem, &schedule, &sweep_universe);
    assert_eq!(
        sweep_lanes_detected, sweep_permem_detected,
        "kernels must agree on the defect-rate sweep point"
    );
    group.bench_function("defect_rate_point_lanes", |b| {
        b.iter(|| black_box(simulate(&lanes, &schedule, &sweep_universe)))
    });
    group.bench_function("defect_rate_point_permem", |b| {
        b.iter(|| black_box(simulate(&permem, &schedule, &sweep_universe)))
    });
    group.finish();
}

criterion_group!(benches, bench_lanes);
criterion_main!(benches);
