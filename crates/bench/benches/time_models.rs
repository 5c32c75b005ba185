//! E1–E4: times the diagnosis-time models (Eq. 1–4), both simulated
//! schemes, and the 512-memory population measurement points (the
//! case-study numbers are the E1–E4 rows of
//! `examples/goldens/paper_results.md`):
//!
//! * `population_golden_soa_512mem` — the golden-state maintenance of
//!   the shared SoA [`GoldenStore`] alone, driven by the fast scheme's
//!   write/read stream;
//! * `fast_scheme_diagnose_512mem_{permem,sharded}` — end-to-end
//!   diagnosis of a 512-memory SoC under the per-memory oracle kernel
//!   and under the default kernel and the `ESRAM_DIAG_THREADS` plan;
//! * `soc_build_512mem_sharded` — SoC construction at population scale;
//! * `fast_scheme_diagnose_case_study_4x512x100` — the bit-parallel
//!   diagnosis of the Sec. 4.2 case study (dense: every member faulty,
//!   so nearly all of it is lane replay of faulty rows);
//! * `score_case_study_4x512x100` — scoring the Sec. 4.2 case study's
//!   bit-parallel diagnosis against its injected faults.

use bench::small_population;
use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{
    CaseStudy, DataBackground, DataBackgroundGenerator, DiagnosisKernel, DiagnosisScheme, DrfMode,
    FastScheme, FaultClass, GoldenStore, HuangScheme, MarchSchedule, MemConfig, ShardPlan, Soc,
};
use esram_exec::THREADS_ENV;
use sram_model::Address;
use std::hint::black_box;
use std::time::Duration;

/// The plan the population benches run under, read from
/// `ESRAM_DIAG_THREADS` (CI pins it to 1 so the perf gate compares like
/// with like).
fn shard_plan() -> ShardPlan {
    ShardPlan::from_env_values(std::env::var(THREADS_ENV).ok().as_deref()).0
}

/// Population size for the SoA measurement points.
const SOA_MEMORIES: usize = 512;

/// Geometry of the SoA population (the S1 scaled geometry).
fn soa_config() -> MemConfig {
    MemConfig::new(64, 16).expect("valid geometry")
}

/// The schedule the fast scheme runs for the SoA population.
fn soa_schedule() -> MarchSchedule {
    FastScheme::new(10.0).with_drf_mode(DrfMode::None).schedule(16)
}

/// Walks the schedule's write/read stream over the population's golden
/// state held in the SoA [`GoldenStore`]; returns a checksum of visited
/// expectations so the work cannot be optimised away.
fn golden_soa_stream(configs: &[MemConfig], schedule: &MarchSchedule) -> usize {
    let generator = DataBackgroundGenerator::new(16);
    let backgrounds: Vec<DataBackground> = schedule.phases().iter().map(|p| p.background).collect();
    let mut store = GoldenStore::new(configs, &generator, &backgrounds);
    let words = configs[0].words();
    let mut checksum = 0usize;
    for (phase_index, phase) in schedule.phases().iter().enumerate() {
        for element in phase.test.elements() {
            for global in 0..words {
                let global = Address::new(global);
                for op in &element.ops {
                    if op.is_write() {
                        store.record_write(phase_index, global, op.value().unwrap_or(false));
                    } else if op.is_read() {
                        for member in 0..configs.len() {
                            checksum = checksum.wrapping_add(store.expected_at(member, global).count_ones());
                        }
                    }
                }
            }
        }
    }
    checksum
}

fn bench_time_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("time_models");
    group.sample_size(10).measurement_time(Duration::from_secs(2));

    group.bench_function("analytic_case_study", |b| {
        b.iter(|| black_box(CaseStudy::date2005().evaluate()))
    });

    group.bench_function("fast_scheme_diagnose_4x64x16", |b| {
        b.iter_batched(
            || small_population(4, 64, 16, 0.01, 42),
            |mut soc| {
                let result = FastScheme::new(10.0)
                    .with_drf_mode(DrfMode::None)
                    .diagnose_with(shard_plan(), soc.memories_mut())
                    .expect("fast run");
                black_box(result.cycles)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("huang_scheme_diagnose_4x64x16", |b| {
        b.iter_batched(
            || small_population(4, 64, 16, 0.01, 42),
            |mut soc| {
                let result = HuangScheme::new(10.0)
                    .diagnose_with(shard_plan(), soc.memories_mut())
                    .expect("baseline run");
                black_box(result.cycles)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // Golden-state maintenance of a 512-memory population in isolation.
    let configs = vec![soa_config(); SOA_MEMORIES];
    let schedule = soa_schedule();
    group.bench_function("population_golden_soa_512mem", |b| {
        b.iter(|| black_box(golden_soa_stream(&configs, &schedule)))
    });

    // The 512-memory diagnosis under the bench plan and, on the same
    // population, under
    // the per-memory oracle kernel: the pair documents the bit-parallel
    // kernel's speedup, and the gap collapsing is the first sign the
    // fast path silently degraded to dense stepping.
    group.bench_function("fast_scheme_diagnose_512mem_permem", |b| {
        b.iter_batched(
            || small_population(SOA_MEMORIES, 64, 16, 0.0005, 42),
            |mut soc| {
                let result = FastScheme::new(10.0)
                    .with_drf_mode(DrfMode::None)
                    .with_kernel(DiagnosisKernel::PerMemory)
                    .diagnose_with(ShardPlan::sequential(), soc.memories_mut())
                    .expect("fast run");
                black_box(result.cycles)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("fast_scheme_diagnose_512mem_sharded", |b| {
        b.iter_batched(
            || small_population(SOA_MEMORIES, 64, 16, 0.0005, 42),
            |mut soc| {
                let result = FastScheme::new(10.0)
                    .with_drf_mode(DrfMode::None)
                    .diagnose_with(shard_plan(), soc.memories_mut())
                    .expect("fast run");
                black_box(result.cycles)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("soc_build_512mem_sharded", |b| {
        b.iter(|| {
            let soc = Soc::builder()
                .memories(SOA_MEMORIES, 64, 16)
                .expect("valid geometry")
                .defect_rate(0.0005)
                .seed(42)
                .spares(32)
                .build_with(shard_plan())
                .expect("population builds");
            black_box(soc.injected_faults())
        })
    });

    // The case-study population (4 x 512 x 100 at 1 %, stuck-at and
    // transition faults, as in the checked-in spec): its diagnosis from
    // the freshly built state, then scoring alone.
    let built = Soc::builder()
        .memories(4, 512, 100)
        .expect("valid geometry")
        .defect_rate(0.01)
        .fault_classes(&[FaultClass::StuckAt, FaultClass::Transition])
        .seed(42)
        .build()
        .expect("population builds");
    group.bench_function("fast_scheme_diagnose_case_study_4x512x100", |b| {
        b.iter_batched(
            || built.clone(),
            |mut soc| {
                let result = FastScheme::new(10.0)
                    .with_drf_mode(DrfMode::None)
                    .diagnose_with(shard_plan(), soc.memories_mut())
                    .expect("fast run");
                black_box(result.log.len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    let mut case_study = built;
    let case_study_result = FastScheme::new(10.0)
        .with_drf_mode(DrfMode::None)
        .diagnose(case_study.memories_mut())
        .expect("fast run");
    group.bench_function("score_case_study_4x512x100", |b| {
        b.iter(|| black_box(case_study.score(&case_study_result).located()))
    });

    group.finish();
}

criterion_group!(benches, bench_time_models);
criterion_main!(benches);
