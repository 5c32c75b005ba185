//! E1–E4: diagnosis-time models (Eq. 1–4) and the Sec. 4.2 case study,
//! plus a cycle-accurate simulated comparison of both schemes and the
//! 512-memory population measurement points:
//!
//! * `population_golden_soa_512mem` — the golden-state maintenance of
//!   the shared SoA [`GoldenStore`] alone, driven by the fast scheme's
//!   write/read stream;
//! * `fast_scheme_diagnose_512mem_{permem,sharded}` — end-to-end
//!   diagnosis of a 512-memory SoC under the per-memory oracle kernel
//!   and under the default kernel and plan;
//! * `soc_build_512mem_sharded` — SoC construction at population scale;
//! * `score_case_study_4x512x100` — scoring the Sec. 4.2 case study's
//!   bit-parallel diagnosis against its injected faults.

use bench::{print_section, small_population};
use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{
    AnalyticModel, CaseStudy, DataBackground, DataBackgroundGenerator, DiagnosisKernel, DiagnosisScheme,
    DrfMode, FastScheme, FaultClass, GoldenStore, HuangScheme, MarchSchedule, MemConfig, ShardPlan, Soc,
};
use sram_model::Address;
use std::hint::black_box;
use std::time::Duration;

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

fn print_case_study() {
    print_section("E1-E4: Sec. 4.2 case study (n = 512, c = 100, t = 10 ns, 1 % defects)");
    let report = CaseStudy::date2005().evaluate();
    print!("{}", report.to_table());
    println!("paper: R >= 84 without DRFs, R >= 145 with DRFs");

    let model = AnalyticModel::date2005_benchmark();
    println!(
        "\nEq. (1) baseline cycles (k = 96): {}\nEq. (2) proposed cycles:          {}",
        model.baseline_cycles(96),
        model.proposed_cycles()
    );
}

fn print_simulated_comparison() {
    print_section("E1-E4 (simulated): cycle-accurate comparison on a shared defect population");
    println!(
        "{:<34} {:>14} {:>12} {:>10} {:>8}",
        "scheme", "cycles", "time (ms)", "located", "iters"
    );
    let mut rows = Vec::new();
    for (label, rate) in [
        ("0.5 % defects", 0.005),
        ("1 % defects", 0.01),
        ("2 % defects", 0.02),
    ] {
        let mut baseline_soc = small_population(4, 64, 16, rate, 42);
        let baseline = HuangScheme::new(10.0)
            .diagnose(baseline_soc.memories_mut())
            .expect("baseline run");
        let mut fast_soc = small_population(4, 64, 16, rate, 42);
        let fast = FastScheme::new(10.0)
            .with_drf_mode(DrfMode::None)
            .diagnose(fast_soc.memories_mut())
            .expect("fast run");
        println!(
            "{:<34} {:>14} {:>12.4} {:>10} {:>8}",
            format!("baseline [7,8], {label}"),
            baseline.cycles,
            baseline.time_ms(),
            baseline.located_count(),
            baseline.iterations
        );
        println!(
            "{:<34} {:>14} {:>12.4} {:>10} {:>8}",
            format!("proposed,       {label}"),
            fast.cycles,
            fast.time_ms(),
            fast.located_count(),
            fast.iterations
        );
        rows.push((label, fast.speedup_versus(&baseline)));
    }
    println!();
    for (label, reduction) in rows {
        println!("simulated reduction factor R at {label}: {reduction:.1}");
    }
}

fn bench_time_models(c: &mut Criterion) {
    print_case_study();
    print_simulated_comparison();

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
                    .diagnose(soc.memories_mut())
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
                    .diagnose(soc.memories_mut())
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

    // The 512-memory diagnosis under the library plan
    // (`ESRAM_DIAG_THREADS`-overridable; CI pins it to 1 so the perf
    // gate compares like with like) and, on the same population, under
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
                    .diagnose_with(ShardPlan::from_env(), soc.memories_mut())
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
                .build_with(ShardPlan::from_env())
                .expect("population builds");
            black_box(soc.injected_faults())
        })
    });

    // Scoring alone, on the case-study population (4 x 512 x 100 at
    // 1 %, stuck-at and transition faults, as in the checked-in spec)
    // and its bit-parallel diagnosis.
    let mut case_study = Soc::builder()
        .memories(4, 512, 100)
        .expect("valid geometry")
        .defect_rate(0.01)
        .fault_classes(&[FaultClass::StuckAt, FaultClass::Transition])
        .seed(42)
        .build()
        .expect("population builds");
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
