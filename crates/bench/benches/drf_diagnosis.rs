//! F6 and the DRF half of E4: times NWRTM diagnosis of a population with
//! data-retention defects against diagnosis without it. The coverage
//! and pause comparison is the F6 rows of `examples/goldens/paper_results.md`.

use bench::drf_population;
use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{DiagnosisScheme, DrfMode, FastScheme};
use std::hint::black_box;
use std::time::Duration;

fn bench_drf(c: &mut Criterion) {
    let mut group = c.benchmark_group("drf_diagnosis");
    group.sample_size(10).measurement_time(Duration::from_secs(2));

    group.bench_function("nwrtm_diagnosis_2x64x16", |b| {
        b.iter_batched(
            || drf_population(2, 64, 16, 0.02, 7),
            |mut soc| {
                black_box(
                    FastScheme::new(10.0)
                        .diagnose(soc.memories_mut())
                        .expect("run")
                        .cycles,
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("no_drf_diagnosis_2x64x16", |b| {
        b.iter_batched(
            || drf_population(2, 64, 16, 0.02, 7),
            |mut soc| {
                black_box(
                    FastScheme::new(10.0)
                        .with_drf_mode(DrfMode::None)
                        .diagnose(soc.memories_mut())
                        .expect("run")
                        .cycles,
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_drf);
criterion_main!(benches);
