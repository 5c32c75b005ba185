//! S2: times diagnosis across memory geometries. The reduction factor
//! across geometries is the S2 rows of `examples/goldens/paper_results.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{DiagnosisScheme, DrfMode, FastScheme, Soc};
use std::hint::black_box;
use std::time::Duration;

fn bench_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("size_sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for (words, width) in [(32u64, 8usize), (128, 16)] {
        group.bench_function(format!("fast_diagnose_{words}x{width}"), |b| {
            b.iter_batched(
                || {
                    Soc::builder()
                        .memory(words, width)
                        .expect("geometry")
                        .defect_rate(0.01)
                        .seed(21)
                        .build()
                        .expect("population")
                },
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
    }
    group.finish();
}

criterion_group!(benches, bench_size);
criterion_main!(benches);
