//! E6: times the Sec. 4.3 area-overhead model (transistor counts in
//! 6T-cell equivalents and global-wire accounting). The area results
//! themselves are the E6 rows of `examples/goldens/paper_results.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::area::AreaModel;
use esram_diag::MemConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_area(c: &mut Criterion) {
    let mut group = c.benchmark_group("area_overhead");
    group.sample_size(10).measurement_time(Duration::from_secs(1));
    let configs: Vec<MemConfig> = (0..64)
        .map(|i| MemConfig::new(64 + i, 8 + (i as usize % 32)).expect("valid"))
        .collect();
    group.bench_function("population_area_report_64_memories", |b| {
        let model = AreaModel::date2005();
        b.iter(|| black_box(model.report_for_population(&configs)))
    });
    group.finish();
}

criterion_group!(benches, bench_area);
criterion_main!(benches);
