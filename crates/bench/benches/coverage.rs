//! E5: times Sec. 4.1 coverage evaluation by exhaustive single-fault
//! simulation. The coverage results are the E5 rows of
//! `examples/goldens/paper_results.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{algorithms, scheme_coverage, DataBackground, FastScheme, FaultUniverse, MemConfig};
use march::FaultSimulator;
use std::hint::black_box;
use std::time::Duration;

fn bench_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage");
    group.sample_size(10).measurement_time(Duration::from_secs(2));

    let config = MemConfig::new(8, 4).expect("valid geometry");
    let stuck_at = FaultUniverse::new(config).stuck_at();
    group.bench_function("march_fault_sim_stuck_at_universe", |b| {
        let simulator = FaultSimulator::new(config);
        let test = algorithms::march_c_minus();
        b.iter(|| black_box(simulator.coverage(&test, &stuck_at, &[DataBackground::Solid])))
    });

    let drf = FaultUniverse::new(config).data_retention();
    group.bench_function("scheme_coverage_drf_universe", |b| {
        b.iter(|| black_box(scheme_coverage(&FastScheme::new(10.0), config, &drf)))
    });

    group.finish();
}

criterion_group!(benches, bench_coverage);
criterion_main!(benches);
