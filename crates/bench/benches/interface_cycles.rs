//! F2/F4/F5: times the serial access fabrics — the bi-directional serial
//! interface and the SPC/PSC pair. Their cycle costs and the Sec. 3.2
//! MSB-first vs LSB-first delivery ablation are rows of
//! `examples/goldens/paper_results.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{DataWord, MemConfig};
use serial::{
    BidirectionalSerialInterface, ParallelToSerialConverter, SerialToParallelConverter, ShiftDirection,
    ShiftOrder,
};
use sram_model::Sram;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Duration;

fn bench_interfaces(c: &mut Criterion) {
    let mut group = c.benchmark_group("interface_cycles");
    group.sample_size(10).measurement_time(Duration::from_secs(2));

    let wide_pattern = DataWord::checkerboard(100, 0, false);
    group.bench_function("spc_deliver_100_bits", |b| {
        b.iter(|| {
            let mut spc = SerialToParallelConverter::new(100);
            spc.deliver(&wide_pattern, ShiftOrder::MsbFirst);
            black_box(spc.parallel_out())
        })
    });

    group.bench_function("psc_serialize_100_bits", |b| {
        let mut psc = ParallelToSerialConverter::new(100);
        b.iter(|| black_box(psc.serialize(&wide_pattern)))
    });

    group.bench_function("bidirectional_element_64x16", |b| {
        let config = MemConfig::new(64, 16).expect("geometry");
        let element = esram_diag::algorithms::march_c_minus().elements()[1].clone();
        let interface = BidirectionalSerialInterface::new(16);
        b.iter_batched(
            || Sram::new(config),
            |mut sram| {
                let outcome = interface
                    .run_element(
                        &mut sram,
                        &element,
                        esram_diag::DataBackground::Solid,
                        ShiftDirection::Right,
                        &BTreeSet::new(),
                    )
                    .expect("element runs");
                black_box(outcome.cycles)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_interfaces);
criterion_main!(benches);
