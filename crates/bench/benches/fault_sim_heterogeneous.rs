//! P4: heterogeneous-universe scheduling — where even chunking loses.
//!
//! Real fault universes are cost-skewed: after golden-run-gated pruning,
//! almost every fault sweeps one or two rows (single-row cell classes one,
//! decoder faults their one or two deviation rows) while stuck-open faults
//! still sweep the whole address space — and universes are enumerated
//! class by class, so the expensive faults *cluster* at the tail of the
//! list. Contiguous equal-count chunks then hand one unlucky worker
//! nearly all of the work.
//!
//! This host may have a single core, so the bench measures what actually
//! distinguishes the partitions: the **critical path** — the wall-clock
//! of the most loaded worker under a modeled `MODEL_WORKERS`-worker
//! partition, obtained by *executing* exactly that worker's fault share
//! sequentially. The partitions come from the same pure functions the
//! executor uses ([`even_ranges`], [`cost_ranges`]), but they are a
//! model of the executor's, not its own: they partition the raw
//! [`rows_swept`] of each fault of the uncollapsed universe, while the
//! executor under the default lane kernel partitions lane batches and
//! per-fault singles over the collapsed universe (one representative per
//! equivalent single-cell fault), priced by `sweep_cost`. The measured
//! entries are the wall-clock of each modeled partition's bottleneck
//! share, which the simulator runs through its full pipeline:
//!
//! * `critical_path_even_8w` — equal-count chunks (the pre-executor
//!   partition): the tail chunk holds every full-sweep fault.
//! * `critical_path_cost_8w` — cost-weighted chunk boundaries from
//!   prefix sums of each fault's raw row count.
//! * `whole_universe_sequential` — the total work, for reference (the
//!   ideal critical path is total/8).
//!
//! The cost-weighted entry must beat the even one; the
//! committed `BENCH_results.json` records the ratio, and the CI perf
//! gate (`perf_gate --prefix fault_sim_heterogeneous/`) keeps every
//! entry within 2x of it.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_exec::{cost_ranges, even_ranges};
use fault_models::{FaultList, FaultUniverse, MemoryFault};
use march::{algorithms, FaultSimulator, MarchSchedule, ShardPlan};
use sram_model::cell::CellCoord;
use sram_model::{Address, MemConfig};
use std::hint::black_box;
use std::ops::Range;

/// Modeled worker count for the critical-path partitions.
const MODEL_WORKERS: usize = 8;

/// The paper's benchmark geometry.
fn benchmark_config() -> MemConfig {
    testutil::benchmark_geometry()
}

/// The mixed universe, 400 faults at 512 x 100: 360 pruned single-row
/// stuck-at faults spread over the address space, then 20 decoder
/// faults pruned to their deviation rows and 20 full-sweep stuck-open
/// faults clustered at the tail, as class-by-class enumeration produces
/// them.
fn heterogeneous_universe(config: MemConfig) -> FaultList {
    let mut universe = FaultList::new();
    let rows = config.words();
    for index in 0..360u64 {
        let site = CellCoord::new(
            Address::new(index * 7 % rows),
            (index % config.width() as u64) as usize,
        );
        universe.push(if index % 2 == 0 {
            MemoryFault::stuck_at_0(site)
        } else {
            MemoryFault::stuck_at_1(site)
        });
    }
    let enumerated = FaultUniverse::new(config);
    for fault in enumerated.address_decoder().iter().take(20) {
        universe.push(*fault);
    }
    for fault in enumerated.stuck_open().iter().take(20) {
        universe.push(*fault);
    }
    universe
}

/// Rows one fault's sweep visits after a passing golden run: its one or
/// two deviation rows, or the whole address space for a fault without
/// any (stuck-open). The bench partitions faults in these units; the
/// simulator prices its own work items with `sweep_cost` of their rows.
fn rows_swept(config: MemConfig, fault: &MemoryFault) -> u64 {
    match fault.deviation_rows() {
        Some((_, None)) => 1,
        Some((_, Some(_))) => 2,
        None => config.words(),
    }
}

/// Extracts the faults of one index set into a standalone universe.
fn sub_universe(universe: &FaultList, ranges: &[Range<usize>]) -> FaultList {
    let faults = universe.as_slice();
    ranges
        .iter()
        .flat_map(|range| faults[range.clone()].iter().copied())
        .collect()
}

/// Modeled cost of an index set.
fn modeled_cost(costs: &[u64], ranges: &[Range<usize>]) -> u128 {
    ranges
        .iter()
        .flat_map(|range| range.clone())
        .map(|index| u128::from(costs[index]))
        .sum()
}

/// The most expensive shard of a contiguous partition, as a range set.
fn bottleneck_contiguous(costs: &[u64], ranges: Vec<Range<usize>>) -> Vec<Range<usize>> {
    ranges
        .into_iter()
        .max_by_key(|range| modeled_cost(costs, std::slice::from_ref(range)))
        .map(|range| vec![range])
        .unwrap_or_default()
}

fn detections(sim: &FaultSimulator, schedule: &MarchSchedule, universe: &FaultList) -> usize {
    sim.simulate_universe_with(ShardPlan::sequential(), schedule, universe)
        .iter()
        .filter(|outcome| outcome.detected)
        .count()
}

fn bench_heterogeneous(c: &mut Criterion) {
    let config = benchmark_config();
    let sim = FaultSimulator::new(config);
    let schedule = algorithms::march_cw(config.width());
    let universe = heterogeneous_universe(config);
    let costs: Vec<u64> = universe.iter().map(|fault| rows_swept(config, fault)).collect();

    let even = bottleneck_contiguous(&costs, even_ranges(universe.len(), MODEL_WORKERS));
    let cost = bottleneck_contiguous(&costs, cost_ranges(&costs, MODEL_WORKERS));
    let (even_cost, cost_cost) = (modeled_cost(&costs, &even), modeled_cost(&costs, &cost));
    assert!(
        cost_cost < even_cost,
        "the cost-weighted bottleneck ({cost_cost}) must beat even chunking ({even_cost}) on the \
         clustered universe"
    );

    // Both partitions must agree on what the universe contains.
    let whole = detections(&sim, &schedule, &universe);
    for (name, ranges) in [("even", &even), ("cost", &cost)] {
        let sub = sub_universe(&universe, ranges);
        let partial = detections(&sim, &schedule, &sub);
        assert!(
            partial <= whole,
            "{name} bottleneck shard detected more faults than the whole universe"
        );
    }

    let mut group = c.benchmark_group("fault_sim_heterogeneous");
    group.sample_size(10);
    let even_universe = sub_universe(&universe, &even);
    group.bench_function("critical_path_even_8w", |b| {
        b.iter(|| black_box(detections(&sim, &schedule, &even_universe)))
    });
    let cost_universe = sub_universe(&universe, &cost);
    group.bench_function("critical_path_cost_8w", |b| {
        b.iter(|| black_box(detections(&sim, &schedule, &cost_universe)))
    });
    group.bench_function("whole_universe_sequential", |b| {
        b.iter(|| black_box(detections(&sim, &schedule, &universe)))
    });
    group.finish();
}

criterion_group!(benches, bench_heterogeneous);
criterion_main!(benches);
