//! P7: fleet-scale batched diagnosis — where serial job dispatch loses.
//!
//! A characterisation lot diagnoses many independent SoCs, each too
//! small to occupy the executor on its own: a job with three memories
//! cannot use more than three workers, so running jobs one after the
//! other leaves most of an 8-worker machine idle at every job
//! boundary. The fleet runner flattens all jobs' members into one
//! global cost-weighted work list, so the only idle time left is the
//! final partial segment of the *whole fleet*.
//!
//! This host may have a single core, so the bench measures the
//! **modeled critical path** (the pattern of `fault_sim_heterogeneous`):
//! the wall-clock of the most loaded worker under a modeled
//! `MODEL_WORKERS`-worker partition, obtained by *executing* exactly
//! that worker's member share sequentially. The partitions come from
//! the same pure function the executor uses ([`cost_ranges`]), fed by
//! the fleet plan's own calibrated costs
//! ([`FleetPlan::member_costs`]):
//!
//! * `serial_jobs_critical_path_8w` — jobs dispatched one at a time,
//!   each alone on the 8 workers: the modeled wall-clock is the *sum*
//!   of every job's own bottleneck share (one 512×100 member per job —
//!   the small members ride along on otherwise idle workers).
//! * `batched_cost_8w` — the whole fleet in one run: the bottleneck
//!   worker of the global cost-weighted partition over all members.
//! * `fleet_end_to_end_sequential` — one full [`FleetRunner::run`]
//!   (build + plan + diagnose) on one thread: the total work, and a
//!   standing proof the batched pipeline runs end to end.
//!
//! The batched bottleneck must beat serial dispatch by at least
//! [`REQUIRED_SPEEDUP`]× in modeled cost — asserted deterministically
//! from the cost table, so the claim cannot silently rot on a noisy
//! host — and the measured entries record what that means in
//! wall-clock. The CI perf gate (`perf_gate --strict --prefix fleet`)
//! keeps every entry within 2× of the committed ledger.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{DiagnosisResult, FastScheme, FleetJob, FleetPlan, FleetRunner, Soc};
use esram_exec::cost_ranges;
use march::ShardPlan;
use sram_model::{MemoryId, Sram};
use std::hint::black_box;
use std::ops::Range;

/// Modeled worker count for the critical-path partitions.
const MODEL_WORKERS: usize = 8;

/// Minimum modeled speedup of batched over serial dispatch.
const REQUIRED_SPEEDUP: f64 = 2.0;

/// The fleet: 32 mixed-geometry SoCs, each one benchmark-sized e-SRAM
/// (512×100, from [16]) plus two small buffers — small enough that a
/// solo job can never load more than three of the eight workers.
fn fleet_jobs() -> Vec<FleetJob> {
    (0..32u64)
        .map(|index| {
            FleetJob::new(
                Soc::builder()
                    .memory(512, 100)
                    .expect("valid geometry")
                    .memory(64, 16)
                    .expect("valid geometry")
                    .memory(96, 24)
                    .expect("valid geometry")
                    .defect_rate(0.01)
                    .seed(0xF1EE7 + index),
                FastScheme::new(10.0),
            )
        })
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

/// Replays the flattened members of `ranges` through their jobs'
/// population plans — exactly the work the modeled bottleneck worker
/// executes. `starts[job]` is the job's offset in the flat member list.
fn run_share(plan: &FleetPlan, socs: &mut [Soc], starts: &[usize], ranges: &[Range<usize>]) -> usize {
    let jobs = plan.member_jobs();
    let mut located = 0;
    for range in ranges {
        let mut index = range.start;
        while index < range.end {
            let job = jobs[index];
            let end = (starts[job] + socs[job].memories().len()).min(range.end);
            let base = index - starts[job];
            let mut pairs: Vec<(MemoryId, &mut Sram)> = socs[job].memories_mut()[base..end - starts[job]]
                .iter_mut()
                .map(|m| (m.id, &mut m.sram))
                .collect();
            let outcome = plan
                .population_plan(job)
                .run_segment(base, &mut pairs)
                .expect("segment replays");
            drop(outcome);
            located += 1;
            index = end;
        }
    }
    located
}

/// Per-job serial baselines (1 thread), for the identity check.
fn serial_results(jobs: &[FleetJob]) -> Vec<DiagnosisResult> {
    jobs.iter()
        .map(|job| {
            let mut soc = job
                .builder()
                .clone()
                .build_with(ShardPlan::with_threads(1))
                .unwrap();
            job.scheme()
                .diagnose_with(ShardPlan::with_threads(1), soc.memories_mut())
                .unwrap()
        })
        .collect()
}

fn bench_fleet(c: &mut Criterion) {
    let jobs = fleet_jobs();
    let runner = FleetRunner::new(ShardPlan::with_threads(1));
    let plan = runner.plan(&jobs).expect("fleet plans");
    let costs = plan.member_costs();
    let member_jobs = plan.member_jobs();
    let mut starts = vec![0usize; jobs.len()];
    let mut lens = vec![0usize; jobs.len()];
    for (index, &job) in member_jobs.iter().enumerate() {
        if index == 0 || member_jobs[index - 1] != job {
            starts[job] = index;
        }
        lens[job] += 1;
    }

    // Serial dispatch: each job partitioned alone over the 8 workers;
    // the fleet's modeled wall-clock is the sum of per-job bottlenecks.
    let mut serial_share: Vec<Range<usize>> = Vec::new();
    let mut serial_modeled: u128 = 0;
    for job in 0..jobs.len() {
        let (start, len) = (starts[job], lens[job]);
        let job_costs = &costs[start..start + len];
        let local = bottleneck_contiguous(job_costs, cost_ranges(job_costs, MODEL_WORKERS));
        serial_modeled += modeled_cost(job_costs, &local);
        serial_share.extend(
            local
                .into_iter()
                .map(|range| start + range.start..start + range.end),
        );
    }

    // Batched dispatch: one global partition over every member.
    let cost = bottleneck_contiguous(&costs, cost_ranges(&costs, MODEL_WORKERS));
    let cost_modeled = modeled_cost(&costs, &cost);
    let cost_speedup = serial_modeled as f64 / cost_modeled as f64;
    assert!(
        cost_speedup >= REQUIRED_SPEEDUP,
        "batched dispatch must model a >= {REQUIRED_SPEEDUP}x win over serial job dispatch \
         (cost {cost_speedup:.2}x, serial bottleneck {serial_modeled})"
    );

    // The batched pipeline must be byte-identical to per-job serial
    // runs before its speed is worth recording.
    let baseline = serial_results(&jobs);
    let outcomes = FleetRunner::new(ShardPlan::with_threads(MODEL_WORKERS))
        .run_all(&jobs)
        .expect("fleet runs");
    assert_eq!(outcomes.len(), baseline.len());
    for (outcome, expected) in outcomes.iter().zip(&baseline) {
        assert_eq!(outcome.result(), expected, "fleet output must match solo runs");
    }

    let mut socs = runner.build(&plan).expect("fleet builds");
    let mut group = c.benchmark_group("fleet_batch_throughput");
    group.sample_size(10);
    group.bench_function("serial_jobs_critical_path_8w", |b| {
        b.iter(|| black_box(run_share(&plan, &mut socs, &starts, &serial_share)))
    });
    group.bench_function("batched_cost_8w", |b| {
        b.iter(|| black_box(run_share(&plan, &mut socs, &starts, &cost)))
    });
    group.bench_function("fleet_end_to_end_sequential", |b| {
        b.iter(|| {
            black_box(
                FleetRunner::new(ShardPlan::with_threads(1))
                    .run_all(&jobs)
                    .unwrap()
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
