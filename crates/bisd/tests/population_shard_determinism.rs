//! Sharded population diagnosis must be *byte-identical* to the
//! sequential walk:
//!
//! * `FastScheme::diagnose_ports_with` returns the identical
//!   [`bisd::DiagnosisResult`] — comparator log in exact record order,
//!   cycles, pause accounting — for every worker count, under both
//!   kernels, equal to the per-memory oracle's sequential walk;
//! * `HuangScheme::diagnose_with` iterates globally with sharded
//!   passes, and its log/iteration/cycle accounting never depends on
//!   the plan or the kernel;
//! * the default plan (one worker per core) used by the
//!   [`DiagnosisScheme::diagnose`] entry points equals the explicit
//!   sequential plan.

use bisd::{DiagnosisKernel, DiagnosisScheme, DrfMode, FastScheme, HuangScheme, MemoryUnderDiagnosis};
use fault_models::{DefectProfile, FaultInjector};
use march::ShardPlan;
use sram_model::{MemConfig, MemoryId};

const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 32];

/// A heterogeneous defective population: mixed word counts and widths
/// (so shard segments cut across value and width classes), every
/// defect class in the mix, one memory left pristine, and enough
/// members that 7- and 32-worker plans produce uneven segments.
fn population(seed: u64, defect_rate: f64) -> Vec<MemoryUnderDiagnosis> {
    let geometries: [(u64, usize); 11] = [
        (32, 8),
        (16, 4),
        (24, 6),
        (32, 8),
        (8, 3),
        (64, 16),
        (16, 4),
        (48, 10),
        (32, 8),
        (16, 16),
        (64, 5),
    ];
    let profile = DefectProfile::with_data_retention(defect_rate);
    geometries
        .iter()
        .enumerate()
        .map(|(index, &(words, width))| {
            let id = MemoryId::new(index as u32);
            let config = MemConfig::new(words, width).expect("valid geometry");
            if index == 4 {
                MemoryUnderDiagnosis::pristine(id, config)
            } else {
                let mut injector = FaultInjector::for_stream(seed, index as u64);
                MemoryUnderDiagnosis::with_defects(id, config, &mut injector, &profile)
                    .expect("defect injection succeeds")
            }
        })
        .collect()
}

#[test]
fn fast_scheme_output_is_byte_identical_for_every_thread_count() {
    for (seed, rate) in [(1u64, 0.02), (42, 0.05)] {
        let mut sequential_population = population(seed, rate);
        let sequential = FastScheme::new(10.0)
            .diagnose_with(ShardPlan::sequential(), &mut sequential_population)
            .expect("sequential run");
        assert!(!sequential.is_clean(), "the population must contain faults");

        for threads in THREAD_COUNTS {
            let mut sharded_population = population(seed, rate);
            let sharded = FastScheme::new(10.0)
                .diagnose_with(ShardPlan::with_threads(threads), &mut sharded_population)
                .expect("sharded run");
            assert_eq!(
                sharded, sequential,
                "fast-scheme output diverged from sequential at {threads} threads (seed {seed})"
            );
            // Byte-identical includes exact record order, not just sets.
            assert_eq!(sharded.log.records(), sequential.log.records());
        }
    }
}

#[test]
fn fast_scheme_drf_modes_and_ablations_shard_identically() {
    // NWRTM (NWRC writes), retention pauses (per-element ageing on
    // every worker) and the LSB-first ablation (order-sensitive
    // delivery) all have to survive sharding bit for bit.
    let schemes = [
        FastScheme::new(10.0),
        FastScheme::new(10.0).with_drf_mode(DrfMode::None),
        FastScheme::new(10.0).with_drf_mode(DrfMode::RetentionPause(100)),
        FastScheme::new(10.0)
            .with_shift_order(serial::ShiftOrder::LsbFirst)
            .with_drf_mode(DrfMode::None),
        FastScheme::new(10.0).with_march_c_minus(),
    ];
    for scheme in schemes
        .into_iter()
        .flat_map(|scheme| DiagnosisKernel::all().map(|k| scheme.with_kernel(k)))
    {
        let mut sequential_population = population(7, 0.03);
        let sequential = scheme
            .diagnose_with(ShardPlan::sequential(), &mut sequential_population)
            .expect("sequential run");
        for threads in THREAD_COUNTS {
            let mut sharded_population = population(7, 0.03);
            let sharded = scheme
                .diagnose_with(ShardPlan::with_threads(threads), &mut sharded_population)
                .expect("sharded run");
            assert_eq!(
                sharded, sequential,
                "{scheme:?} diverged from sequential at {threads} threads"
            );
        }
    }
}

#[test]
fn huang_scheme_output_is_byte_identical_for_every_thread_count() {
    let schemes = [
        HuangScheme::new(10.0),
        HuangScheme::new(10.0).with_retention_pause(100),
        HuangScheme::new(10.0).with_max_iterations(3),
    ];
    for scheme in schemes
        .into_iter()
        .flat_map(|scheme| DiagnosisKernel::all().map(|k| scheme.with_kernel(k)))
    {
        let mut sequential_population = population(11, 0.04);
        let sequential = scheme
            .diagnose_with(ShardPlan::sequential(), &mut sequential_population)
            .expect("sequential run");
        assert!(!sequential.is_clean(), "the population must contain faults");

        for threads in THREAD_COUNTS {
            let mut sharded_population = population(11, 0.04);
            let sharded = scheme
                .diagnose_with(ShardPlan::with_threads(threads), &mut sharded_population)
                .expect("sharded run");
            assert_eq!(
                sharded, sequential,
                "baseline output diverged from sequential at {threads} threads"
            );
            assert_eq!(sharded.iterations, sequential.iterations);
            assert_eq!(sharded.log.records(), sequential.log.records());
        }
    }
}

#[test]
fn both_schemes_are_byte_identical_under_every_strategy() {
    // The population mixes IO widths (the fast scheme's cost model) and
    // cell counts (the baseline's), so cost-weighted segment boundaries
    // differ from even ones — which may not show in the output.
    let fast_sequential = {
        let mut population = population(13, 0.04);
        FastScheme::new(10.0)
            .diagnose_with(ShardPlan::sequential(), &mut population)
            .expect("sequential fast run")
    };
    let huang_sequential = {
        let mut population = population(13, 0.04);
        HuangScheme::new(10.0)
            .diagnose_with(ShardPlan::sequential(), &mut population)
            .expect("sequential baseline run")
    };
    assert!(!fast_sequential.is_clean(), "the population must contain faults");
    for threads in [2, 7, 32] {
        let plan = ShardPlan::with_threads(threads);
        let mut fast_population = population(13, 0.04);
        let fast = FastScheme::new(10.0)
            .diagnose_with(plan, &mut fast_population)
            .expect("sharded fast run");
        assert_eq!(fast, fast_sequential, "fast scheme diverged under {plan}");
        let mut huang_population = population(13, 0.04);
        let huang = HuangScheme::new(10.0)
            .diagnose_with(plan, &mut huang_population)
            .expect("sharded baseline run");
        assert_eq!(huang, huang_sequential, "baseline diverged under {plan}");
    }
}

#[test]
fn default_plan_equals_the_explicit_sequential_plan() {
    // The trait entry points run under `ShardPlan::default()`, one
    // worker per core; for either kernel the result must equal the
    // sequential oracle.
    for kernel in DiagnosisKernel::all() {
        let mut fast_default = population(5, 0.03);
        let fast = FastScheme::new(10.0)
            .with_kernel(kernel)
            .diagnose(&mut fast_default)
            .expect("default fast run");
        let mut fast_sequential = population(5, 0.03);
        let fast_oracle = FastScheme::new(10.0)
            .with_kernel(kernel)
            .diagnose_with(ShardPlan::sequential(), &mut fast_sequential)
            .expect("sequential fast run");
        assert_eq!(
            fast,
            fast_oracle,
            "default-plan {kernel} fast diagnosis diverged under {}",
            ShardPlan::default()
        );

        let mut huang_default = population(5, 0.03);
        let huang = HuangScheme::new(10.0)
            .with_kernel(kernel)
            .diagnose(&mut huang_default)
            .expect("default baseline run");
        let mut huang_sequential = population(5, 0.03);
        let huang_oracle = HuangScheme::new(10.0)
            .with_kernel(kernel)
            .diagnose_with(ShardPlan::sequential(), &mut huang_sequential)
            .expect("sequential baseline run");
        assert_eq!(
            huang,
            huang_oracle,
            "default-plan {kernel} baseline diagnosis diverged under {}",
            ShardPlan::default()
        );
    }
}

#[test]
fn single_memory_population_shards_trivially() {
    // More workers than memories: the plan degenerates to one shard and
    // must not change anything.
    let make = || {
        let mut injector = FaultInjector::for_stream(3, 0);
        vec![MemoryUnderDiagnosis::with_defects(
            MemoryId::new(0),
            MemConfig::new(32, 8).expect("valid geometry"),
            &mut injector,
            &DefectProfile::date2005(0.05),
        )
        .expect("defect injection succeeds")]
    };
    let mut a = make();
    let mut b = make();
    let sequential = FastScheme::new(10.0)
        .diagnose_with(ShardPlan::sequential(), &mut a)
        .expect("sequential run");
    let sharded = FastScheme::new(10.0)
        .diagnose_with(ShardPlan::with_threads(32), &mut b)
        .expect("sharded run");
    assert_eq!(sharded, sequential);
}

#[test]
fn both_kernels_shard_identically_under_every_strategy() {
    // The kernel choice composes with sharding: for each kernel the
    // sharded run must equal the per-memory kernel's sequential walk.
    let oracle = {
        let mut population = population(17, 0.04);
        FastScheme::new(10.0)
            .with_kernel(DiagnosisKernel::PerMemory)
            .diagnose_with(ShardPlan::sequential(), &mut population)
            .expect("sequential oracle run")
    };
    assert!(!oracle.is_clean(), "the population must contain faults");
    for kernel in DiagnosisKernel::all() {
        for threads in THREAD_COUNTS {
            let plan = ShardPlan::with_threads(threads);
            let mut sharded_population = population(17, 0.04);
            let sharded = FastScheme::new(10.0)
                .with_kernel(kernel)
                .diagnose_with(plan, &mut sharded_population)
                .expect("sharded run");
            assert_eq!(
                sharded, oracle,
                "kernel {kernel} diverged from the sequential oracle under {plan}"
            );
        }
    }
}
