//! Sharded SoC construction must be *bit-identical* to sequential
//! construction: memory `i` draws its defects from RNG stream `i` of
//! the builder seed, so the built population is a pure function of
//! `(seed, index, geometry)` no matter how many workers build it.

use esram_diag::{DiagnosisKernel, DiagnosisScheme, FastScheme, ShardPlan, Soc};
use proptest::prelude::*;

/// Compares two populations member by member: identity, geometry,
/// injected ground truth (bit-identical fault lists), the behavioural
/// memory state (cell faults installed by injection) and spare capacity.
fn assert_bit_identical(a: &Soc, b: &Soc, context: &str) {
    assert_eq!(a.memories().len(), b.memories().len(), "{context}: member count");
    for (left, right) in a.memories().iter().zip(b.memories().iter()) {
        assert_eq!(left.id, right.id, "{context}: memory id");
        assert_eq!(
            left.config(),
            right.config(),
            "{context}: geometry of {}",
            left.id
        );
        assert_eq!(
            left.injected, right.injected,
            "{context}: injected ground truth of {}",
            left.id
        );
        assert_eq!(
            left.sram.cell_faults(),
            right.sram.cell_faults(),
            "{context}: installed cell faults of {}",
            left.id
        );
        assert_eq!(
            left.backup.capacity(),
            right.backup.capacity(),
            "{context}: spare capacity of {}",
            left.id
        );
    }
}

fn build(memories: usize, words: u64, width: usize, rate: f64, seed: u64, drf: bool, plan: ShardPlan) -> Soc {
    let mut builder = Soc::builder()
        .memories(memories, words, width)
        .expect("valid geometry")
        .defect_rate(rate)
        .seed(seed);
    if drf {
        builder = builder.with_data_retention_defects();
    }
    builder.build_with(plan).expect("population builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for any population shape, defect rate and seed, every
    /// worker count builds the same SoC the sequential path builds.
    #[test]
    fn sharded_construction_is_bit_identical_to_sequential(
        memories in 1usize..24,
        words_exp in 3u32..7,
        width in 3usize..17,
        rate_millis in 0u32..200,
        seed in any::<u64>(),
        drf in any::<bool>(),
    ) {
        let words = 1u64 << words_exp;
        let rate = f64::from(rate_millis) / 1000.0;
        let sequential = build(memories, words, width, rate, seed, drf, ShardPlan::sequential());
        for threads in [2, 7, 32] {
            let plan = ShardPlan::with_threads(threads);
            let sharded = build(memories, words, width, rate, seed, drf, plan);
            assert_bit_identical(&sequential, &sharded, &plan.to_string());
        }
    }
}

#[test]
fn default_plan_build_equals_sequential_build() {
    // The plain `build()` runs under `ShardPlan::default()`, one worker
    // per core; it must equal the sequential oracle.
    let make_default = || {
        Soc::builder()
            .memories(37, 64, 16)
            .expect("valid geometry")
            .memory(32, 8)
            .expect("valid geometry")
            .defect_rate(0.02)
            .with_data_retention_defects()
            .seed(99)
            .build()
            .expect("population builds")
    };
    let sequential = Soc::builder()
        .memories(37, 64, 16)
        .expect("valid geometry")
        .memory(32, 8)
        .expect("valid geometry")
        .defect_rate(0.02)
        .with_data_retention_defects()
        .seed(99)
        .build_with(ShardPlan::sequential())
        .expect("population builds");
    assert_bit_identical(
        &make_default(),
        &sequential,
        &format!("default plan ({})", ShardPlan::default()),
    );
}

#[test]
fn sharded_and_sequential_builds_diagnose_identically() {
    // End-to-end corroboration: identical construction implies
    // identical diagnosis: sites, mismatch count and cycles.
    for kernel in DiagnosisKernel::all() {
        let mut sequential = build(12, 32, 8, 0.05, 7, true, ShardPlan::sequential());
        let mut sharded = build(12, 32, 8, 0.05, 7, true, ShardPlan::with_threads(7));
        let scheme = FastScheme::new(10.0).with_kernel(kernel);
        let a = scheme
            .diagnose(sequential.memories_mut())
            .expect("diagnosis runs");
        let b = scheme.diagnose(sharded.memories_mut()).expect("diagnosis runs");
        assert_eq!(a, b, "{kernel} diagnosis diverged");
        assert!(!a.is_clean(), "the population must contain faults");
    }
}

#[test]
fn benchmark_population_builds_identically_at_every_worker_count() {
    // The paper's 512 × 100 benchmark geometry at population scale —
    // the exact shape the parallel builder exists for (kept to a
    // 64-memory slice so the debug-mode suite stays fast; the bench
    // exercises the full 512).
    let sequential = Soc::builder()
        .memories(64, 512, 100)
        .expect("valid geometry")
        .defect_rate(0.01)
        .seed(2005)
        .build_with(ShardPlan::sequential())
        .expect("population builds");
    assert!(sequential.injected_faults() > 0);
    for threads in [2usize, 7, 32] {
        let plan = ShardPlan::with_threads(threads);
        let sharded = Soc::builder()
            .memories(64, 512, 100)
            .expect("valid geometry")
            .defect_rate(0.01)
            .seed(2005)
            .build_with(plan)
            .expect("population builds");
        assert_bit_identical(&sequential, &sharded, &format!("benchmark, {plan}"));
    }
}
