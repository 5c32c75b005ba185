//! End-to-end integration tests spanning every crate: SoC construction,
//! defect injection, diagnosis with both schemes, scoring and repair.

use esram_diag::{
    Address, AnalyticModel, CaseStudy, DiagnosisScheme, DrfMode, FastScheme, FaultClass, HuangScheme, Soc,
};
use std::collections::BTreeSet;

/// Builds the same defective population twice (same seed) so both
/// schemes can be compared on identical ground truth.
fn defective_soc(seed: u64) -> Soc {
    Soc::builder()
        .memories(4, 64, 16)
        .unwrap()
        .memory(32, 8)
        .unwrap()
        .defect_rate(0.01)
        .seed(seed)
        .spares(16)
        .build()
        .unwrap()
}

#[test]
fn proposed_scheme_is_faster_and_at_least_as_accurate_as_the_baseline() {
    let mut baseline_soc = defective_soc(500);
    let mut fast_soc = defective_soc(500);
    assert_eq!(baseline_soc.injected_faults(), fast_soc.injected_faults());

    let baseline = HuangScheme::new(10.0)
        .diagnose(baseline_soc.memories_mut())
        .unwrap();
    let fast = FastScheme::new(10.0).diagnose(fast_soc.memories_mut()).unwrap();

    // The headline result: the proposed scheme wins, by a large factor,
    // on the same defect population.
    let reduction = fast.speedup_versus(&baseline);
    assert!(
        reduction > 5.0,
        "simulated reduction factor too small: {reduction}"
    );
    assert_eq!(fast.iterations, 1);
    assert!(baseline.iterations >= 1);

    // And it locates at least as many of the injected faults.
    let baseline_score = baseline_soc.score(&baseline);
    let fast_score = fast_soc.score(&fast);
    assert!(fast_score.location_coverage() >= baseline_score.location_coverage());
}

#[test]
fn reduction_factor_grows_with_the_defect_rate() {
    let mut reductions = Vec::new();
    for (seed, rate) in [(1u64, 0.005), (1, 0.02)] {
        let build = || {
            Soc::builder()
                .memories(2, 64, 16)
                .unwrap()
                .defect_rate(rate)
                .seed(seed)
                .build()
                .unwrap()
        };
        let mut baseline_soc = build();
        let mut fast_soc = build();
        let baseline = HuangScheme::new(10.0)
            .diagnose(baseline_soc.memories_mut())
            .unwrap();
        let fast = FastScheme::new(10.0).diagnose(fast_soc.memories_mut()).unwrap();
        reductions.push(fast.speedup_versus(&baseline));
    }
    assert!(
        reductions[1] > reductions[0],
        "higher defect rate must favour the proposed scheme more: {reductions:?}"
    );
}

#[test]
fn drf_coverage_is_the_decisive_difference_between_the_schemes() {
    let build = || {
        Soc::builder()
            .memories(2, 32, 8)
            .unwrap()
            .defect_rate(0.05)
            .with_data_retention_defects()
            .seed(9)
            .build()
            .unwrap()
    };

    let mut baseline_soc = build();
    let baseline = HuangScheme::new(10.0)
        .diagnose(baseline_soc.memories_mut())
        .unwrap();
    let baseline_score = baseline_soc.score(&baseline);

    let mut fast_soc = build();
    let fast = FastScheme::new(10.0).diagnose(fast_soc.memories_mut()).unwrap();
    let fast_score = fast_soc.score(&fast);

    // The population contains DRFs (seeded); the baseline misses all of
    // them while NWRTM finds them.
    assert!(baseline_score
        .injected_by_class
        .contains_key(&FaultClass::DataRetention));
    assert_eq!(baseline_score.class_coverage(FaultClass::DataRetention), 0.0);
    assert_eq!(fast_score.class_coverage(FaultClass::DataRetention), 1.0);
    assert_eq!(fast.pause_ms, 0.0, "NWRTM must not pause");
}

#[test]
fn pause_based_drf_testing_costs_hundreds_of_milliseconds_nwrtm_does_not() {
    let build = || {
        Soc::builder()
            .memories(1, 32, 8)
            .unwrap()
            .defect_rate(0.02)
            .with_data_retention_defects()
            .seed(3)
            .build()
            .unwrap()
    };
    let mut pause_soc = build();
    let paused = FastScheme::new(10.0)
        .with_drf_mode(DrfMode::RetentionPause(100))
        .diagnose(pause_soc.memories_mut())
        .unwrap();
    let mut nwrtm_soc = build();
    let nwrtm = FastScheme::new(10.0).diagnose(nwrtm_soc.memories_mut()).unwrap();

    assert!(paused.time_ms() >= 200.0);
    assert!(nwrtm.time_ms() < 10.0);
    // Both locate the same DRFs.
    assert_eq!(
        pause_soc.score(&paused).class_coverage(FaultClass::DataRetention),
        nwrtm_soc.score(&nwrtm).class_coverage(FaultClass::DataRetention)
    );
}

#[test]
fn repair_consumes_spares_and_clears_located_addresses() {
    let mut soc = defective_soc(77);
    let result = FastScheme::new(10.0).diagnose(soc.memories_mut()).unwrap();
    assert!(!result.is_clean());
    let unrepaired = soc.repair_from(&result);
    assert_eq!(
        unrepaired, 0,
        "16 spares per memory must suffice at a 1 % defect rate"
    );
    // Each memory is repaired at exactly its own failing words: a
    // heterogeneous five-memory SoC, several of them faulty.
    assert_eq!(soc.memories().len(), 5);
    let faulty = soc
        .memories()
        .iter()
        .filter(|m| !result.failing_addresses(m.id).is_empty())
        .count();
    assert!(faulty >= 2, "only {faulty} memories need repair");
    for memory in soc.memories() {
        let repaired: BTreeSet<Address> = memory.backup.repaired_addresses().into_iter().collect();
        assert_eq!(repaired, result.failing_addresses(memory.id), "{}", memory.id);
        for address in result.failing_addresses(memory.id) {
            assert!(memory.backup.is_repaired(address));
        }
    }
}

#[test]
fn simulated_fast_scheme_cycles_match_the_analytic_model_for_the_benchmark_geometry() {
    // Single benchmark-sized memory, no defects, no DRF pass: the
    // simulated cycle count must equal Eq. (2) exactly.
    let mut soc = Soc::builder().memory(512, 100).unwrap().build().unwrap();
    let result = FastScheme::new(10.0)
        .with_drf_mode(DrfMode::None)
        .diagnose(soc.memories_mut())
        .unwrap();
    let analytic = AnalyticModel::date2005_benchmark();
    assert_eq!(result.cycles, analytic.proposed_cycles());
    assert!((result.time_ms() - analytic.proposed_time().total_ms()).abs() < 1e-9);
}

#[test]
fn analytic_case_study_and_simulation_agree_on_the_winner_everywhere() {
    let report = CaseStudy::date2005().evaluate();
    assert!(report.reduction_without_drf > 1.0);
    assert!(report.reduction_with_drf > report.reduction_without_drf);

    // Simulated small-scale analogue: same ordering.
    let mut baseline_soc = defective_soc(123);
    let mut fast_soc = defective_soc(123);
    let baseline = HuangScheme::new(10.0)
        .diagnose(baseline_soc.memories_mut())
        .unwrap();
    let fast = FastScheme::new(10.0).diagnose(fast_soc.memories_mut()).unwrap();
    assert!(fast.time_ns() < baseline.time_ns());
}

#[test]
fn heterogeneous_population_with_wrapping_small_memories_diagnoses_cleanly() {
    // Pristine population whose smallest memory wraps many times while
    // the largest is swept: no false positives from either scheme.
    let mut soc = Soc::builder()
        .memory(256, 20)
        .unwrap()
        .memory(16, 4)
        .unwrap()
        .memory(8, 3)
        .unwrap()
        .build()
        .unwrap();
    let fast = FastScheme::new(10.0).diagnose(soc.memories_mut()).unwrap();
    assert!(fast.is_clean());
    let mut soc2 = Soc::builder()
        .memory(256, 20)
        .unwrap()
        .memory(16, 4)
        .unwrap()
        .memory(8, 3)
        .unwrap()
        .build()
        .unwrap();
    let baseline = HuangScheme::new(10.0).diagnose(soc2.memories_mut()).unwrap();
    assert!(baseline.is_clean());
}
