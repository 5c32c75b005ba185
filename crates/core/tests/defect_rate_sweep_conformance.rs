//! Benchmark-scale defect-rate sweep (ROADMAP item): the analytic sweep
//! (`esram_diag::defect_rate_sweep`) models the baseline's iteration
//! count with the paper's `k = ⌈0.75·F/2⌉` estimate; with the packed +
//! sharded core, both schemes can now be *simulated* end to end at the
//! paper's 512 × 100 geometry across the full rate grid, so the
//! estimate is checked against simulated behaviour at every rate:
//!
//! * the fast scheme locates every injected fault in one pass, with an
//!   Eq.-(2) cycle count that is byte-identical across all rates
//!   (defect-count independence at benchmark scale);
//! * the baseline's simulated `M1` iteration count tracks the paper's
//!   `k` estimate (same linear-in-F regime) and its cycle count matches
//!   Eq. (1) exactly at the simulated `k`;
//! * the simulated reduction factor grows with the defect rate, as the
//!   analytic sweep's monotone `R` curve predicts.
//!
//! Kept `#[ignore]` so the default debug run stays fast; CI's release
//! job executes it with `cargo test --release -- --ignored`.

use esram_diag::{
    defect_rate_sweep, AnalyticModel, DiagnosisScheme, DrfMode, FastScheme, FaultSimKernel, HuangScheme,
    MemoryId, MemoryUnderDiagnosis,
};
use fault_models::{DefectProfile, FaultInjector};
use march::{algorithms, FaultSimulator};
use testutil::{stuck_at_population, SEEDS};

const CLOCK_NS: f64 = 10.0;

/// The full rate grid of the benchmark sweep (the analytic S1 bench
/// sweeps the same points).
const RATE_GRID: [f64; 7] = [0.001, 0.0025, 0.005, 0.01, 0.02, 0.05, 0.1];

fn defective(defects: usize, seed: u64) -> Vec<MemoryUnderDiagnosis> {
    let config = testutil::benchmark_geometry();
    let faults = stuck_at_population(config, defects, seed);
    vec![MemoryUnderDiagnosis::with_faults(MemoryId::new(0), config, faults).expect("injects")]
}

#[test]
#[ignore = "benchmark-scale: run in release mode (CI release job, --ignored)"]
fn benchmark_scale_defect_rate_sweep_tracks_the_paper_k_estimate() {
    let model = AnalyticModel::date2005_benchmark();
    let analytic = defect_rate_sweep(&model, &RATE_GRID);
    assert_eq!(analytic.len(), RATE_GRID.len());

    let mut previous_reduction = 0.0f64;
    let mut fast_cycles_at_first_rate = None;
    for (point, &rate) in analytic.iter().zip(RATE_GRID.iter()) {
        let faults = model.max_faults_for_defect_rate(rate) as usize;
        assert_eq!(
            point.faults, faults as u64,
            "analytic row disagrees on F at rate {rate}"
        );
        let k_paper = AnalyticModel::iterations_for_faults(faults as u64).max(1);
        assert_eq!(
            point.iterations, k_paper,
            "analytic row disagrees on k at rate {rate}"
        );

        // Simulate the fast scheme: every fault located in one pass,
        // Eq. (2) exactly, independent of the rate.
        let mut fast_memories = defective(faults, SEEDS[2]);
        let fast = FastScheme::new(CLOCK_NS)
            .with_drf_mode(DrfMode::None)
            .diagnose(&mut fast_memories)
            .expect("fast scheme runs at benchmark scale");
        assert_eq!(fast.iterations, 1, "the fast scheme never iterates (rate {rate})");
        assert_eq!(
            fast.cycles,
            model.proposed_cycles(),
            "Eq. (2) must hold exactly at rate {rate}"
        );
        let located = fast.sites(MemoryId::new(0)).len();
        assert_eq!(
            located, faults,
            "the fast scheme must locate all {faults} injected faults at rate {rate}"
        );
        if let Some(first) = fast_cycles_at_first_rate {
            assert_eq!(
                fast.cycles, first,
                "fast-scheme time must be defect-count independent"
            );
        } else {
            fast_cycles_at_first_rate = Some(fast.cycles);
        }

        // Simulate the baseline: Eq. (1) holds at the *simulated* k,
        // every fault is located, and the simulated iteration count
        // tracks the paper's ⌈0.75·F/2⌉ estimate — same linear-in-F
        // regime, within a factor-of-two band (the estimate assumes
        // 0.75 locations per address pass; the simulated interface
        // locates up to two per shift direction).
        let mut huang_memories = defective(faults, SEEDS[2]);
        let huang = HuangScheme::new(CLOCK_NS)
            .diagnose(&mut huang_memories)
            .expect("baseline runs at benchmark scale");
        assert_eq!(
            huang.cycles,
            model.baseline_cycles(huang.iterations),
            "Eq. (1) must hold exactly at the simulated k (rate {rate})"
        );
        assert_eq!(
            huang.sites(MemoryId::new(0)).len(),
            faults,
            "the baseline must locate all {faults} injected faults at rate {rate}"
        );
        let ratio = huang.iterations as f64 / k_paper as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "simulated k = {} must track the paper's estimate k = {k_paper} at rate {rate} \
             (ratio {ratio:.2})",
            huang.iterations
        );

        // The simulated reduction factor reproduces the analytic sweep's
        // monotone growth with the defect rate.
        let reduction = huang.cycles as f64 / fast.cycles as f64;
        assert!(
            reduction > previous_reduction,
            "simulated R = {reduction:.1} must grow with the defect rate (was {previous_reduction:.1})"
        );
        assert!(
            point.reduction_without_drf > 0.0 && reduction > 0.0,
            "both reduction factors must be positive at rate {rate}"
        );
        previous_reduction = reduction;
    }
}

/// The sweep's March-level fault simulation under the default lane
/// kernel must be indistinguishable — outcome for outcome, verdicts
/// and failing sites — from the frozen per-memory oracle at
/// every rate of the grid. This is the defect-rate-sweep edge of the
/// lane-kernel equivalence contract: the property suite proves it on
/// random universes, this test pins it on the exact benchmark-scale
/// populations the sweep simulates.
#[test]
#[ignore = "benchmark-scale: run in release mode (CI release job, --ignored)"]
fn benchmark_scale_sweep_universes_agree_across_fault_sim_kernels() {
    let config = testutil::benchmark_geometry();
    let schedule = algorithms::march_cw(config.width());
    let lanes = FaultSimulator::new(config).with_kernel(FaultSimKernel::Lanes);
    let permem = FaultSimulator::new(config).with_kernel(FaultSimKernel::PerMemory);
    for &rate in &RATE_GRID {
        let universe = FaultInjector::with_seed(SEEDS[2]).generate(config, &DefectProfile::date2005(rate));
        let lane_outcomes = lanes.simulate_universe(&schedule, &universe);
        let permem_outcomes = permem.simulate_universe(&schedule, &universe);
        assert_eq!(
            lane_outcomes, permem_outcomes,
            "lane and per-memory kernels disagree on the rate-{rate} sweep universe"
        );
    }
}
