//! Structural and coverage conformance of the March algorithm library:
//! element/operation counts must match the paper's notation and the
//! detection claims of Sec. 4.1 must hold over exhaustive fault
//! universes.

use fault_models::{FaultClass, FaultUniverse};
use march::{algorithms, DataBackground, FaultSimulator, MarchRunner};
use sram_model::{MemConfig, Sram};
use testutil::small_geometry_grid;

/// The notation arithmetic: `operation_count` is exactly
/// `complexity_per_address · words` and splits into reads + writes for
/// pause-free tests.
#[test]
fn operation_counts_follow_the_notation_across_the_grid() {
    for config in small_geometry_grid() {
        let words = config.words();
        for test in [
            algorithms::mats_plus(),
            algorithms::march_c_minus(),
            algorithms::diag_rs_march_m1(),
            algorithms::diag_rs_march_base(),
        ] {
            assert_eq!(
                test.operation_count(words),
                test.complexity_per_address() as u64 * words,
                "{} on {config}",
                test.name()
            );
            assert_eq!(
                test.operation_count(words),
                test.read_count(words) + test.write_count(words),
                "{} must be reads + writes",
                test.name()
            );
        }
    }
}

/// March CW runs March C− once plus the intra-word group under
/// `max(1, ⌈log2 c⌉)` binary backgrounds, for any width.
#[test]
fn march_cw_phase_count_tracks_log2_of_the_width() {
    for (width, expected_backgrounds) in [
        (1usize, 1usize),
        (2, 1),
        (3, 2),
        (4, 2),
        (5, 3),
        (8, 3),
        (16, 4),
        (20, 5),
        (100, 7),
    ] {
        let schedule = algorithms::march_cw(width);
        assert_eq!(schedule.phases().len(), 1 + expected_backgrounds, "width {width}");
        // 10n for March C− plus 5n per background phase.
        assert_eq!(
            schedule.complexity_per_address(),
            10 + 5 * expected_backgrounds,
            "width {width}"
        );
    }
}

/// A fault-free memory passes every library algorithm (including the
/// NWRTM and retention-pause variants) under every standard background,
/// with the operation count predicted by the notation.
#[test]
fn fault_free_memories_pass_every_algorithm_on_the_grid() {
    for config in small_geometry_grid() {
        let tests = [
            algorithms::mats_plus(),
            algorithms::march_c_minus(),
            algorithms::with_nwrtm(&algorithms::march_c_minus()),
            algorithms::with_retention_pauses(&algorithms::march_c_minus(), 100),
            algorithms::diag_rs_march_m1(),
            algorithms::diag_rs_march_base(),
        ];
        for test in tests {
            for background in [
                DataBackground::Solid,
                DataBackground::Checkerboard,
                DataBackground::ColumnStripe,
            ] {
                let mut sram = Sram::new(config);
                let outcome = MarchRunner::new()
                    .run_test(&mut sram, &test, background)
                    .expect("run succeeds");
                assert!(
                    outcome.passed(),
                    "{} under {background:?} on {config} must pass fault-free",
                    test.name()
                );
            }
        }
    }
}

/// Sec. 4.1 core claims: March C− detects and locates the complete
/// stuck-at and transition universes; MATS+ detects all stuck-at faults
/// but misses some transition faults.
#[test]
fn march_c_minus_covers_stuck_at_and_transition_universes_completely() {
    let config = MemConfig::new(16, 4).unwrap();
    let universe = FaultUniverse::new(config);
    let simulator = FaultSimulator::new(config);
    let solid = [DataBackground::Solid];

    let stuck_at = simulator.coverage(&algorithms::march_c_minus(), &universe.stuck_at(), &solid);
    assert_eq!(stuck_at.total(), 16 * 4 * 2);
    assert_eq!(stuck_at.detection_coverage(), 1.0);
    assert_eq!(stuck_at.location_coverage(), 1.0);

    let transition = simulator.coverage(&algorithms::march_c_minus(), &universe.transition(), &solid);
    assert_eq!(transition.detection_coverage(), 1.0);
    assert_eq!(transition.location_coverage(), 1.0);

    let mats_stuck = simulator.coverage(&algorithms::mats_plus(), &universe.stuck_at(), &solid);
    assert_eq!(mats_stuck.detection_coverage(), 1.0);
    let mats_transition = simulator.coverage(&algorithms::mats_plus(), &universe.transition(), &solid);
    assert!(
        mats_transition.detection_coverage() < 1.0,
        "MATS+ must miss some transition faults ({})",
        mats_transition.detection_coverage()
    );
}

/// The NWRTM merge is what buys data-retention coverage: the plain test
/// sees nothing of the DRF universe, the merged test detects and locates
/// all of it, with zero pause time.
#[test]
fn nwrtm_merge_buys_full_drf_coverage_without_pausing() {
    let config = MemConfig::new(16, 4).unwrap();
    let universe = FaultUniverse::new(config).data_retention();
    let simulator = FaultSimulator::new(config);
    let solid = [DataBackground::Solid];

    let plain = simulator.coverage(&algorithms::march_c_minus(), &universe, &solid);
    assert_eq!(
        plain.detection_coverage(),
        0.0,
        "plain March C- must miss every DRF"
    );

    let nwrtm_test = algorithms::with_nwrtm(&algorithms::march_c_minus());
    let nwrtm = simulator.coverage(&nwrtm_test, &universe, &solid);
    assert_eq!(nwrtm.detection_coverage(), 1.0);
    assert_eq!(nwrtm.location_coverage(), 1.0);
    assert!(!nwrtm_test.has_pause(), "NWRTM must not pause");

    // The pause-based alternative reaches the same coverage but carries
    // the 200 ms pause the paper eliminates.
    let paused_test = algorithms::with_retention_pauses(&algorithms::march_c_minus(), 100);
    let paused = simulator.coverage(&paused_test, &universe, &solid);
    assert_eq!(paused.detection_coverage(), 1.0);
    assert_eq!(paused_test.pause_ms(), 200);
}

/// Per-class breakdown: the DRF class entry is what separates the two
/// DRF strategies; the baseline classes agree.
#[test]
fn coverage_report_class_breakdown_is_consistent() {
    let config = MemConfig::new(8, 3).unwrap();
    let universe = FaultUniverse::new(config);
    let simulator = FaultSimulator::new(config);
    let full = universe.date2005_full();
    let report = simulator.coverage(
        &algorithms::with_nwrtm(&algorithms::march_c_minus()),
        &full,
        &[DataBackground::Solid],
    );
    assert_eq!(report.total(), full.len());
    let drf = report
        .class(FaultClass::DataRetention)
        .expect("DRF class present");
    assert_eq!(drf.detection(), 1.0);
    // The summed class totals account for the whole universe.
    let class_total: usize = report.classes().map(|(_, c)| c.total).sum();
    assert_eq!(class_total, full.len());
}
