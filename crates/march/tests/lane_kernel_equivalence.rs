//! The lane-parallel fault-simulation kernel must be *observationally
//! identical* to the per-memory kernel it replaces:
//!
//! * for every fault class and for widths straddling the `u64` limb
//!   boundary (63, 64, 65) plus the paper's benchmark width (100),
//!   `simulate_universe*` returns identical outcomes — the production
//!   contract of fault, detection verdict, location verdict and
//!   distinct failing sites — and each kernel's outcomes hold the
//!   contract's invariants (sites strictly ascending, detected exactly
//!   when a site fails, located exactly when the fault's own cell or
//!   decoder address fails);
//! * coverage reports fold identically under both kernels;
//! * universes larger than 64 lane-eligible faults (forcing multiple
//!   batches), faults sharing rows inside one batch, and coupling
//!   faults whose shared aggressor rows force batch splits all agree
//!   with the per-fault oracle.

use fault_models::{FaultList, FaultUniverse, MemoryFault};
use march::{algorithms, FaultSimKernel, FaultSimulator, MarchSchedule, ShardPlan};
use proptest::prelude::*;
use sram_model::cell::CellCoord;
use sram_model::{Address, CellFault, CouplingKind, MemConfig};

/// The widths the suite sweeps: one under, at and over the `u64` limb
/// boundary, plus the DATE 2005 benchmark IO width.
const WIDTHS: [usize; 4] = [63, 64, 65, 100];

fn cfg(words: u64, width: usize) -> MemConfig {
    MemConfig::new(words, width).unwrap()
}

/// The production programme at a given width: March CW with NWRTM
/// merged into the last phase, exercising every modelled fault class.
fn nwrtm_schedule(width: usize) -> MarchSchedule {
    let cw = algorithms::march_cw(width);
    cw.map_last_phase(format!("{} + NWRTM", cw.name()), algorithms::with_nwrtm)
}

/// A universe touching every fault class at the given geometry. The
/// class lists are concatenated and strided so the suite stays fast in
/// debug builds while every class, row and lane-batching shape (shared
/// rows, multi-limb bits, coupling pairs, full-sweep fallbacks) stays
/// represented.
fn every_class_universe(config: MemConfig, stride: usize) -> FaultList {
    let universe = FaultUniverse::new(config);
    let mut all = universe.date2005_full();
    all.extend(universe.read_disturb());
    all.extend(universe.stuck_open());
    all.iter().step_by(stride.max(1)).copied().collect()
}

fn lanes(config: MemConfig) -> FaultSimulator {
    FaultSimulator::new(config).with_kernel(FaultSimKernel::Lanes)
}

fn permem(config: MemConfig) -> FaultSimulator {
    FaultSimulator::new(config).with_kernel(FaultSimKernel::PerMemory)
}

#[test]
fn outcomes_and_coverage_agree_for_every_fault_class_and_width() {
    for width in WIDTHS {
        let words = if width >= 100 { 4 } else { 6 };
        let config = cfg(words, width);
        // Stride keeps each width's universe near a thousand faults —
        // far beyond one 64-lane batch — without minutes of debug-mode
        // oracle time.
        let universe = every_class_universe(config, 13);
        assert!(
            universe.len() > 64,
            "universe at width {width} must overflow one lane batch"
        );
        let schedule = nwrtm_schedule(width);
        let fast = lanes(config).simulate_universe(&schedule, &universe);
        let oracle = permem(config).simulate_universe(&schedule, &universe);
        assert_eq!(
            fast, oracle,
            "lane-kernel outcomes diverged from the per-memory kernel at width {width}"
        );
        for outcome in fast.iter().chain(&oracle) {
            let sites = &outcome.sites;
            assert!(
                sites.windows(2).all(|pair| pair[0] < pair[1]),
                "sites of {} are not strictly ascending at width {width}",
                outcome.fault
            );
            assert_eq!(
                outcome.detected,
                !sites.is_empty(),
                "{} at width {width}",
                outcome.fault
            );
            let own_site_fails = match outcome.fault {
                MemoryFault::Cell { coord, .. } => sites.contains(&coord),
                MemoryFault::Decoder(decoder) => sites.iter().any(|site| site.address == decoder.address),
            };
            assert_eq!(
                outcome.located, own_site_fails,
                "{} at width {width}",
                outcome.fault
            );
        }
        // The agreement is not vacuous: the programme detects and
        // locates faults in this universe.
        assert!(fast.iter().any(|o| o.detected && o.located));
        // Coverage reports (class counts, detection and location
        // tallies) fold identically.
        let fast_coverage = lanes(config).coverage_schedule(&schedule, &universe);
        let oracle_coverage = permem(config).coverage_schedule(&schedule, &universe);
        assert_eq!(
            fast_coverage, oracle_coverage,
            "coverage reports diverged at width {width}"
        );
    }
}

#[test]
fn detection_sites_agree_fault_by_fault() {
    // Outcome equality already implies identical sites; this spells the
    // detection-site claim out so a future relaxation of
    // `FaultSimOutcome`'s `PartialEq` cannot silently weaken the suite.
    let config = cfg(6, 65);
    let universe = every_class_universe(config, 29);
    let schedule = nwrtm_schedule(65);
    let fast = lanes(config).simulate_universe(&schedule, &universe);
    let oracle = permem(config).simulate_universe(&schedule, &universe);
    for (a, b) in fast.iter().zip(&oracle) {
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.located, b.located);
        assert_eq!(a.sites, b.sites, "failing sites diverged for {}", a.fault);
    }
}

#[test]
fn over_64_faults_sharing_rows_split_into_agreeing_batches() {
    // 2 words × 100 bits of stuck-at faults: 400 single-row faults on
    // just two distinct rows. Lanes are independent, so the batcher
    // packs row-sharing faults freely — seven batches minimum — and the
    // outcomes still must match fault by fault.
    let config = cfg(2, 100);
    let universe = FaultUniverse::new(config).stuck_at();
    assert!(universe.len() == 400);
    let schedule = nwrtm_schedule(100);
    let fast = lanes(config).simulate_universe(&schedule, &universe);
    let oracle = permem(config).simulate_universe(&schedule, &universe);
    assert_eq!(fast, oracle);
    // Every stuck-at fault is both detected and located by March CW.
    assert!(fast.iter().all(|o| o.detected && o.located));
}

#[test]
fn coupling_faults_sharing_aggressor_rows_force_splits_and_still_agree() {
    // Eighty coupling faults that all name row 0 as the aggressor row:
    // the pairwise-disjoint row-set rule means no two of them can share
    // a coupling batch, so the batcher is forced to split — and the
    // outcomes must survive the splitting.
    let config = cfg(8, 64);
    let mut universe = FaultList::new();
    let modes = [
        CouplingKind::Idempotent {
            aggressor_rises: true,
            forced_value: true,
        },
        CouplingKind::Idempotent {
            aggressor_rises: false,
            forced_value: false,
        },
        CouplingKind::Inversion {
            aggressor_rises: true,
        },
        CouplingKind::State {
            aggressor_value: true,
            forced_value: false,
        },
    ];
    let mut i = 0usize;
    while universe.len() < 80 {
        let victim_row = 1 + (i as u64 % 7);
        let victim = CellCoord::new(Address::new(victim_row), i % 64);
        let aggressor = CellCoord::new(Address::new(0), (i * 7) % 64);
        universe.push(MemoryFault::cell(
            victim,
            CellFault::Coupling {
                aggressor,
                kind: modes[i % modes.len()],
            },
        ));
        i += 1;
    }
    let schedule = nwrtm_schedule(64);
    let fast = lanes(config).simulate_universe(&schedule, &universe);
    let oracle = permem(config).simulate_universe(&schedule, &universe);
    assert_eq!(fast, oracle);
    // And both kernels agree with the unpruned single-fault sweep.
    let sim = permem(config);
    for (fault, outcome) in universe.iter().zip(&fast) {
        let unpruned = sim.simulate_fault_schedule(&schedule, fault);
        assert_eq!(
            &unpruned, outcome,
            "lane outcome diverged from the unpruned oracle for {fault}"
        );
    }
}

#[test]
fn failing_golden_runs_fall_back_identically() {
    // A programme whose golden run fails disables lane batching
    // entirely (the batcher sends everything down the per-fault path);
    // both kernels must return the same full-sweep outcomes.
    use march::{AddressOrder, DataBackground, MarchElement, MarchOp, MarchTest};
    let pathological = MarchTest::new(
        "read-before-write",
        vec![MarchElement::new(
            AddressOrder::Either,
            vec![MarchOp::Read(true), MarchOp::Write(true)],
        )],
    );
    let schedule = MarchSchedule::single(pathological, DataBackground::Solid);
    let config = cfg(4, 63);
    let universe = every_class_universe(config, 17);
    let fast = lanes(config).simulate_universe(&schedule, &universe);
    let oracle = permem(config).simulate_universe(&schedule, &universe);
    assert_eq!(fast, oracle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: a random multiset of faults drawn from the every-class
    /// universe — big enough to force several lane batches, with
    /// repeated rows and arbitrary class mixes — simulates identically
    /// under both kernels and under sharded plans.
    #[test]
    fn random_universes_agree_between_kernels(
        width_index in 0usize..WIDTHS.len(),
        indices in proptest::collection::vec(0usize..5000, 65..140),
        threads in 1usize..5,
    ) {
        let width = WIDTHS[width_index];
        let config = cfg(3, width);
        let pool = every_class_universe(config, 1);
        let universe: FaultList = indices.iter().map(|i| pool.as_slice()[i % pool.len()]).collect();
        let schedule = nwrtm_schedule(width);
        let fast = lanes(config)
            .simulate_universe_with(ShardPlan::with_threads(threads), &schedule, &universe);
        let oracle = permem(config).simulate_universe_with(ShardPlan::sequential(), &schedule, &universe);
        prop_assert_eq!(fast, oracle);
    }
}
