//! Sharded and pruned universe simulation must be *observationally
//! identical* to the sequential, unpruned architecture:
//!
//! * for every thread count, `simulate_universe_with` returns identical
//!   outcomes (fault, verdicts and distinct failing sites) in exact
//!   universe order, and per-shard coverage reports fold into the
//!   sequential report;
//! * every batched outcome (which may have taken the single-row pruned
//!   path) has the same verdicts and failing sites as the unpruned
//!   full-sweep oracle [`FaultSimulator::simulate_fault_schedule`];
//! * schedules whose golden fault-free run fails (so pruning must be
//!   disabled) still agree with the oracle.
//!
//! Only [`FaultSimulator::simulate_fault_schedule`] can catch a pruning
//! bug: both fault-sim kernels share the pruned row sets, so kernel
//! equivalence alone would not.

use esram_exec::even_ranges;
use fault_models::{DefectProfile, FaultClass, FaultInjector, FaultList, FaultUniverse, MemoryFault};
use march::{
    algorithms, AddressOrder, CoverageReport, DataBackground, FaultSimKernel, FaultSimulator, MarchElement,
    MarchOp, MarchSchedule, MarchTest, ShardPlan,
};
use proptest::prelude::*;
use sram_model::cell::CellCoord;
use sram_model::{Address, CellFault, CouplingKind, DecoderFault, DecoderFaultKind, MemConfig};

fn config() -> MemConfig {
    MemConfig::new(16, 5).unwrap()
}

/// A universe mixing every modelled fault class: the four baseline
/// classes, retention, read-disturb and stuck-open — i.e. both pruning-
/// eligible (single-row) and fallback (coupling, decoder, stuck-open)
/// faults.
fn mixed_universe() -> FaultList {
    let universe = FaultUniverse::new(config());
    let mut faults = universe.date2005_baseline();
    faults.extend(universe.data_retention());
    faults.extend(universe.read_disturb());
    faults.extend(universe.stuck_open());
    faults
}

/// The fast scheme's production programme: March CW with NWRTM merged
/// into the last phase (multi-background, NWRC writes).
fn nwrtm_schedule() -> MarchSchedule {
    nwrtm_schedule_for(config().width())
}

/// [`nwrtm_schedule`] for an arbitrary IO width.
fn nwrtm_schedule_for(width: usize) -> MarchSchedule {
    let cw = algorithms::march_cw(width);
    cw.map_last_phase(format!("{} + NWRTM", cw.name()), algorithms::with_nwrtm)
}

/// The schedules the pruned paths are checked against the oracle under:
/// multi-background NWRTM, a checkerboard single phase, and a
/// row-stripe phase with retention pauses.
fn oracle_schedules() -> [MarchSchedule; 3] {
    [
        nwrtm_schedule(),
        MarchSchedule::single(algorithms::march_c_minus(), DataBackground::Checkerboard),
        MarchSchedule::single(
            algorithms::with_retention_pauses(&algorithms::march_c_minus(), 100),
            DataBackground::RowStripe,
        ),
    ]
}

/// Asserts that every batched (possibly pruned) outcome of `universe`,
/// under either kernel, equals the unpruned full-sweep oracle.
fn assert_batched_matches_oracle(sim: &FaultSimulator, schedule: &MarchSchedule, universe: &FaultList) {
    let oracles: Vec<_> = universe
        .iter()
        .map(|fault| sim.simulate_fault_schedule(schedule, fault))
        .collect();
    for kernel in FaultSimKernel::all() {
        let batched = sim.with_kernel(kernel).simulate_universe(schedule, universe);
        assert_eq!(batched.len(), universe.len());
        for ((fault, outcome), oracle) in universe.iter().zip(&batched).zip(&oracles) {
            assert_eq!(
                oracle,
                outcome,
                "{kernel} outcome diverged from the full-sweep oracle for {fault} under {}",
                schedule.name()
            );
        }
    }
}

#[test]
fn outcomes_are_identical_for_every_thread_count() {
    // The mixed universe combines pruned single-row faults (cost 1),
    // coupling pairs (cost 2) and full-sweep fallback classes (cost =
    // the whole address space), so cost-weighted boundaries genuinely
    // differ from even ones — and the outcomes still must not.
    let universe = mixed_universe();
    let schedule = nwrtm_schedule();
    for kernel in FaultSimKernel::all() {
        let sim = FaultSimulator::new(config()).with_kernel(kernel);
        let sequential = sim.simulate_universe_with(ShardPlan::sequential(), &schedule, &universe);
        assert_eq!(sequential.len(), universe.len());
        // Outcomes come back in exact universe order.
        for (fault, outcome) in universe.iter().zip(&sequential) {
            assert_eq!(&outcome.fault, fault);
        }
        for threads in [2, 3, 5, 7, 32] {
            let sharded = sim.simulate_universe_with(ShardPlan::with_threads(threads), &schedule, &universe);
            assert_eq!(
                sharded, sequential,
                "{kernel} outcomes diverged from sequential at {threads} threads"
            );
        }
    }
}

#[test]
fn kernels_agree_under_every_strategy_and_thread_count() {
    // The full kernel × thread-count matrix: both fault-sim kernels
    // must produce the per-memory sequential baseline byte for byte,
    // whatever the sharding. The mixed universe keeps lane
    // batches, coupling batches and per-fault fallback singles all in
    // play at once.
    let universe = mixed_universe();
    let schedule = nwrtm_schedule();
    let baseline = FaultSimulator::new(config())
        .with_kernel(FaultSimKernel::PerMemory)
        .simulate_universe_with(ShardPlan::sequential(), &schedule, &universe);
    for kernel in FaultSimKernel::all() {
        let sim = FaultSimulator::new(config()).with_kernel(kernel);
        for threads in [1, 2, 7, 32] {
            let plan = ShardPlan::with_threads(threads);
            let outcomes = sim.simulate_universe_with(plan, &schedule, &universe);
            assert_eq!(
                outcomes, baseline,
                "kernel {kernel} diverged from the per-memory sequential baseline under {plan}"
            );
        }
    }
}

#[test]
fn per_shard_coverage_reports_fold_into_the_sequential_report() {
    let universe = mixed_universe();
    let schedule = nwrtm_schedule();
    let sequential =
        FaultSimulator::new(config()).coverage_schedule_with(ShardPlan::sequential(), &schedule, &universe);

    for (kernel, threads) in FaultSimKernel::all()
        .into_iter()
        .flat_map(|k| [2, 4, 7].map(|t| (k, t)))
    {
        let sim = FaultSimulator::new(config()).with_kernel(kernel);
        // The whole-universe sharded report equals the sequential one...
        let sharded = sim.coverage_schedule_with(ShardPlan::with_threads(threads), &schedule, &universe);
        assert_eq!(
            sharded, sequential,
            "sharded {kernel} coverage diverged at {threads} threads"
        );

        // ...and so does an explicit associative fold of per-shard
        // reports built from chunked fault-list views.
        let plan = ShardPlan::with_threads(threads);
        let mut merged = CoverageReport::new(schedule.name());
        for range in even_ranges(universe.len(), plan.threads()) {
            let shard_universe: FaultList = universe.as_slice()[range].iter().copied().collect();
            let report = sim.coverage_schedule_with(ShardPlan::sequential(), &schedule, &shard_universe);
            merged.merge(&report);
        }
        assert_eq!(
            merged, sequential,
            "merged {kernel} shard reports diverged at {threads} threads"
        );
    }
}

#[test]
fn batched_pruned_outcomes_match_the_full_sweep_oracle() {
    let sim = FaultSimulator::new(config());
    let universe = mixed_universe();
    for schedule in oracle_schedules() {
        assert_batched_matches_oracle(&sim, &schedule, &universe);
    }
}

/// The three decoder fault kinds at `address`, targeting `target`.
fn decoder_faults(address: u64, target: u64) -> [MemoryFault; 3] {
    let (address, target) = (Address::new(address), Address::new(target));
    [
        DecoderFaultKind::NoAccess,
        DecoderFaultKind::MapsTo(target),
        DecoderFaultKind::AlsoAccesses(target),
    ]
    .map(|kind| MemoryFault::decoder(DecoderFault::new(address, kind)))
}

#[test]
fn decoder_deviation_row_sweeps_match_the_unpruned_oracle_at_edge_geometries() {
    // (address, target) pairs: the address-space extremes in both
    // orders, adjacent rows in both orders, far-apart rows in both
    // orders, and self-targets (which degenerate to one row).
    let pairs: [(u64, u64); 9] = [
        (0, 15),
        (15, 0),
        (4, 5),
        (9, 8),
        (1, 13),
        (14, 2),
        (0, 0),
        (7, 7),
        (15, 15),
    ];
    let universe: FaultList = pairs
        .iter()
        .flat_map(|&(address, target)| decoder_faults(address, target))
        .collect();
    let sim = FaultSimulator::new(config());
    for schedule in oracle_schedules() {
        assert_batched_matches_oracle(&sim, &schedule, &universe);
    }
}

#[test]
fn seeded_decoder_draws_at_the_benchmark_geometry_match_the_unpruned_oracle() {
    // The fault-simulation campaign's decoder class: 0.5 % defects split
    // over the four baseline classes, drawn from the decoder class's
    // stream, on one 512 x 100 memory.
    let config = testutil::benchmark_geometry();
    let sim = FaultSimulator::new(config);
    let profile = DefectProfile::single_class(FaultClass::AddressDecoder, 0.005 / 4.0);
    for seed in [1, 2, 3] {
        let universe = FaultInjector::for_stream(seed, 3).generate(config, &profile);
        assert_eq!(universe.len(), 64);
        for schedule in [
            algorithms::march_cw(config.width()),
            nwrtm_schedule_for(config.width()),
        ] {
            assert_batched_matches_oracle(&sim, &schedule, &universe);
        }
    }
}

#[test]
fn failing_golden_runs_disable_pruning_and_still_match_the_oracle() {
    // A programme that reads the inverted background before ever
    // writing fails on *every* row of a pristine memory. Pruning to the
    // faulty row would drop the other rows' failures, so the simulator
    // must detect the failing golden run and fall back to full sweeps.
    // The closing r0 over the written ones fails every address under
    // every fault too, including a no-access address, whose reads
    // return the precharged ones and so pass every r1.
    let pathological = MarchTest::new(
        "read-before-write",
        vec![
            MarchElement::new(
                AddressOrder::Either,
                vec![MarchOp::Read(true), MarchOp::Write(true), MarchOp::Read(true)],
            ),
            MarchElement::new(AddressOrder::Descending, vec![MarchOp::Read(true)]),
            MarchElement::new(AddressOrder::Ascending, vec![MarchOp::Read(false)]),
        ],
    );
    let schedule = MarchSchedule::single(pathological, DataBackground::Solid);
    let sim = FaultSimulator::new(config());
    let universes = FaultUniverse::new(config());

    for universe in [universes.stuck_at(), universes.address_decoder()] {
        assert_batched_matches_oracle(&sim, &schedule, &universe);
        // Every row fails in this programme, not just the faulty one —
        // proof that the full sweep actually ran.
        for outcome in sim.simulate_universe(&schedule, &universe) {
            let mut addresses: Vec<Address> = outcome.sites.iter().map(|site| site.address).collect();
            addresses.dedup();
            assert!(addresses.len() == config().words() as usize);
        }
    }
}

/// The eight coupling sensitisations (2 CFid, 2 CFin, 4 CFst) between
/// one victim/aggressor cell pair.
fn coupling_modes() -> Vec<CouplingKind> {
    let mut modes = Vec::new();
    for rises in [false, true] {
        for forced in [false, true] {
            modes.push(CouplingKind::Idempotent {
                aggressor_rises: rises,
                forced_value: forced,
            });
        }
        modes.push(CouplingKind::Inversion {
            aggressor_rises: rises,
        });
    }
    for aggressor_value in [false, true] {
        for forced in [false, true] {
            modes.push(CouplingKind::State {
                aggressor_value,
                forced_value: forced,
            });
        }
    }
    modes
}

#[test]
fn coupling_two_row_pruned_sweeps_match_the_unpruned_oracle_for_every_mode() {
    // Victim/aggressor row pairs covering the interesting geometries:
    // same row (intra-word), adjacent rows in both orders, far-apart
    // rows in both orders, and the address-space extremes.
    let pairs: [(u64, usize, u64, usize); 7] = [
        (3, 0, 3, 2),  // same row, different bits
        (4, 1, 5, 1),  // victim just below aggressor
        (9, 2, 8, 0),  // victim just above aggressor
        (1, 3, 13, 4), // far apart, ascending
        (14, 0, 2, 3), // far apart, descending
        (0, 0, 15, 4), // extremes
        (15, 4, 0, 0), // extremes, reversed
    ];
    let sim = FaultSimulator::new(config());
    let schedule = nwrtm_schedule();
    let mut universe = FaultList::new();
    for (victim_row, victim_bit, aggressor_row, aggressor_bit) in pairs {
        let victim = CellCoord::new(Address::new(victim_row), victim_bit);
        let aggressor = CellCoord::new(Address::new(aggressor_row), aggressor_bit);
        for kind in coupling_modes() {
            universe.push(MemoryFault::cell(victim, CellFault::Coupling { aggressor, kind }));
        }
    }
    assert_batched_matches_oracle(&sim, &schedule, &universe);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: for an arbitrary victim/aggressor pair and any
    /// coupling sensitisation, the (possibly two-row-pruned) batched
    /// run equals the unpruned full-sweep oracle under a
    /// multi-background schedule with descending elements.
    #[test]
    fn arbitrary_coupling_pairs_prune_identically(
        victim_row in 0u64..16,
        victim_bit in 0usize..5,
        aggressor_row in 0u64..16,
        aggressor_bit in 0usize..5,
        mode_index in 0usize..8,
    ) {
        let victim = CellCoord::new(Address::new(victim_row), victim_bit);
        let mut aggressor = CellCoord::new(Address::new(aggressor_row), aggressor_bit);
        if victim == aggressor {
            // A cell cannot couple to itself; retarget the aggressor.
            aggressor = CellCoord::new(Address::new((aggressor_row + 1) % 16), aggressor_bit);
        }
        let kind = coupling_modes()[mode_index];
        let fault = MemoryFault::cell(victim, CellFault::Coupling { aggressor, kind });
        let mut universe = FaultList::new();
        universe.push(fault);

        let sim = FaultSimulator::new(config());
        let schedule = nwrtm_schedule();
        let oracle = sim.simulate_fault_schedule(&schedule, &fault);
        for kernel in FaultSimKernel::all() {
            let batched = sim.with_kernel(kernel).simulate_universe(&schedule, &universe);
            prop_assert_eq!(&batched[0], &oracle);
        }
    }

    /// Property: an arbitrary decoder fault — any kind, any address,
    /// any target, self-targets included — prunes to its deviation rows
    /// with the same outcome as the unpruned full-sweep oracle, under
    /// each of the oracle schedules.
    #[test]
    fn arbitrary_decoder_faults_prune_identically(
        address in 0u64..16,
        target in 0u64..16,
        kind_index in 0usize..3,
        schedule_index in 0usize..3,
    ) {
        let fault = decoder_faults(address, target)[kind_index];
        let mut universe = FaultList::new();
        universe.push(fault);

        let sim = FaultSimulator::new(config());
        let schedule = &oracle_schedules()[schedule_index];
        let oracle = sim.simulate_fault_schedule(schedule, &fault);
        for kernel in FaultSimKernel::all() {
            let batched = sim.with_kernel(kernel).simulate_universe(schedule, &universe);
            prop_assert_eq!(&batched[0], &oracle);
        }
    }
}

#[test]
fn default_plan_equals_an_explicit_sequential_run() {
    let universe = mixed_universe();
    let schedule = nwrtm_schedule();
    for kernel in FaultSimKernel::all() {
        let sim = FaultSimulator::new(config()).with_kernel(kernel);
        assert_eq!(
            sim.simulate_universe(&schedule, &universe),
            sim.simulate_universe_with(ShardPlan::sequential(), &schedule, &universe),
            "{kernel} default-plan outcomes diverged"
        );
    }
}
