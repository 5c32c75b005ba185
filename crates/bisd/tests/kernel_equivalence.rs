//! The bit-parallel diagnosis kernel must be *byte-identical* to the
//! per-memory oracle it replaces: identical located sites, mismatch
//! counts, iterations, cycle and pause accounting — the kernel is a
//! pure execution strategy, never an observable behaviour change.
//!
//! The sweep covers the cases where the fast/slow split could plausibly
//! diverge:
//!
//! * IO widths straddling the limb boundary (63, 64, 65) and the wide
//!   multi-limb case (100), so plane-level compares exercise partial
//!   limbs;
//! * heterogeneous word counts, so global trigger addresses wrap
//!   differently per memory and the stepped-row aliasing must match the
//!   oracle's wrapped walk;
//! * every modelled fault class — including the classes the kernel must
//!   *refuse* to step sparsely (stuck-open's cross-row sense history)
//!   and the decoder faults whose deviation spans two rows;
//! * every DRF mode of the fast scheme and the baseline's pause-based
//!   extension, plus the LSB-first delivery ablation, where the kernel
//!   must fall back to the oracle wholesale;
//! * random small baseline populations mixing every fault class with
//!   one stuck-open member, which the baseline's row-restricted walk
//!   must sweep whole, and pinned baseline populations where a walk of
//!   the stuck-open memory's fault rows alone, skipping a memory after a
//!   pass that located nothing but moved its state, or carrying a
//!   fixed-point flag from the base pass into the DRF loop each end with
//!   other sites than the oracle, and pinned replay cases where a replay
//!   that ignores the per-direction budget, one started before the
//!   memory's state repeats, or one carried into a later test ends with
//!   other iterations or sites;
//! * random populations built for the fast scheme's lane replay: more
//!   than 64 lane rows of one geometry, wrapped members whose word count
//!   does not divide the largest, rows with two faults, rows of several
//!   members that mismatch at the same operation, fallback members with
//!   coupling, decoder and stuck-open faults, every DRF mode, several
//!   worker counts, and a second diagnosis of the same memories.

use bisd::{DiagnosisKernel, DiagnosisResult, DrfMode, FastScheme, HuangScheme, MemoryUnderDiagnosis};
use fault_models::{DefectProfile, FaultInjector, FaultList, MemoryFault};
use march::ShardPlan;
use proptest::prelude::*;
use sram_model::cell::CellCoord;
use sram_model::decoder::DecoderFaultKind;
use sram_model::{Address, CellFault, DecoderFault, MemConfig, MemoryId};

/// Limb-straddling IO widths plus the wide multi-limb case.
const WIDTHS: [usize; 4] = [63, 64, 65, 100];

fn coord(row: u64, bit: usize) -> CellCoord {
    CellCoord::new(Address::new(row), bit)
}

/// One memory per (fault class × width), with word counts cycling so
/// the population wraps heterogeneously under the global trigger.
fn class_population() -> Vec<MemoryUnderDiagnosis> {
    let faults: Vec<MemoryFault> = vec![
        MemoryFault::stuck_at_0(coord(3, 0)),
        MemoryFault::stuck_at_1(coord(5, 62)),
        MemoryFault::transition_up(coord(0, 31)),
        MemoryFault::transition_down(coord(7, 1)),
        MemoryFault::cell(coord(2, 40), CellFault::ReadDestructive),
        MemoryFault::cell(coord(9, 12), CellFault::DeceptiveReadDestructive),
        MemoryFault::cell(coord(1, 7), CellFault::IncorrectRead),
        MemoryFault::cell(coord(6, 33), CellFault::StuckOpen),
        MemoryFault::data_retention_a(coord(4, 20)),
        MemoryFault::data_retention_b(coord(8, 8)),
        MemoryFault::coupling_idempotent(coord(2, 5), coord(11, 6), true, true),
        MemoryFault::coupling_inversion(coord(10, 3), coord(0, 4), false),
        MemoryFault::coupling_state(coord(3, 9), coord(3, 10), true, false),
        MemoryFault::decoder(DecoderFault::new(Address::new(6), DecoderFaultKind::NoAccess)),
        MemoryFault::decoder(DecoderFault::new(
            Address::new(2),
            DecoderFaultKind::MapsTo(Address::new(9)),
        )),
        MemoryFault::decoder(DecoderFault::new(
            Address::new(5),
            DecoderFaultKind::AlsoAccesses(Address::new(12)),
        )),
    ];
    let word_counts: [u64; 3] = [13, 16, 20];
    let mut population = Vec::new();
    let mut index = 0u32;
    for &width in &WIDTHS {
        for fault in &faults {
            let words = word_counts[index as usize % word_counts.len()];
            let config = MemConfig::new(words, width).expect("valid geometry");
            let mut memory = MemoryUnderDiagnosis::pristine(MemoryId::new(index), config);
            fault
                .inject_into(&mut memory.sram)
                .expect("fault fits the geometry");
            let mut list = FaultList::new();
            list.push(*fault);
            memory.injected = list;
            population.push(memory);
            index += 1;
        }
        // One pristine member per width: the kernel must skip it
        // entirely and still report it clean, like the oracle does.
        let config = MemConfig::new(24, width).expect("valid geometry");
        population.push(MemoryUnderDiagnosis::pristine(MemoryId::new(index), config));
        index += 1;
    }
    population
}

/// A randomly injected population over the same limb-edge widths (all
/// five classes of the retention-enabled profile, several faults per
/// memory at a 5 % defect rate).
fn random_population(seed: u64) -> Vec<MemoryUnderDiagnosis> {
    let profile = DefectProfile::with_data_retention(0.05);
    let word_counts: [u64; 4] = [16, 32, 48, 64];
    (0..24u32)
        .map(|index| {
            let width = WIDTHS[index as usize % WIDTHS.len()];
            let words = word_counts[index as usize % word_counts.len()];
            let config = MemConfig::new(words, width).expect("valid geometry");
            let mut injector = FaultInjector::for_stream(seed, u64::from(index));
            MemoryUnderDiagnosis::with_defects(MemoryId::new(index), config, &mut injector, &profile)
                .expect("defect injection succeeds")
        })
        .collect()
}

/// A compact population for the baseline scheme, whose bit-serial
/// oracle makes the full-width class population prohibitively slow to
/// replay per kernel: randomly injected members over a narrow and a
/// limb-edge width, sixteen words each, plus one pristine member per
/// width (the only members the row-restricted kernel skips whole).
fn huang_population(seed: u64) -> Vec<MemoryUnderDiagnosis> {
    let profile = DefectProfile::with_data_retention(0.08);
    [8usize, 63]
        .iter()
        .flat_map(|&width| (0..5u32).map(move |slot| (width, slot)))
        .enumerate()
        .map(|(index, (width, slot))| {
            let id = MemoryId::new(index as u32);
            let config = MemConfig::new(16, width).expect("valid geometry");
            if slot == 4 {
                MemoryUnderDiagnosis::pristine(id, config)
            } else {
                let mut injector = FaultInjector::for_stream(seed, index as u64);
                MemoryUnderDiagnosis::with_defects(id, config, &mut injector, &profile)
                    .expect("defect injection succeeds")
            }
        })
        .collect()
}

fn assert_fast_kernels_agree(scheme: FastScheme, build: &dyn Fn() -> Vec<MemoryUnderDiagnosis>) {
    let mut oracle_population = build();
    let oracle = scheme
        .with_kernel(DiagnosisKernel::PerMemory)
        .diagnose_with(ShardPlan::sequential(), &mut oracle_population)
        .expect("oracle run");
    let mut kernel_population = build();
    let bit_parallel = scheme
        .with_kernel(DiagnosisKernel::BitParallel)
        .diagnose_with(ShardPlan::sequential(), &mut kernel_population)
        .expect("bit-parallel run");
    assert_eq!(bit_parallel, oracle, "kernels diverged for {scheme:?}");
    assert_eq!(bit_parallel.located_sites(), oracle.located_sites());
    assert_eq!(bit_parallel.log.len(), oracle.log.len());
    assert_eq!(bit_parallel.cycles, oracle.cycles);
    assert_eq!(bit_parallel.pause_ms, oracle.pause_ms);
}

/// Builds a population from `(words, width, faults)` per member.
fn population_of(members: &[(u64, usize, Vec<MemoryFault>)]) -> Vec<MemoryUnderDiagnosis> {
    members
        .iter()
        .enumerate()
        .map(|(index, (words, width, faults))| {
            let config = MemConfig::new(*words, *width).expect("valid geometry");
            let mut memory = MemoryUnderDiagnosis::pristine(MemoryId::new(index as u32), config);
            for fault in faults {
                fault
                    .inject_into(&mut memory.sram)
                    .expect("fault fits the geometry");
            }
            memory
        })
        .collect()
}

/// Runs `scheme` under both kernels on fresh populations from `build`,
/// asserts that the whole results (sites, mismatch count, iterations,
/// cycles, pause) agree and returns the oracle's.
fn assert_huang_kernels_agree(
    scheme: HuangScheme,
    build: &dyn Fn() -> Vec<MemoryUnderDiagnosis>,
) -> DiagnosisResult {
    let oracle = scheme
        .with_kernel(DiagnosisKernel::PerMemory)
        .diagnose_with(ShardPlan::sequential(), &mut build())
        .expect("oracle run");
    let restricted = scheme
        .with_kernel(DiagnosisKernel::BitParallel)
        .diagnose_with(ShardPlan::sequential(), &mut build())
        .expect("row-restricted run");
    assert_eq!(restricted, oracle, "baseline kernels diverged for {scheme:?}");
    oracle
}

fn sites_of(result: &DiagnosisResult) -> Vec<(u32, u64, usize)> {
    result
        .located_sites()
        .all()
        .iter()
        .map(|site| (site.memory.index(), site.address.index(), site.bit))
        .collect()
}

#[test]
fn fast_scheme_kernels_agree_on_every_fault_class() {
    // NWRTM is the default and richest mode (NWRC writes on top of the
    // March stream); the remaining DRF modes run in the release-only
    // exhaustive sweep below.
    assert_fast_kernels_agree(
        FastScheme::new(10.0).with_drf_mode(DrfMode::Nwrtm),
        &class_population,
    );
}

#[test]
fn fast_scheme_kernels_agree_on_random_populations() {
    assert_fast_kernels_agree(FastScheme::new(10.0), &|| random_population(42));
}

#[test]
fn fast_scheme_kernels_agree_under_the_lsb_first_ablation() {
    // Non-ideal delivery must drop the bit-parallel run to the oracle
    // wholesale — heterogeneous widths make LSB-first delivery corrupt
    // narrow memories' backgrounds, and the kernel must observe that
    // corruption exactly as the dense walk does.
    let scheme = FastScheme::new(10.0)
        .with_shift_order(serial::ShiftOrder::LsbFirst)
        .with_drf_mode(DrfMode::None);
    assert_fast_kernels_agree(scheme, &|| random_population(7));
}

/// Full DRF-mode × population sweep — release-only (the CI
/// benchmark-scale job runs `--ignored` tests): the per-memory oracle
/// replays the 68-member class population densely per mode, which is
/// minutes of work in a debug build.
#[test]
#[ignore = "dense oracle over every DRF mode and population; run with --release -- --ignored"]
fn fast_scheme_kernels_agree_exhaustive() {
    for mode in [DrfMode::Nwrtm, DrfMode::None, DrfMode::RetentionPause(100)] {
        assert_fast_kernels_agree(FastScheme::new(10.0).with_drf_mode(mode), &class_population);
    }
    for seed in [1u64, 1729] {
        assert_fast_kernels_agree(FastScheme::new(10.0), &|| random_population(seed));
    }
    let lsb = FastScheme::new(10.0)
        .with_shift_order(serial::ShiftOrder::LsbFirst)
        .with_drf_mode(DrfMode::None);
    assert_fast_kernels_agree(lsb, &class_population);
}

#[test]
fn huang_scheme_kernels_agree_with_and_without_retention() {
    for scheme in [
        HuangScheme::new(10.0),
        HuangScheme::new(10.0).with_retention_pause(100),
        HuangScheme::new(10.0).with_max_iterations(3),
    ] {
        assert_huang_kernels_agree(scheme, &|| huang_population(21));
    }
}

/// The baseline sweep over every fault class at every limb-edge width —
/// release-only (the CI benchmark-scale job runs `--ignored` tests):
/// the bit-serial oracle replays each of the 68 class-population
/// memories twice per scheme, minutes of work in a debug build.
#[test]
#[ignore = "bit-serial oracle over the full class population; run with --release -- --ignored"]
fn huang_scheme_kernels_agree_on_every_fault_class_exhaustive() {
    for scheme in [
        HuangScheme::new(10.0),
        HuangScheme::new(10.0).with_retention_pause(100),
    ] {
        assert_huang_kernels_agree(scheme, &class_population);
    }
}

#[test]
fn huang_scheme_sweeps_a_memory_with_a_stuck_open_cell_whole() {
    // The stuck-open bit (3, 3) echoes the sense amplifiers. Capped at
    // one iteration, `M1` locates (1, 0), (5, 3), (1, 3) and (4, 0), one
    // per element, and leaves row 3's three sites to the base elements.
    // The dense sweep's ⇑(r0,w1,r1) reads row 3 right after row 2's r1
    // left ones on the bitlines, so its r0 fails at bits 0 and 3 and the
    // left shift locates bit 3; ⇓(r1,w0,r0) then locates bit 2 and
    // ⇕(r0,w0) bit 0. A walk of the fault rows alone reads row 3 after
    // row 1, whose stuck-at-0 bit 3 leaves a zero there: ⇑(r0,w1,r1)
    // locates bit 0 first, and no later base element sees bit 3 fail, so
    // that walk ends without site (3, 3).
    let faults = vec![
        MemoryFault::stuck_at_1(coord(3, 0)),
        MemoryFault::cell(coord(3, 3), CellFault::StuckOpen),
        MemoryFault::stuck_at_0(coord(3, 2)),
        MemoryFault::stuck_at_0(coord(1, 3)),
        MemoryFault::stuck_at_1(coord(1, 0)),
        MemoryFault::stuck_at_0(coord(4, 0)),
        MemoryFault::stuck_at_1(coord(5, 3)),
    ];
    let members = [(8, 4, faults)];
    let oracle = assert_huang_kernels_agree(HuangScheme::new(10.0).with_max_iterations(1), &|| {
        population_of(&members)
    });
    assert_eq!(
        sites_of(&oracle),
        [
            (0, 1, 0),
            (0, 1, 3),
            (0, 3, 0),
            (0, 3, 2),
            (0, 3, 3),
            (0, 4, 0),
            (0, 5, 3)
        ]
    );
    assert_eq!((oracle.iterations, oracle.log.len()), (1, 7));
}

#[test]
fn huang_scheme_replays_a_quiet_memory_whose_pass_moved_its_state() {
    // Member 1's victim (0, 3) inverts whenever its aggressor (1, 1)
    // falls. Each `M1` element inverts it twice, after its read and
    // before it, so `M1` never sees it, and in the one base element that
    // does, the deceptive read-destructive cell (0, 0) fails at a lower
    // bit and is located instead. Member 0's retention fault keeps the
    // DRF loop going for a second pass. Member 1's first DRF pass
    // locates nothing but leaves its cells at one where it found them at
    // zero, so the second pass's ⇕(w0) makes the aggressor fall after
    // the victim was written, and ⇕(r0,w1) reads the inverted victim. A
    // kernel that skipped member 1 after its quiet pass would not locate
    // (0, 3).
    let members = [
        (4, 4, vec![MemoryFault::data_retention_a(coord(3, 3))]),
        (
            2,
            4,
            vec![
                MemoryFault::cell(coord(0, 0), CellFault::DeceptiveReadDestructive),
                MemoryFault::coupling_inversion(coord(0, 3), coord(1, 1), false),
            ],
        ),
    ];
    let oracle = assert_huang_kernels_agree(HuangScheme::new(10.0).with_retention_pause(100), &|| {
        population_of(&members)
    });
    assert_eq!(sites_of(&oracle), [(0, 3, 3), (1, 0, 0), (1, 0, 3)]);
}

#[test]
fn huang_scheme_runs_the_drf_loop_for_a_memory_fixed_by_the_base_pass() {
    // `M1` locates the stuck-at-0 cell (0, 0). The base pass locates
    // nothing and ends in the state it started in: its cells at zero and
    // the sense amplifiers at zero, since `M1`'s last read (r1 of row 0)
    // and the base pass's last read (an r0) both leave a zero. So the
    // base pass marks the memory fixed; the DRF test is another test,
    // must run it anyway, and locates the retention fault (2, 0).
    let faults = vec![
        MemoryFault::stuck_at_0(coord(0, 0)),
        MemoryFault::data_retention_a(coord(2, 0)),
    ];
    let members = [(4, 1, faults)];
    let oracle = assert_huang_kernels_agree(HuangScheme::new(10.0).with_retention_pause(100), &|| {
        population_of(&members)
    });
    assert_eq!(sites_of(&oracle), [(0, 0, 0), (0, 2, 0)]);
}

#[test]
fn huang_scheme_replays_a_memory_that_locates_for_several_passes() {
    // Fourteen stuck-at cells, each failing every `M1` read element.
    // Each pass locates one site per read element, two per shift
    // direction: four, four, four, two, then none. The first pass
    // starts from power-on and the second ends where it started, so the
    // third and fourth passes are replayed under the same budget. A
    // replay that located every remaining site at once would end after
    // four passes, and one that shared a budget of two between the
    // directions after six.
    let faults = (0..7)
        .flat_map(|row| {
            [
                MemoryFault::stuck_at_1(coord(row, 0)),
                MemoryFault::stuck_at_0(coord(row, 1)),
            ]
        })
        .collect();
    let members = [(8, 2, faults)];
    let oracle = assert_huang_kernels_agree(HuangScheme::new(10.0), &|| population_of(&members));
    assert_eq!((oracle.iterations, oracle.log.len()), (5, 14));
}

#[test]
fn huang_scheme_replays_the_drf_loop_only_from_its_second_pass() {
    // Member 1 of `huang_scheme_replays_a_quiet_memory_whose_pass_moved_its_state`,
    // plus the retention cell (1, 2). The base pass locates (0, 0) and
    // leaves every cell at zero. The first DRF pass locates (1, 2) and
    // ends with the cells at one, so its ⇕(w0) never makes the aggressor
    // (1, 1) fall, but the second pass's does: only from the second pass
    // on does ⇕(r0,w1) read the inverted victim (0, 3). The second pass
    // locates it and ends where it started, and the third is replayed
    // and locates nothing. A replay of the first pass's streams would
    // never locate (0, 3).
    let members = [(
        2,
        4,
        vec![
            MemoryFault::cell(coord(0, 0), CellFault::DeceptiveReadDestructive),
            MemoryFault::coupling_inversion(coord(0, 3), coord(1, 1), false),
            MemoryFault::data_retention_a(coord(1, 2)),
        ],
    )];
    let oracle = assert_huang_kernels_agree(HuangScheme::new(10.0).with_retention_pause(100), &|| {
        population_of(&members)
    });
    assert_eq!(sites_of(&oracle), [(0, 0, 0), (0, 0, 3), (0, 1, 2)]);
}

#[test]
fn huang_scheme_steps_a_replayed_memory_again_in_later_tests() {
    // Nine stuck-at cells take `M1` three passes to locate and a fourth
    // to find nothing, the last two replayed. The deceptive
    // read-destructive cell (6, 2) fails only in the base pass, whose
    // ⇓(r1,w0,r0) reads it after ⇑(r0,w1,r1) has flipped it, and the
    // retention cell (7, 3) only in the DRF loop. Both must step the
    // memory again: a replay or a skip carried over from `M1` would miss
    // them.
    let mut faults: Vec<MemoryFault> = (0..5).map(|row| MemoryFault::stuck_at_1(coord(row, 0))).collect();
    faults.extend((0..4).map(|row| MemoryFault::stuck_at_0(coord(row, 1))));
    faults.push(MemoryFault::cell(
        coord(6, 2),
        CellFault::DeceptiveReadDestructive,
    ));
    faults.push(MemoryFault::data_retention_a(coord(7, 3)));
    let members = [(8, 4, faults)];
    let oracle = assert_huang_kernels_agree(HuangScheme::new(10.0).with_retention_pause(100), &|| {
        population_of(&members)
    });
    assert_eq!((oracle.iterations, oracle.log.len()), (4, 11));
    let sites = sites_of(&oracle);
    assert!(sites.contains(&(0, 6, 2)) && sites.contains(&(0, 7, 3)));
}

/// SplitMix64, the generator behind [`mixed_population`], so a failing
/// proptest case rebuilds from its printed seed alone.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// One random fault of any class but stuck-open. Coupling aggressors
/// and decoder targets sit in another row than the fault's own.
fn random_fault(stream: &mut Stream, config: MemConfig) -> MemoryFault {
    let words = config.words();
    let site = coord(stream.below(words), stream.below(config.width() as u64) as usize);
    let other_row = (site.address.index() + 1 + stream.below(words - 1)) % words;
    let aggressor = coord(other_row, stream.below(config.width() as u64) as usize);
    match stream.below(15) {
        0 => MemoryFault::stuck_at_0(site),
        1 => MemoryFault::stuck_at_1(site),
        2 => MemoryFault::transition_up(site),
        3 => MemoryFault::transition_down(site),
        4 => MemoryFault::cell(site, CellFault::ReadDestructive),
        5 => MemoryFault::cell(site, CellFault::DeceptiveReadDestructive),
        6 => MemoryFault::cell(site, CellFault::IncorrectRead),
        7 => MemoryFault::coupling_idempotent(site, aggressor, stream.coin(), stream.coin()),
        8 => MemoryFault::coupling_inversion(site, aggressor, stream.coin()),
        9 => MemoryFault::coupling_state(site, aggressor, stream.coin(), stream.coin()),
        10 => MemoryFault::decoder(DecoderFault::new(site.address, DecoderFaultKind::NoAccess)),
        11 => MemoryFault::decoder(DecoderFault::new(
            site.address,
            DecoderFaultKind::MapsTo(aggressor.address),
        )),
        12 => MemoryFault::decoder(DecoderFault::new(
            site.address,
            DecoderFaultKind::AlsoAccesses(aggressor.address),
        )),
        13 => MemoryFault::data_retention_a(site),
        _ => MemoryFault::data_retention_b(site),
    }
}

/// A random baseline population of two to five small memories: each
/// holds up to five random faults (none makes a pristine member), the
/// first also a stuck-at-1 cell, so every run locates something, and one
/// a stuck-open cell.
fn mixed_population(seed: u64) -> Vec<MemoryUnderDiagnosis> {
    let mut stream = Stream(seed);
    let members = 2 + stream.below(4);
    let stuck_open_member = stream.below(members);
    (0..members)
        .map(|index| {
            let words = [8u64, 12, 16][stream.below(3) as usize];
            let width = [4usize, 8, 63][stream.below(3) as usize];
            let config = MemConfig::new(words, width).expect("valid geometry");
            let mut memory = MemoryUnderDiagnosis::pristine(MemoryId::new(index as u32), config);
            let mut faults: Vec<MemoryFault> = (0..stream.below(6))
                .map(|_| random_fault(&mut stream, config))
                .collect();
            if index == 0 {
                faults.push(MemoryFault::stuck_at_1(coord(stream.below(words), 0)));
            }
            if index == stuck_open_member {
                let row = stream.below(words);
                let bit = stream.below(width as u64) as usize;
                faults.push(MemoryFault::cell(coord(row, bit), CellFault::StuckOpen));
            }
            for fault in &faults {
                fault
                    .inject_into(&mut memory.sram)
                    .expect("fault fits the geometry");
            }
            memory
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: on a random mixed population the row-restricted
    /// bit-parallel baseline returns the per-memory oracle's whole
    /// result (sites, mismatch count, iterations, cycles, pause), with
    /// and without the retention extension and under an iteration cap.
    #[test]
    fn huang_scheme_kernels_agree_on_random_mixed_populations(
        seed in any::<u64>(),
        retention in any::<bool>(),
        cap in 1u64..5,
    ) {
        let base = if retention {
            HuangScheme::new(10.0).with_retention_pause(100)
        } else {
            HuangScheme::new(10.0)
        };
        for scheme in [base, base.with_max_iterations(cap)] {
            let mut oracle_population = mixed_population(seed);
            let oracle = scheme
                .with_kernel(DiagnosisKernel::PerMemory)
                .diagnose_with(ShardPlan::sequential(), &mut oracle_population)
                .expect("oracle run");
            let mut kernel_population = mixed_population(seed);
            let restricted = scheme
                .with_kernel(DiagnosisKernel::BitParallel)
                .diagnose_with(ShardPlan::sequential(), &mut kernel_population)
                .expect("row-restricted run");
            prop_assert!(!oracle.is_clean(), "seed {seed:#x}: nothing located");
            prop_assert_eq!(
                restricted,
                oracle,
                "baseline kernels diverged for seed {:#x} under {:?}",
                seed,
                scheme
            );
        }
    }
}

/// One random single-cell fault a lane can carry.
fn random_lane_fault(stream: &mut Stream, site: CellCoord) -> MemoryFault {
    match stream.below(9) {
        0 => MemoryFault::stuck_at_0(site),
        1 => MemoryFault::stuck_at_1(site),
        2 => MemoryFault::transition_up(site),
        3 => MemoryFault::transition_down(site),
        4 => MemoryFault::cell(site, CellFault::ReadDestructive),
        5 => MemoryFault::cell(site, CellFault::DeceptiveReadDestructive),
        6 => MemoryFault::cell(site, CellFault::IncorrectRead),
        7 => MemoryFault::data_retention_a(site),
        _ => MemoryFault::data_retention_b(site),
    }
}

/// A random population for the fast scheme's lane replay, under a
/// 128-word trigger:
///
/// * member 0 (128×8) carries single-cell faults on most of its rows,
///   so its lane rows spill past one 64-lane batch;
/// * member 1 (48×8) wraps, and 48 does not divide 128, so its rows are
///   visited twice or three times per element; one of its rows holds
///   two faults;
/// * members 2 (128×8) and 3 (48×8) repeat some faults of members 0 and
///   1 at the same cells, so rows of several members mismatch at the
///   same operation;
/// * members 4, 5 and 6 add a coupling, a decoder and a stuck-open
///   fault to lane faults, so their rows fall back to stepping (member 6
///   whole);
/// * member 7 is pristine.
fn lane_population(seed: u64) -> Vec<MemoryUnderDiagnosis> {
    let mut stream = Stream(seed);
    let mut faults: Vec<Vec<MemoryFault>> = vec![Vec::new(); 8];
    for row in 0..128 {
        if stream.below(4) != 0 {
            let site = coord(row, stream.below(8) as usize);
            faults[0].push(random_lane_fault(&mut stream, site));
        }
    }
    for _ in 0..1 + stream.below(6) {
        let site = coord(stream.below(48), stream.below(8) as usize);
        faults[1].push(random_lane_fault(&mut stream, site));
    }
    let row = stream.below(48);
    let bit = stream.below(7) as usize;
    faults[1].push(random_lane_fault(&mut stream, coord(row, bit)));
    faults[1].push(random_lane_fault(&mut stream, coord(row, bit + 1)));
    for (source, copy) in [(0, 2), (1, 3)] {
        let shared: Vec<MemoryFault> = faults[source]
            .iter()
            .filter(|_| stream.below(3) == 0)
            .copied()
            .collect();
        faults[copy].extend(shared);
    }
    let geometries: [(u64, usize); 8] = [
        (128, 8),
        (48, 8),
        (128, 8),
        (48, 8),
        (32, 12),
        (16, 4),
        (48, 16),
        (64, 8),
    ];
    for member in 4..7 {
        let (words, width) = geometries[member];
        for _ in 0..1 + stream.below(4) {
            let site = coord(stream.below(words), stream.below(width as u64) as usize);
            faults[member].push(random_lane_fault(&mut stream, site));
        }
    }
    let victim = coord(stream.below(32), stream.below(12) as usize);
    let aggressor = coord(stream.below(32), stream.below(12) as usize);
    faults[4].push(MemoryFault::coupling_inversion(victim, aggressor, stream.coin()));
    faults[5].push(MemoryFault::decoder(DecoderFault::new(
        Address::new(stream.below(16)),
        DecoderFaultKind::MapsTo(Address::new(stream.below(16))),
    )));
    faults[6].push(MemoryFault::cell(
        coord(stream.below(48), stream.below(16) as usize),
        CellFault::StuckOpen,
    ));
    geometries
        .iter()
        .zip(&faults)
        .enumerate()
        .map(|(index, (&(words, width), faults))| {
            let config = MemConfig::new(words, width).expect("valid geometry");
            let mut memory = MemoryUnderDiagnosis::pristine(MemoryId::new(index as u32), config);
            for fault in faults {
                fault
                    .inject_into(&mut memory.sram)
                    .expect("fault fits the geometry");
            }
            memory
        })
        .collect()
}

/// Diagnoses `population` twice in a row with `scheme` under `plan`: the
/// second run starts from the contents the first one left.
fn diagnose_twice(
    scheme: FastScheme,
    plan: ShardPlan,
    mut population: Vec<MemoryUnderDiagnosis>,
) -> [bisd::DiagnosisResult; 2] {
    [(); 2].map(|_| {
        scheme
            .diagnose_with(plan, &mut population)
            .expect("diagnosis run")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: on a random lane population the bit-parallel fast
    /// scheme returns the per-memory oracle's whole result at every
    /// worker count, in every DRF mode, and again when the same
    /// memories are diagnosed a second time.
    #[test]
    fn fast_scheme_lane_replay_agrees_with_the_oracle(seed in any::<u64>(), mode in 0usize..3) {
        let mode = [DrfMode::None, DrfMode::Nwrtm, DrfMode::RetentionPause(100)][mode];
        let population = lane_population(seed);
        let lanes = population[0].sram.row_classes().expect("no stuck-open cell").lane.len();
        prop_assert!(lanes > 64, "seed {:#x}: only {} lane rows in member 0", seed, lanes);
        let scheme = FastScheme::new(10.0).with_drf_mode(mode);
        let oracle = diagnose_twice(
            scheme.with_kernel(DiagnosisKernel::PerMemory),
            ShardPlan::sequential(),
            population,
        );
        prop_assert!(!oracle[0].is_clean(), "seed {:#x}: nothing located", seed);
        for threads in [1, 2, 7, 32] {
            let kernel = diagnose_twice(
                scheme.with_kernel(DiagnosisKernel::BitParallel),
                ShardPlan::with_threads(threads),
                lane_population(seed),
            );
            prop_assert_eq!(
                &kernel,
                &oracle,
                "fast kernels diverged for seed {:#x} under {:?} at {} threads",
                seed,
                mode,
                threads
            );
        }
    }
}

#[test]
fn explicit_kernel_choice_overrides_the_default() {
    // `new()` picks the bit-parallel kernel without consulting the
    // environment; `with_kernel` replaces it.
    let scheme = FastScheme::new(10.0);
    assert_eq!(scheme.kernel(), DiagnosisKernel::BitParallel);
    assert_eq!(
        scheme.with_kernel(DiagnosisKernel::PerMemory).kernel(),
        DiagnosisKernel::PerMemory
    );
    assert_eq!(HuangScheme::new(10.0).kernel(), DiagnosisKernel::BitParallel);
    assert_eq!(
        HuangScheme::new(10.0)
            .with_kernel(DiagnosisKernel::PerMemory)
            .kernel(),
        DiagnosisKernel::PerMemory
    );
}
