//! The bit-parallel diagnosis kernel must be *byte-identical* to the
//! per-memory oracle it replaces: identical verdicts, identical
//! mismatch logs (exact record order included), identical cycle and
//! pause accounting — the kernel is a pure execution strategy, never an
//! observable behaviour change.
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
//!   must fall back to the oracle wholesale.

use bisd::{DiagnosisKernel, DrfMode, FastScheme, HuangScheme, MemoryUnderDiagnosis};
use fault_models::{DefectProfile, FaultInjector, FaultList, MemoryFault};
use march::ShardPlan;
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
/// width (the only members the skipping kernel elides).
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
    // Byte-identical includes exact record order, not just sets.
    assert_eq!(bit_parallel.log.records(), oracle.log.records());
    assert_eq!(bit_parallel.cycles, oracle.cycles);
    assert_eq!(bit_parallel.pause_ms, oracle.pause_ms);
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
        let mut oracle_population = huang_population(21);
        let oracle = scheme
            .with_kernel(DiagnosisKernel::PerMemory)
            .diagnose_with(ShardPlan::sequential(), &mut oracle_population)
            .expect("oracle run");
        let mut kernel_population = huang_population(21);
        let skipping = scheme
            .with_kernel(DiagnosisKernel::BitParallel)
            .diagnose_with(ShardPlan::sequential(), &mut kernel_population)
            .expect("pristine-skipping run");
        assert_eq!(skipping, oracle, "baseline kernels diverged for {scheme:?}");
        assert_eq!(skipping.log.records(), oracle.log.records());
        assert_eq!(skipping.iterations, oracle.iterations);
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
        let mut oracle_population = class_population();
        let oracle = scheme
            .with_kernel(DiagnosisKernel::PerMemory)
            .diagnose_with(ShardPlan::sequential(), &mut oracle_population)
            .expect("oracle run");
        let mut kernel_population = class_population();
        let skipping = scheme
            .with_kernel(DiagnosisKernel::BitParallel)
            .diagnose_with(ShardPlan::sequential(), &mut kernel_population)
            .expect("pristine-skipping run");
        assert_eq!(skipping, oracle, "baseline kernels diverged for {scheme:?}");
        assert_eq!(skipping.log.records(), oracle.log.records());
        assert_eq!(skipping.iterations, oracle.iterations);
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
