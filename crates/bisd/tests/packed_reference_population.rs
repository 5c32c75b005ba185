//! The fast scheme must observe *identical diagnoses* whether the
//! population is built from packed bit-plane `Sram`s or dense per-cell
//! `ReferenceSram`s — the population-level extension of the march-level
//! dense-vs-overlay equivalence suite (and the safety net under the SoA
//! golden-store rewrite: the controller's expectations may not depend on
//! which memory model backs the population).
//!
//! (This lives in the `bisd` crate rather than next to
//! `packed_reference_equivalence.rs` because the scheme depends on the
//! march crate, not the other way around.)

use bisd::{DiagnosisScheme, DrfMode, FastScheme, MemoryUnderDiagnosis};
use fault_models::MemoryFault;
use march::ShardPlan;
use sram_model::cell::CellCoord;
use sram_model::{Address, CellFault, MemConfig, MemoryId, ReferenceSram, Sram};
use testutil::{distinct_sites, FixtureRng, SEEDS};

/// Heterogeneous population geometries: mixed word counts and widths so
/// wrap-around, width truncation and the SoA class dedup are exercised.
fn geometries() -> Vec<MemConfig> {
    vec![
        MemConfig::new(32, 8).unwrap(),
        MemConfig::new(16, 4).unwrap(),
        MemConfig::new(16, 8).unwrap(),
        MemConfig::new(24, 6).unwrap(),
    ]
}

/// Draws a deterministic fault population per memory: a couple of
/// single-row faults plus (for some memories) an intra-word coupling or
/// a retention fault.
fn faults_for(config: MemConfig, seed: u64) -> Vec<MemoryFault> {
    let mut rng = FixtureRng::new(seed);
    let sites = distinct_sites(config, 4, seed);
    let mut faults = vec![
        if rng.next_u64() & 1 == 0 {
            MemoryFault::stuck_at_1(sites[0])
        } else {
            MemoryFault::stuck_at_0(sites[0])
        },
        MemoryFault::transition_up(sites[1]),
    ];
    match rng.below(3) {
        0 => faults.push(MemoryFault::data_retention_a(sites[2])),
        1 => {
            let aggressor = CellCoord::new(sites[2].address, (sites[2].bit + 1) % config.width());
            if aggressor != sites[2] {
                faults.push(MemoryFault::coupling_state(sites[2], aggressor, true, true));
            }
        }
        _ => faults.push(MemoryFault::cell(sites[3], CellFault::ReadDestructive)),
    }
    faults
}

/// Builds the same defective population twice: once packed, once dense.
#[allow(clippy::type_complexity)]
fn build_populations(seed: u64) -> (Vec<(MemoryId, Sram)>, Vec<(MemoryId, ReferenceSram)>) {
    let mut packed = Vec::new();
    let mut dense = Vec::new();
    for (index, config) in geometries().into_iter().enumerate() {
        let id = MemoryId::new(index as u32);
        let mut p = Sram::new(config);
        let mut d = ReferenceSram::new(config);
        for fault in faults_for(config, seed ^ (index as u64) << 8) {
            fault.inject_into(&mut p).expect("fault fits");
            fault.inject_into(&mut d).expect("fault fits");
        }
        packed.push((id, p));
        dense.push((id, d));
    }
    (packed, dense)
}

fn schemes() -> Vec<FastScheme> {
    vec![
        FastScheme::new(10.0),
        FastScheme::new(10.0).with_drf_mode(DrfMode::None),
        FastScheme::new(10.0).with_drf_mode(DrfMode::RetentionPause(100)),
        FastScheme::new(10.0).with_march_c_minus(),
    ]
}

#[test]
fn fast_scheme_diagnoses_packed_and_dense_populations_identically() {
    for seed in SEEDS {
        for scheme in schemes() {
            let (mut packed, mut dense) = build_populations(seed);
            let from_packed = scheme
                .diagnose_ports_with(ShardPlan::default(), &mut packed)
                .expect("packed run");
            let from_dense = scheme
                .diagnose_ports_with(ShardPlan::default(), &mut dense)
                .expect("dense run");
            assert_eq!(
                from_packed,
                from_dense,
                "diagnosis diverged between packed and dense populations (seed {seed:#x}, {})",
                scheme.drf_mode()
            );
        }
    }
}

#[test]
fn diagnose_ports_agrees_with_the_trait_entry_point() {
    // The generic port-based core and the `MemoryUnderDiagnosis` trait
    // facade must produce the same result for the same population.
    let (packed, _) = build_populations(SEEDS[0]);
    let mut via_ports = build_populations(SEEDS[0]).0;
    let mut via_trait: Vec<MemoryUnderDiagnosis> = packed
        .into_iter()
        .map(|(id, sram)| {
            let mut memory = MemoryUnderDiagnosis::pristine(id, sram.config());
            memory.sram = sram;
            memory
        })
        .collect();
    let scheme = FastScheme::new(10.0);
    let from_ports = scheme
        .diagnose_ports_with(ShardPlan::default(), &mut via_ports)
        .expect("port run");
    let from_trait = scheme.diagnose(&mut via_trait).expect("trait run");
    assert_eq!(from_ports, from_trait);
}

#[test]
fn located_sites_cover_the_injected_single_row_faults() {
    // Sanity beyond equivalence: the diagnoses are not just equal but
    // actually locate the deterministic stuck-at ground truth.
    let (mut packed, _) = build_populations(SEEDS[3]);
    let injected: Vec<(MemoryId, Address, usize)> = geometries()
        .iter()
        .enumerate()
        .map(|(index, &config)| {
            let site = distinct_sites(config, 4, SEEDS[3] ^ (index as u64) << 8)[0];
            (MemoryId::new(index as u32), site.address, site.bit)
        })
        .collect();
    let result = FastScheme::new(10.0)
        .diagnose_ports_with(ShardPlan::default(), &mut packed)
        .expect("run");
    for (id, address, bit) in injected {
        assert!(
            result
                .sites(id)
                .iter()
                .any(|s| s.address == address && s.bit == bit),
            "stuck-at ground truth at {id}/{address}/bit {bit} not located"
        );
    }
}
