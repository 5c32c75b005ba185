//! Differential tests of scoring: `DiagnosisScore::evaluate`, which
//! reads the result through its located-site index, must equal the
//! nested-loop scoring it replaced, kept here as the oracle over a
//! naive set of the located sites. Inputs are diagnosed random
//! populations and hand-built site lists covering the edge cases the
//! index must preserve: duplicate sites, sites of memories outside the
//! population, sparse and out-of-order memory ids, several injected
//! faults at one site, and decoder faults with and without a site at
//! their address.

use bisd::{DiagnosisLog, FaultSite, LocatedSites};
use esram_diag::{
    Address, DiagnosisResult, DiagnosisScheme, DiagnosisScore, FastScheme, FaultClass, FaultList,
    HuangScheme, MemConfig, MemoryFault, MemoryId, MemoryUnderDiagnosis, Soc,
};
use proptest::prelude::*;
use sram_model::cell::CellCoord;
use sram_model::{DecoderFault, DecoderFaultKind};
use std::collections::BTreeSet;
use testutil::FixtureRng;

/// The scoring rule as a nested loop over a naive site set: per memory,
/// the set of that memory's located cells, then a scan of the set for
/// each injected fault (a decoder fault is hit by any cell at its
/// address).
fn oracle_evaluate(memories: &[MemoryUnderDiagnosis], sites: &BTreeSet<FaultSite>) -> DiagnosisScore {
    let mut score = DiagnosisScore::default();
    let mut matched_sites = 0usize;
    let mut total_sites = 0usize;
    for memory in memories {
        let located: BTreeSet<(Address, usize)> = sites
            .iter()
            .filter(|site| site.memory == memory.id)
            .map(|site| (site.address, site.bit))
            .collect();
        total_sites += located.len();
        for fault in memory.injected.iter() {
            *score.injected_by_class.entry(fault.class()).or_insert(0) += 1;
            let hit = match fault {
                MemoryFault::Cell { coord, .. } => located
                    .iter()
                    .any(|&(address, bit)| address == coord.address && bit == coord.bit),
                MemoryFault::Decoder(decoder_fault) => located
                    .iter()
                    .any(|&(address, _)| address == decoder_fault.address),
            };
            if hit {
                *score.located_by_class.entry(fault.class()).or_insert(0) += 1;
                matched_sites += 1;
            }
        }
    }
    score.additional_sites = total_sites.saturating_sub(matched_sites);
    score
}

/// Asserts that the index-backed score and site views equal the oracle
/// over `sites`, the naive set of every site pushed into the result.
fn assert_matches_oracle(
    memories: &[MemoryUnderDiagnosis],
    result: &DiagnosisResult,
    sites: &BTreeSet<FaultSite>,
) {
    assert_eq!(
        DiagnosisScore::evaluate(memories, result),
        oracle_evaluate(memories, sites)
    );
    let all: Vec<FaultSite> = sites.iter().copied().collect();
    assert_eq!(result.located_sites().all(), all.as_slice());
    assert_eq!(result.located_count(), sites.len());
    for memory in memories {
        let of_memory: BTreeSet<FaultSite> = sites
            .iter()
            .filter(|site| site.memory == memory.id)
            .copied()
            .collect();
        let failing: BTreeSet<Address> = of_memory.iter().map(|site| site.address).collect();
        assert_eq!(result.failing_addresses(memory.id), failing);
        assert_eq!(result.sites(memory.id), of_memory);
    }
}

fn site(memory: u32, address: u64, bit: usize) -> FaultSite {
    FaultSite::new(MemoryId::new(memory), Address::new(address), bit)
}

/// A result located by pushing `pushes` in the given order, duplicates
/// included, one mismatching read per push.
fn result_of(pushes: &[FaultSite]) -> DiagnosisResult {
    let sites: LocatedSites = pushes.iter().copied().collect();
    DiagnosisResult {
        log: DiagnosisLog::new(sites, pushes.len()),
        cycles: 0,
        pause_ms: 0.0,
        iterations: 1,
        clock_period_ns: 10.0,
    }
}

/// [`result_of`] with the naive set of its pushes.
fn pushed(pushes: &[FaultSite]) -> (DiagnosisResult, BTreeSet<FaultSite>) {
    (result_of(pushes), pushes.iter().copied().collect())
}

const WORDS: u64 = 8;
const WIDTH: usize = 4;

/// A memory carrying `faults` as its ground truth. The faults are not
/// injected into the array: scoring reads only the ground-truth list,
/// and hand-built logs need not follow from it.
fn memory(id: u32, faults: Vec<MemoryFault>) -> MemoryUnderDiagnosis {
    MemoryUnderDiagnosis {
        injected: faults.into_iter().collect::<FaultList>(),
        ..MemoryUnderDiagnosis::pristine(MemoryId::new(id), MemConfig::new(WORDS, WIDTH).unwrap())
    }
}

fn stuck_at(address: u64, bit: usize) -> MemoryFault {
    MemoryFault::stuck_at_0(CellCoord::new(Address::new(address), bit))
}

fn decoder(address: u64) -> MemoryFault {
    MemoryFault::decoder(DecoderFault::new(
        Address::new(address),
        DecoderFaultKind::NoAccess,
    ))
}

/// A random hand-built population and random `(memory, address, bit)`
/// pushes over a small address space, in any memory order, so sites
/// collide often.
fn hand_built(seed: u64) -> (Vec<MemoryUnderDiagnosis>, Vec<FaultSite>) {
    let mut rng = FixtureRng::new(seed);
    // Sparse ids in shuffled order.
    let mut ids: Vec<u32> = (0..12).filter(|_| rng.below(3) == 0).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let memories: Vec<MemoryUnderDiagnosis> = ids
        .iter()
        .map(|&id| {
            let faults = (0..rng.below(6))
                .map(|_| {
                    let address = rng.below(WORDS);
                    match rng.below(4) {
                        0 => decoder(address),
                        1 => MemoryFault::transition_up(CellCoord::new(
                            Address::new(address),
                            rng.below(2) as usize,
                        )),
                        _ => stuck_at(address, rng.below(2) as usize),
                    }
                })
                .collect();
            memory(id, faults)
        })
        .collect();
    let mut pushes: Vec<FaultSite> = Vec::new();
    for _ in 0..rng.below(48) {
        if !pushes.is_empty() && rng.below(4) == 0 {
            let copy = pushes[rng.below(pushes.len() as u64) as usize];
            pushes.push(copy);
            continue;
        }
        // Ids 0..14 reach past the population's largest id.
        let memory = rng.below(14) as u32;
        pushes.push(site(memory, rng.below(WORDS), rng.below(WIDTH as u64) as usize));
    }
    (memories, pushes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hand-built site pushes score exactly as the nested-loop oracle
    /// does.
    #[test]
    fn hand_built_logs_score_as_the_oracle(seed in any::<u64>()) {
        let (memories, pushes) = hand_built(seed);
        let (result, sites) = pushed(&pushes);
        assert_matches_oracle(&memories, &result, &sites);
        prop_assert_eq!(result.log.len(), pushes.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Diagnosed random populations (four-class mix, optionally with
    /// DRFs, both schemes) score exactly as the oracle does.
    #[test]
    fn diagnosed_populations_score_as_the_oracle(
        seed in any::<u64>(),
        members in 1usize..5,
        rate_permille in 5u64..80,
        variant in 0u8..4,
    ) {
        let mut builder = Soc::builder()
            .memories(members, 32, 8)
            .unwrap()
            .memory(16, 5)
            .unwrap()
            .defect_rate(rate_permille as f64 / 1000.0)
            .seed(seed);
        if variant & 1 == 1 {
            builder = builder.with_data_retention_defects();
        }
        let mut soc = builder.build().unwrap();
        let result = if variant & 2 == 0 {
            FastScheme::new(10.0).diagnose(soc.memories_mut()).unwrap()
        } else {
            HuangScheme::new(10.0).diagnose(soc.memories_mut()).unwrap()
        };
        let sites: BTreeSet<FaultSite> = result.located_sites().all().iter().copied().collect();
        assert_matches_oracle(soc.memories(), &result, &sites);
        prop_assert_eq!(soc.score(&result), oracle_evaluate(soc.memories(), &sites));
    }
}

#[test]
fn edge_cases_score_as_the_oracle_and_as_pinned() {
    let memories = vec![
        // Out of order and non-contiguous.
        memory(7, vec![stuck_at(1, 0), stuck_at(1, 0), decoder(4)]),
        memory(2, vec![decoder(5), stuck_at(3, 3)]),
    ];
    let (result, sites) = pushed(&[
        site(9, 0, 1), // memory outside the population, pushed first
        site(7, 1, 2),
        site(7, 1, 0),
        site(7, 1, 0), // duplicate push
        site(7, 4, 3), // fails word 4
        site(2, 3, 1), // wrong bit: the stuck-at at bit 3 is missed
        site(9, 0, 0),
    ]);
    assert_matches_oracle(&memories, &result, &sites);
    let score = DiagnosisScore::evaluate(&memories, &result);
    assert_eq!(score.injected(), 5);
    // Both stuck-ats at 7:@1[0] count, the decoder at 7:@4 is hit
    // through the site at its word, the decoder at 2:@5 has none.
    assert_eq!(score.located(), 3);
    assert_eq!(score.located_by_class[&FaultClass::StuckAt], 2);
    assert_eq!(score.located_by_class[&FaultClass::AddressDecoder], 1);
    // Sites of 7 and 2: {1[0], 1[2], 4[3], 3[1]} = 4; minus 3 hits = 1.
    assert_eq!(score.additional_sites, 1);
    assert_eq!(result.located_count(), 6);
    assert_eq!(result.log.len(), 7);
}

#[test]
fn hits_beyond_the_located_sites_floor_additional_sites_at_zero() {
    // Two faults at one site plus a decoder hit through a site at its
    // word: three hits against two located sites.
    let memories = vec![memory(0, vec![stuck_at(2, 1), stuck_at(2, 1), decoder(6)])];
    let (result, sites) = pushed(&[site(0, 6, 0), site(0, 2, 1)]);
    assert_matches_oracle(&memories, &result, &sites);
    let score = DiagnosisScore::evaluate(&memories, &result);
    assert_eq!(score.located(), 3);
    assert_eq!(score.additional_sites, 0);
}

#[test]
fn scheme_coverage_counts_are_pinned() {
    // Sec. 4.1 scheme coverage locates through the same index as
    // scoring; these are its (total, detected, located) counts per class
    // on the full 8x4 universe from before the index existed.
    let config = MemConfig::new(8, 4).unwrap();
    let universe = esram_diag::FaultUniverse::new(config).date2005_full();
    let counts = |report: &march::CoverageReport| -> Vec<(FaultClass, usize, usize, usize)> {
        report
            .classes()
            .map(|(class, c)| (class, c.total, c.detected, c.located))
            .collect()
    };
    use FaultClass::{AddressDecoder, Coupling, DataRetention, StuckAt, Transition};
    assert_eq!(
        counts(&esram_diag::scheme_coverage(
            &FastScheme::new(10.0),
            config,
            &universe
        )),
        vec![
            (StuckAt, 64, 64, 64),
            (Transition, 64, 64, 64),
            (Coupling, 520, 520, 520),
            (AddressDecoder, 24, 24, 24),
            (DataRetention, 64, 64, 64),
        ]
    );
    assert_eq!(
        counts(&esram_diag::scheme_coverage(
            &HuangScheme::new(10.0),
            config,
            &universe
        )),
        vec![
            (StuckAt, 64, 64, 64),
            (Transition, 64, 64, 64),
            (Coupling, 520, 368, 368),
            (AddressDecoder, 24, 24, 23),
            (DataRetention, 64, 0, 0),
        ]
    );
}
