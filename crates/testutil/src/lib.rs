//! Shared deterministic test fixtures for the `esram-diag` workspace.
//!
//! Every integration test in the workspace draws its geometries, seeds
//! and defect populations from this crate so that (a) the same grid of
//! (geometry × defect-count) points is exercised consistently across
//! crates, and (b) future scale/performance PRs inherit a regression net
//! whose inputs never drift. Nothing here is randomised at run time: all
//! "randomness" is derived from fixed seeds through a SplitMix64 stream.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use fault_models::{FaultList, MemoryFault};
use sram_model::cell::CellCoord;
use sram_model::{Address, MemConfig};

/// Fixed seeds used by deterministic experiments across the workspace.
///
/// `SEEDS[0]` is the canonical seed (the paper's year, as used by the
/// `fault_models` doctest); the rest provide independent repetitions.
pub const SEEDS: [u64; 6] = [0xDA7E_2005, 1, 7, 42, 0xBEEF, 0x5EED];

/// The paper's benchmark geometry from \[16\]: 512 words × 100 IO bits.
pub fn benchmark_geometry() -> MemConfig {
    MemConfig::new(512, 100).expect("benchmark geometry is valid")
}

/// Geometry grid for closed-form / cycle-accounting tests (cheap to
/// sweep even for the full benchmark size).
///
/// Mixes power-of-two and non-power-of-two words/widths so that
/// `⌈log2 c⌉` rounding and address-wrap behaviour are both exercised.
pub fn geometry_grid() -> Vec<MemConfig> {
    [
        (16u64, 4usize),
        (32, 8),
        (64, 8),
        (64, 16),
        (128, 5),
        (256, 20),
        (512, 100),
    ]
    .into_iter()
    .map(|(words, width)| MemConfig::new(words, width).expect("grid geometry is valid"))
    .collect()
}

/// Geometry grid for simulation-heavy tests (full scheme runs with
/// defect injection) — small enough to keep `cargo test` fast.
pub fn small_geometry_grid() -> Vec<MemConfig> {
    [(16u64, 4usize), (32, 8), (24, 6), (64, 16)]
        .into_iter()
        .map(|(words, width)| MemConfig::new(words, width).expect("grid geometry is valid"))
        .collect()
}

/// Defect counts used by diagnosis-time grids.
///
/// Zero is included so defect-count-independence claims always have the
/// clean base point; the top value forces several baseline iterations.
pub const DEFECT_COUNTS: [usize; 4] = [0, 1, 4, 16];

/// A deterministic SplitMix64 stream for fixture generation.
#[derive(Debug, Clone)]
pub struct FixtureRng {
    state: u64,
}

impl FixtureRng {
    /// Creates a stream from a fixed seed.
    pub fn new(seed: u64) -> Self {
        FixtureRng { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniform in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Picks `count` distinct cell coordinates of `config`, deterministically
/// for a given seed.
///
/// # Panics
///
/// Panics if `count` exceeds the number of cells in the geometry.
pub fn distinct_sites(config: MemConfig, count: usize, seed: u64) -> Vec<CellCoord> {
    let cells = config.cells();
    assert!(
        count as u64 <= cells,
        "cannot pick {count} distinct sites from {cells} cells"
    );
    let mut rng = FixtureRng::new(seed);
    let width = config.width() as u64;
    let mut chosen = std::collections::BTreeSet::new();
    let mut sites = Vec::with_capacity(count);
    while sites.len() < count {
        let site = rng.below(cells);
        if chosen.insert(site) {
            sites.push(CellCoord::new(
                Address::new(site / width),
                (site % width) as usize,
            ));
        }
    }
    sites
}

/// Builds a deterministic population of `count` stuck-at faults (value
/// alternating by position) at distinct sites of `config`.
pub fn stuck_at_population(config: MemConfig, count: usize, seed: u64) -> FaultList {
    distinct_sites(config, count, seed)
        .into_iter()
        .enumerate()
        .map(|(i, coord)| {
            if i % 2 == 0 {
                MemoryFault::stuck_at_1(coord)
            } else {
                MemoryFault::stuck_at_0(coord)
            }
        })
        .collect()
}

/// Builds a deterministic population of `count` data-retention faults
/// (node alternating by position) at distinct sites of `config`.
pub fn drf_population(config: MemConfig, count: usize, seed: u64) -> FaultList {
    distinct_sites(config, count, seed)
        .into_iter()
        .enumerate()
        .map(|(i, coord)| {
            if i % 2 == 0 {
                MemoryFault::data_retention_a(coord)
            } else {
                MemoryFault::data_retention_b(coord)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_valid_and_stable() {
        assert_eq!(geometry_grid().len(), 7);
        assert_eq!(small_geometry_grid().len(), 4);
        assert_eq!(geometry_grid(), geometry_grid());
        assert!(geometry_grid().contains(&benchmark_geometry()));
    }

    #[test]
    fn distinct_sites_are_distinct_in_bounds_and_deterministic() {
        let config = MemConfig::new(16, 4).unwrap();
        let sites = distinct_sites(config, 20, SEEDS[0]);
        assert_eq!(sites.len(), 20);
        let unique: std::collections::BTreeSet<_> =
            sites.iter().map(|s| (s.address.index(), s.bit)).collect();
        assert_eq!(unique.len(), 20);
        for site in &sites {
            assert!(site.address.index() < 16);
            assert!(site.bit < 4);
        }
        assert_eq!(sites, distinct_sites(config, 20, SEEDS[0]));
        assert_ne!(sites, distinct_sites(config, 20, SEEDS[1]));
    }

    #[test]
    #[should_panic(expected = "distinct sites")]
    fn too_many_sites_panics() {
        let config = MemConfig::new(2, 2).unwrap();
        let _ = distinct_sites(config, 5, 0);
    }

    #[test]
    fn populations_have_requested_size_and_class() {
        let config = MemConfig::new(32, 8).unwrap();
        let stuck = stuck_at_population(config, 10, SEEDS[2]);
        assert_eq!(stuck.len(), 10);
        assert!(stuck
            .iter()
            .all(|f| f.class() == fault_models::FaultClass::StuckAt));
        let drf = drf_population(config, 6, SEEDS[3]);
        assert_eq!(drf.len(), 6);
        assert!(drf
            .iter()
            .all(|f| f.class() == fault_models::FaultClass::DataRetention));
    }
}
