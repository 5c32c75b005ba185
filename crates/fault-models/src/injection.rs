//! Random defect injection parameterised by defect rate and class mix.

use crate::fault::{FaultClass, MemoryFault};
use crate::list::FaultList;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sram_model::cell::CellCoord;
use sram_model::{
    Address, CellFault, CellNode, CouplingKind, DecoderFault, DecoderFaultKind, MemConfig, MemError, Sram,
};

/// Statistical description of a manufacturing defect population.
///
/// The paper's case study assumes "1 % of the memory cells are defective
/// and all four different defect types in \[8\] occur with equal
/// likelihood"; [`DefectProfile::date2005`] reproduces that profile and
/// [`DefectProfile::with_data_retention`] extends it with DRFs for the
/// coverage experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectProfile {
    /// Fraction of bit cells that are defective (0.0 ..= 1.0).
    pub defect_rate: f64,
    /// Relative weights of each fault class in the defect population.
    pub class_weights: Vec<(FaultClass, f64)>,
}

impl DefectProfile {
    /// The paper's case-study profile: the four baseline defect classes
    /// of \[8\] with equal likelihood at the given defect rate.
    ///
    /// # Panics
    ///
    /// Panics if `defect_rate` is not within `0.0..=1.0`.
    pub fn date2005(defect_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&defect_rate),
            "defect rate must be within 0..=1"
        );
        DefectProfile {
            defect_rate,
            class_weights: FaultClass::date2005_baseline_classes()
                .into_iter()
                .map(|class| (class, 1.0))
                .collect(),
        }
    }

    /// The case-study profile extended with data-retention faults at the
    /// same likelihood as the other classes (five classes, equal weight).
    ///
    /// # Panics
    ///
    /// Panics if `defect_rate` is not within `0.0..=1.0`.
    pub fn with_data_retention(defect_rate: f64) -> Self {
        let mut profile = DefectProfile::date2005(defect_rate);
        profile.class_weights.push((FaultClass::DataRetention, 1.0));
        profile
    }

    /// A single-class profile (useful for per-class coverage sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `defect_rate` is not within `0.0..=1.0`.
    pub fn single_class(class: FaultClass, defect_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&defect_rate),
            "defect rate must be within 0..=1"
        );
        DefectProfile {
            defect_rate,
            class_weights: vec![(class, 1.0)],
        }
    }

    /// Expected number of defective cells for a memory of the given
    /// geometry (the paper rounds 512 x 100 x 1 % / 2 = 256 "maximum
    /// number of total faults"; we expose the raw expectation and leave
    /// interpretation to callers).
    pub fn expected_defects(&self, config: MemConfig) -> f64 {
        config.cells() as f64 * self.defect_rate
    }

    fn total_weight(&self) -> f64 {
        self.class_weights.iter().map(|(_, w)| w).sum()
    }

    fn sample_class<R: Rng>(&self, rng: &mut R) -> FaultClass {
        let total = self.total_weight();
        let mut pick = rng.gen_range(0.0..total);
        for (class, weight) in &self.class_weights {
            if pick < *weight {
                return *class;
            }
            pick -= weight;
        }
        self.class_weights
            .last()
            .map(|(c, _)| *c)
            .unwrap_or(FaultClass::StuckAt)
    }
}

/// Seeded random fault injector.
///
/// The injector draws defect sites without replacement, maps each site
/// to a concrete behavioural fault of the sampled class and injects it
/// into the memory, returning the resulting [`FaultList`] as ground
/// truth for diagnosis-accuracy checks.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector with the given seed (deterministic runs).
    pub fn with_seed(seed: u64) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates the injector for stream `index` of a base `seed`.
    ///
    /// The `(seed, index)` → stream-seed mapping is a fixed SplitMix64
    /// derivation, so a caller injecting one population per memory can
    /// hand every memory its own independent, reproducible stream —
    /// memory `index` draws identical faults no matter how many other
    /// memories are built, in which order, or on which worker thread.
    /// This is what makes population-scale SoC construction
    /// embarrassingly parallel while staying bit-identical to a
    /// sequential build.
    pub fn for_stream(seed: u64, index: u64) -> Self {
        FaultInjector::with_seed(Self::stream_seed(seed, index))
    }

    /// The SplitMix64 stream-seed derivation behind
    /// [`FaultInjector::for_stream`] (exposed so tests and docs can
    /// state the mapping precisely).
    pub fn stream_seed(seed: u64, index: u64) -> u64 {
        let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Generates a random defect population for `config` according to
    /// `profile`, without touching any memory.
    pub fn generate(&mut self, config: MemConfig, profile: &DefectProfile) -> FaultList {
        let cells = config.cells();
        let defect_count = (cells as f64 * profile.defect_rate).round() as u64;
        let defect_count = defect_count.min(cells);

        // Sample distinct cell sites without replacement.
        let mut sites: Vec<u64> = (0..cells).collect();
        sites.shuffle(&mut self.rng);
        sites.truncate(defect_count as usize);

        let width = config.width() as u64;
        let mut list = FaultList::new();
        for site in sites {
            let coord = CellCoord::new(Address::new(site / width), (site % width) as usize);
            let class = profile.sample_class(&mut self.rng);
            let fault = self.concretise(config, coord, class);
            list.push(fault);
        }
        list
    }

    /// Generates a defect population and injects it into `sram`.
    ///
    /// # Errors
    ///
    /// Propagates injection errors from the memory model (which cannot
    /// occur for populations generated against the same configuration).
    pub fn inject(&mut self, sram: &mut Sram, profile: &DefectProfile) -> Result<FaultList, MemError> {
        let list = self.generate(sram.config(), profile);
        for fault in list.iter() {
            fault.inject_into(sram)?;
        }
        Ok(list)
    }

    /// Maps a (site, class) pair onto a concrete behavioural fault.
    fn concretise(&mut self, config: MemConfig, coord: CellCoord, class: FaultClass) -> MemoryFault {
        match class {
            FaultClass::StuckAt => {
                let value = self.rng.gen_bool(0.5);
                MemoryFault::cell(coord, CellFault::StuckAt(value))
            }
            FaultClass::Transition => {
                if self.rng.gen_bool(0.5) {
                    MemoryFault::cell(coord, CellFault::TransitionUp)
                } else {
                    MemoryFault::cell(coord, CellFault::TransitionDown)
                }
            }
            FaultClass::Coupling => {
                let aggressor = self.random_other_coord(config, coord);
                let kind = match self.rng.gen_range(0..3u8) {
                    0 => CouplingKind::Idempotent {
                        aggressor_rises: self.rng.gen_bool(0.5),
                        forced_value: self.rng.gen_bool(0.5),
                    },
                    1 => CouplingKind::Inversion {
                        aggressor_rises: self.rng.gen_bool(0.5),
                    },
                    _ => CouplingKind::State {
                        aggressor_value: self.rng.gen_bool(0.5),
                        forced_value: self.rng.gen_bool(0.5),
                    },
                };
                MemoryFault::cell(coord, CellFault::Coupling { aggressor, kind })
            }
            FaultClass::AddressDecoder => {
                let kind = match self.rng.gen_range(0..3u8) {
                    0 => DecoderFaultKind::NoAccess,
                    1 => DecoderFaultKind::MapsTo(self.random_other_address(config, coord.address)),
                    _ => DecoderFaultKind::AlsoAccesses(self.random_other_address(config, coord.address)),
                };
                MemoryFault::decoder(DecoderFault::new(coord.address, kind))
            }
            FaultClass::DataRetention => {
                let node = if self.rng.gen_bool(0.5) {
                    CellNode::A
                } else {
                    CellNode::B
                };
                MemoryFault::cell(coord, CellFault::DataRetention { node })
            }
            FaultClass::ReadDisturb => {
                let fault = match self.rng.gen_range(0..3u8) {
                    0 => CellFault::ReadDestructive,
                    1 => CellFault::DeceptiveReadDestructive,
                    _ => CellFault::IncorrectRead,
                };
                MemoryFault::cell(coord, fault)
            }
            FaultClass::StuckOpen => MemoryFault::cell(coord, CellFault::StuckOpen),
        }
    }

    fn random_other_address(&mut self, config: MemConfig, not: Address) -> Address {
        if config.words() == 1 {
            return not;
        }
        loop {
            let candidate = Address::new(self.rng.gen_range(0..config.words()));
            if candidate != not {
                return candidate;
            }
        }
    }

    fn random_other_coord(&mut self, config: MemConfig, not: CellCoord) -> CellCoord {
        if config.cells() == 1 {
            return not;
        }
        loop {
            let address = Address::new(self.rng.gen_range(0..config.words()));
            let bit = self.rng.gen_range(0..config.width());
            let candidate = CellCoord::new(address, bit);
            if candidate != not {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date2005_profile_has_four_equal_classes() {
        let profile = DefectProfile::date2005(0.01);
        assert_eq!(profile.class_weights.len(), 4);
        assert!(profile
            .class_weights
            .iter()
            .all(|(_, w)| (*w - 1.0).abs() < 1e-12));
        assert!((profile.defect_rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn with_data_retention_adds_a_fifth_class() {
        let profile = DefectProfile::with_data_retention(0.01);
        assert_eq!(profile.class_weights.len(), 5);
        assert!(profile
            .class_weights
            .iter()
            .any(|(c, _)| *c == FaultClass::DataRetention));
    }

    #[test]
    #[should_panic(expected = "defect rate")]
    fn out_of_range_defect_rate_panics() {
        let _ = DefectProfile::date2005(1.5);
    }

    #[test]
    fn expected_defects_matches_case_study_scale() {
        // 512 words x 100 bits x 1 % = 512 defective cells.
        let config = MemConfig::date2005_benchmark();
        let profile = DefectProfile::date2005(0.01);
        assert!((profile.expected_defects(config) - 512.0).abs() < 1e-9);
    }

    #[test]
    fn generate_produces_requested_defect_count_and_classes() {
        let config = MemConfig::new(64, 8).unwrap();
        let mut injector = FaultInjector::with_seed(42);
        let profile = DefectProfile::date2005(0.05);
        let list = injector.generate(config, &profile);
        // 64*8 = 512 cells, 5 % = ~26 defects.
        assert_eq!(list.len(), 26);
        let allowed = FaultClass::date2005_baseline_classes();
        assert!(list.iter().all(|f| allowed.contains(&f.class())));
    }

    #[test]
    fn generate_is_deterministic_for_a_given_seed() {
        let config = MemConfig::new(32, 4).unwrap();
        let profile = DefectProfile::with_data_retention(0.1);
        let a = FaultInjector::with_seed(7).generate(config, &profile);
        let b = FaultInjector::with_seed(7).generate(config, &profile);
        assert_eq!(a, b);
        let c = FaultInjector::with_seed(8).generate(config, &profile);
        assert_ne!(a, c);
    }

    #[test]
    fn inject_applies_all_faults_to_the_memory() {
        let config = MemConfig::new(32, 4).unwrap();
        let mut sram = Sram::new(config);
        let mut injector = FaultInjector::with_seed(11);
        let list = injector
            .inject(&mut sram, &DefectProfile::single_class(FaultClass::StuckAt, 0.1))
            .unwrap();
        assert!(!list.is_empty());
        assert_eq!(sram.cell_faults().len(), list.len());
        assert!(sram.is_faulty());
    }

    #[test]
    fn single_class_profile_generates_only_that_class() {
        let config = MemConfig::new(64, 4).unwrap();
        let mut injector = FaultInjector::with_seed(3);
        for class in FaultClass::all() {
            let list = injector.generate(config, &DefectProfile::single_class(class, 0.05));
            assert!(list.iter().all(|f| f.class() == class), "class {class} leaked");
        }
    }

    #[test]
    fn stream_seeds_are_stable_distinct_and_reproducible() {
        assert_eq!(FaultInjector::stream_seed(7, 0), FaultInjector::stream_seed(7, 0));
        assert_ne!(FaultInjector::stream_seed(7, 0), FaultInjector::stream_seed(7, 1));
        assert_ne!(FaultInjector::stream_seed(7, 0), FaultInjector::stream_seed(8, 0));
        let config = MemConfig::new(32, 4).unwrap();
        let profile = DefectProfile::date2005(0.1);
        let a = FaultInjector::for_stream(7, 3).generate(config, &profile);
        let b = FaultInjector::for_stream(7, 3).generate(config, &profile);
        assert_eq!(a, b);
        let other_stream = FaultInjector::for_stream(7, 4).generate(config, &profile);
        assert_ne!(a, other_stream);
    }

    #[test]
    fn zero_defect_rate_generates_nothing() {
        let config = MemConfig::new(64, 4).unwrap();
        let mut injector = FaultInjector::with_seed(3);
        let list = injector.generate(config, &DefectProfile::date2005(0.0));
        assert!(list.is_empty());
    }

    #[test]
    fn full_defect_rate_is_bounded_by_cell_count() {
        let config = MemConfig::new(8, 2).unwrap();
        let mut injector = FaultInjector::with_seed(3);
        let list = injector.generate(config, &DefectProfile::single_class(FaultClass::StuckAt, 1.0));
        assert_eq!(list.len(), 16);
    }
}
