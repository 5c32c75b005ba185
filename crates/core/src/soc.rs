//! SoC populations of distributed small embedded SRAMs.

use crate::score::DiagnosisScore;
use bisd::{DiagnosisResult, MemoryUnderDiagnosis};
use esram_exec::{CostCalibration, CostDomain, ShardPlan};
use fault_models::{DefectProfile, FaultClass, FaultInjector};
use sram_model::{MemConfig, MemError, MemoryId};
use std::fmt;

/// Builder for a [`Soc`] population.
///
/// # Example
///
/// ```
/// use esram_diag::Soc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let soc = Soc::builder()
///     .memories(3, 512, 100)? // three benchmark-sized e-SRAMs
///     .memory(64, 16)?        // plus one small buffer
///     .defect_rate(0.01)
///     .with_data_retention_defects()
///     .seed(42)
///     .build()?;
/// assert_eq!(soc.memories().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SocBuilder {
    configs: Vec<MemConfig>,
    defect_rate: f64,
    include_drf: bool,
    classes: Option<Vec<FaultClass>>,
    seed: u64,
    spares: usize,
}

impl SocBuilder {
    fn new() -> Self {
        SocBuilder {
            configs: Vec::new(),
            defect_rate: 0.0,
            include_drf: false,
            classes: None,
            seed: 0xDA7E_2005,
            spares: 4,
        }
    }

    /// Adds one memory of the given geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry is invalid.
    pub fn memory(mut self, words: u64, width: usize) -> Result<Self, MemError> {
        self.configs.push(MemConfig::new(words, width)?);
        Ok(self)
    }

    /// Adds `count` memories of the same geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry is invalid.
    pub fn memories(mut self, count: usize, words: u64, width: usize) -> Result<Self, MemError> {
        let config = MemConfig::new(words, width)?;
        self.configs.extend(std::iter::repeat_n(config, count));
        Ok(self)
    }

    /// Sets the random defect rate applied to every memory (default 0).
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `0.0..=1.0`.
    pub fn defect_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "defect rate must be within 0..=1");
        self.defect_rate = rate;
        self
    }

    /// Includes data-retention faults in the defect mix (by default only
    /// the four baseline classes of \[8\] are injected).
    pub fn with_data_retention_defects(mut self) -> Self {
        self.include_drf = true;
        self
    }

    /// Restricts the defect mix to an explicit set of fault classes
    /// (equal likelihood), replacing the paper's four-class baseline
    /// profile. Address-decoder faults alias whole rows and coupling
    /// faults interact, so dense populations of those classes mask a
    /// few percent of sites; a cell-array-only mix (stuck-at,
    /// transition) is fully locatable at any density and seed.
    ///
    /// [`SocBuilder::with_data_retention_defects`] still appends DRFs
    /// on top of whatever mix is selected here.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn fault_classes(mut self, classes: &[FaultClass]) -> Self {
        assert!(!classes.is_empty(), "fault-class mix must not be empty");
        self.classes = Some(classes.to_vec());
        self
    }

    /// Sets the RNG seed used for defect injection (deterministic runs).
    ///
    /// Memory `i` draws its defects from stream `i` of this seed
    /// ([`FaultInjector::for_stream`]), so the population is a pure
    /// function of `(seed, index, geometry)` — independent of how many
    /// workers [`SocBuilder::build_with`] constructs it with.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of spare words per memory (default 4).
    pub fn spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }

    /// Builds the population, injecting defects if a defect rate was
    /// set, under the default [`ShardPlan`] (one worker per available
    /// core).
    ///
    /// # Errors
    ///
    /// Returns an error if no memory was added or injection fails.
    pub fn build(self) -> Result<Soc, MemError> {
        self.build_with(ShardPlan::default())
    }

    /// Builds the population under an explicit [`ShardPlan`].
    ///
    /// Defect injection runs on the deterministic executor, with each
    /// memory weighted by the calibrated build cost of its cell count
    /// so heterogeneous populations (a few big e-SRAMs among many small
    /// buffers) split evenly under the cost-balanced partition. Memory
    /// `i` always draws from RNG stream `i` of the builder seed
    /// ([`FaultInjector::for_stream`]), so the built population is
    /// bit-identical at every worker count — a 512-memory
    /// benchmark SoC no longer costs more to build than to diagnose,
    /// without giving up reproducibility.
    ///
    /// # Errors
    ///
    /// Returns an error if no memory was added or injection fails.
    pub fn build_with(self, plan: ShardPlan) -> Result<Soc, MemError> {
        if self.configs.is_empty() {
            return Err(MemError::InvalidConfig { words: 0, width: 0 });
        }
        let profile = self.defect_profile();
        let calibration = CostCalibration::current();
        let built: Vec<Result<MemoryUnderDiagnosis, MemError>> = plan.map_slots(
            &self.configs,
            |_, config| calibration.cost(CostDomain::SocBuild, config.cells()),
            || (),
            |_, index, &config| self.build_member(&profile, index, config),
        );
        let mut memories = Vec::with_capacity(built.len());
        for member in built {
            memories.push(member?);
        }
        Ok(Soc { memories })
    }

    /// The defect profile this builder injects from.
    pub(crate) fn defect_profile(&self) -> DefectProfile {
        match &self.classes {
            None => {
                if self.include_drf {
                    DefectProfile::with_data_retention(self.defect_rate)
                } else {
                    DefectProfile::date2005(self.defect_rate)
                }
            }
            Some(classes) => {
                let mut weights: Vec<(FaultClass, f64)> = classes.iter().map(|&class| (class, 1.0)).collect();
                if self.include_drf && !classes.contains(&FaultClass::DataRetention) {
                    weights.push((FaultClass::DataRetention, 1.0));
                }
                DefectProfile {
                    defect_rate: self.defect_rate,
                    class_weights: weights,
                }
            }
        }
    }

    /// Geometries the builder will construct, in member order.
    pub(crate) fn member_configs(&self) -> &[MemConfig] {
        &self.configs
    }

    /// Constructs member `index` of the population — a pure function of
    /// `(seed, index, config)`: defects come from RNG stream `index`
    /// of the builder seed, so a member is bit-identical whether the
    /// population is built sequentially, sharded, or interleaved with
    /// other populations' members inside a fleet batch.
    pub(crate) fn build_member(
        &self,
        profile: &DefectProfile,
        index: usize,
        config: MemConfig,
    ) -> Result<MemoryUnderDiagnosis, MemError> {
        let id = MemoryId::new(index as u32);
        let memory = if self.defect_rate > 0.0 {
            let mut injector = FaultInjector::for_stream(self.seed, index as u64);
            MemoryUnderDiagnosis::with_defects(id, config, &mut injector, profile)?
        } else {
            MemoryUnderDiagnosis::pristine(id, config)
        };
        Ok(memory.with_spares(self.spares))
    }
}

/// A population of distributed small embedded SRAMs sharing one BISD
/// controller.
#[derive(Debug, Clone)]
pub struct Soc {
    memories: Vec<MemoryUnderDiagnosis>,
}

impl Soc {
    /// Starts building a population.
    pub fn builder() -> SocBuilder {
        SocBuilder::new()
    }

    /// Assembles a population from already-built members (the fleet
    /// runner's demultiplexing path; members must be in builder order).
    pub(crate) fn from_memories(memories: Vec<MemoryUnderDiagnosis>) -> Soc {
        Soc { memories }
    }

    /// The paper's benchmark population: `count` e-SRAMs of 512 words ×
    /// 100 IO bits with the given defect rate (four baseline defect
    /// classes, equal likelihood) and RNG seed.
    ///
    /// # Errors
    ///
    /// Returns an error if `count` is zero or injection fails.
    pub fn date2005_benchmark(count: usize, defect_rate: f64, seed: u64) -> Result<Soc, MemError> {
        Soc::builder()
            .memories(count, 512, 100)?
            .defect_rate(defect_rate)
            .seed(seed)
            .build()
    }

    /// The memories of the population.
    pub fn memories(&self) -> &[MemoryUnderDiagnosis] {
        &self.memories
    }

    /// Mutable access to the memories (what the diagnosis schemes take).
    pub fn memories_mut(&mut self) -> &mut [MemoryUnderDiagnosis] {
        &mut self.memories
    }

    /// Geometries of the memories.
    pub fn configs(&self) -> Vec<MemConfig> {
        self.memories.iter().map(MemoryUnderDiagnosis::config).collect()
    }

    /// Total number of bit cells across the population.
    pub fn total_cells(&self) -> u64 {
        self.memories.iter().map(|m| m.config().cells()).sum()
    }

    /// Total number of injected ground-truth faults.
    pub fn injected_faults(&self) -> usize {
        self.memories.iter().map(|m| m.injected.len()).sum()
    }

    /// Scores a diagnosis result against the injected ground truth.
    pub fn score(&self, result: &DiagnosisResult) -> DiagnosisScore {
        DiagnosisScore::evaluate(&self.memories, result)
    }

    /// Repairs every memory from a diagnosis result and returns the
    /// number of addresses that could not be repaired (spares exhausted).
    pub fn repair_from(&mut self, result: &DiagnosisResult) -> usize {
        let located = result.located_sites();
        self.memories
            .iter_mut()
            .map(|m| m.repair_from(&located).unrepaired.len())
            .sum()
    }
}

impl fmt::Display for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SoC with {} e-SRAMs, {} cells, {} injected faults",
            self.memories.len(),
            self.total_cells(),
            self.injected_faults()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisd::{DiagnosisScheme, FastScheme};

    #[test]
    fn builder_creates_heterogeneous_population() {
        let soc = Soc::builder()
            .memory(64, 8)
            .unwrap()
            .memory(32, 6)
            .unwrap()
            .memories(2, 16, 4)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(soc.memories().len(), 4);
        assert_eq!(soc.total_cells(), 64 * 8 + 32 * 6 + 2 * 16 * 4);
        assert_eq!(soc.injected_faults(), 0);
        assert!(soc.to_string().contains("4 e-SRAMs"));
    }

    #[test]
    fn empty_builder_is_rejected() {
        assert!(Soc::builder().build().is_err());
    }

    #[test]
    fn defect_injection_is_deterministic_per_seed() {
        let a = Soc::builder()
            .memories(2, 64, 8)
            .unwrap()
            .defect_rate(0.02)
            .seed(3)
            .build()
            .unwrap();
        let b = Soc::builder()
            .memories(2, 64, 8)
            .unwrap()
            .defect_rate(0.02)
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(a.injected_faults(), b.injected_faults());
        assert!(a.injected_faults() > 0);
        let c = Soc::builder()
            .memories(2, 64, 8)
            .unwrap()
            .defect_rate(0.02)
            .seed(4)
            .build()
            .unwrap();
        assert!(c.injected_faults() > 0);
    }

    #[test]
    fn benchmark_population_matches_paper_geometry() {
        let soc = Soc::date2005_benchmark(3, 0.0, 1).unwrap();
        assert_eq!(soc.memories().len(), 3);
        assert!(soc.configs().iter().all(|c| c.words() == 512 && c.width() == 100));
        assert_eq!(soc.total_cells(), 3 * 51_200);
    }

    #[test]
    fn diagnose_score_and_repair_round_trip() {
        let mut soc = Soc::builder()
            .memories(2, 32, 6)
            .unwrap()
            .defect_rate(0.01)
            .seed(11)
            .spares(8)
            .build()
            .unwrap();
        let injected = soc.injected_faults();
        assert!(injected > 0);
        let result = FastScheme::new(10.0).diagnose(soc.memories_mut()).unwrap();
        let score = soc.score(&result);
        assert_eq!(score.injected(), injected);
        assert!(score.location_coverage() > 0.0);
        let unrepaired = soc.repair_from(&result);
        assert_eq!(unrepaired, 0, "8 spares must be enough for this defect rate");
    }

    #[test]
    fn drf_defects_can_be_included_in_the_mix() {
        let soc = Soc::builder()
            .memories(1, 128, 16)
            .unwrap()
            .defect_rate(0.05)
            .with_data_retention_defects()
            .seed(5)
            .build()
            .unwrap();
        let has_drf = soc.memories()[0]
            .injected
            .iter()
            .any(|f| f.class() == fault_models::FaultClass::DataRetention);
        assert!(has_drf, "with_data_retention_defects must add DRFs to the mix");
    }

    #[test]
    fn fault_classes_pins_the_defect_mix() {
        let soc = Soc::builder()
            .memories(1, 128, 16)
            .unwrap()
            .defect_rate(0.05)
            .fault_classes(&[FaultClass::StuckAt, FaultClass::Transition])
            .seed(5)
            .build()
            .unwrap();
        for fault in soc.memories()[0].injected.iter() {
            assert!(
                matches!(fault.class(), FaultClass::StuckAt | FaultClass::Transition),
                "unexpected class in pinned mix: {}",
                fault.class()
            );
        }
    }

    #[test]
    fn cell_array_mixes_are_fully_locatable_at_case_study_density() {
        // The basis of the case-study spec's `all_faults_located`
        // guarantee: stuck-at and transition faults sit on distinct
        // cells (injection draws without replacement) and do not
        // interact, so the fast scheme locates every one even at the
        // paper's 1 % density — unlike decoder/coupling populations,
        // whose aliasing masks a few percent of sites.
        let mut soc = Soc::builder()
            .memories(1, 512, 100)
            .unwrap()
            .defect_rate(0.01)
            .fault_classes(&[FaultClass::StuckAt, FaultClass::Transition])
            .seed(42)
            .build()
            .unwrap();
        let result = FastScheme::new(10.0)
            .with_drf_mode(bisd::DrfMode::None)
            .diagnose(soc.memories_mut())
            .unwrap();
        let score = soc.score(&result);
        assert_eq!(score.located(), score.injected());
        assert_eq!(score.additional_sites, 0);
    }
}
