//! Scoring of a diagnosis result against the injected ground truth.

use bisd::{DiagnosisResult, MemoryUnderDiagnosis};
use fault_models::FaultClass;
use std::collections::BTreeMap;
use std::fmt;

/// How well a diagnosis run located the faults that were actually
/// injected into the population.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosisScore {
    /// Number of injected faults per class.
    pub injected_by_class: BTreeMap<FaultClass, usize>,
    /// Number of injected faults whose site was located, per class.
    pub located_by_class: BTreeMap<FaultClass, usize>,
    /// Distinct located sites of the population's memories, minus the
    /// number of injected faults located, floored at 0. These are
    /// mostly victim cells corrupted by coupling aggressors: not errors,
    /// but they consume repair resources. A located decoder fault
    /// counts as one site even though it fails a whole word, so its
    /// other failing bits stay in this count; two injected faults at one
    /// site subtract twice; sites of memories outside the population
    /// never count.
    pub additional_sites: usize,
}

impl DiagnosisScore {
    /// Computes the score of `result` against the ground truth carried
    /// by `memories`.
    pub fn evaluate(memories: &[MemoryUnderDiagnosis], result: &DiagnosisResult) -> Self {
        let located = result.located_sites();
        let mut score = DiagnosisScore::default();
        let mut matched_sites = 0usize;
        let mut total_sites = 0usize;

        for memory in memories {
            total_sites += located.of(memory.id).len();
            for fault in memory.injected.iter() {
                *score.injected_by_class.entry(fault.class()).or_insert(0) += 1;
                if located.locates(memory.id, fault) {
                    *score.located_by_class.entry(fault.class()).or_insert(0) += 1;
                    matched_sites += 1;
                }
            }
        }
        score.additional_sites = total_sites.saturating_sub(matched_sites);
        score
    }

    /// Total number of injected faults.
    pub fn injected(&self) -> usize {
        self.injected_by_class.values().sum()
    }

    /// Total number of injected faults that were located.
    pub fn located(&self) -> usize {
        self.located_by_class.values().sum()
    }

    /// Fraction of injected faults that were located (1.0 when nothing
    /// was injected).
    pub fn location_coverage(&self) -> f64 {
        if self.injected() == 0 {
            1.0
        } else {
            self.located() as f64 / self.injected() as f64
        }
    }

    /// Location coverage restricted to one fault class (1.0 when no
    /// fault of that class was injected).
    pub fn class_coverage(&self, class: FaultClass) -> f64 {
        let injected = self.injected_by_class.get(&class).copied().unwrap_or(0);
        if injected == 0 {
            1.0
        } else {
            self.located_by_class.get(&class).copied().unwrap_or(0) as f64 / injected as f64
        }
    }
}

impl fmt::Display for DiagnosisScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} injected faults located ({:.1}%), {} additional sites",
            self.located(),
            self.injected(),
            self.location_coverage() * 100.0,
            self.additional_sites
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisd::{DiagnosisLog, DiagnosisScheme, FastScheme, FaultSite, LocatedSites};
    use fault_models::{FaultList, MemoryFault};
    use sram_model::cell::CellCoord;
    use sram_model::{Address, DecoderFault, DecoderFaultKind, MemConfig, MemoryId};

    fn memory_with(faults: Vec<MemoryFault>) -> MemoryUnderDiagnosis {
        let config = MemConfig::new(16, 4).unwrap();
        MemoryUnderDiagnosis::with_faults(
            MemoryId::new(0),
            config,
            faults.into_iter().collect::<FaultList>(),
        )
        .unwrap()
    }

    #[test]
    fn perfect_diagnosis_scores_full_coverage() {
        let mut memories = vec![memory_with(vec![
            MemoryFault::stuck_at_1(CellCoord::new(Address::new(2), 1)),
            MemoryFault::transition_down(CellCoord::new(Address::new(9), 3)),
        ])];
        let result = FastScheme::new(10.0).diagnose(&mut memories).unwrap();
        let score = DiagnosisScore::evaluate(&memories, &result);
        assert_eq!(score.injected(), 2);
        assert_eq!(score.located(), 2);
        assert_eq!(score.location_coverage(), 1.0);
        assert_eq!(score.class_coverage(FaultClass::StuckAt), 1.0);
        assert_eq!(score.class_coverage(FaultClass::DataRetention), 1.0); // none injected
        assert!(score.to_string().contains("2/2"));
    }

    #[test]
    fn missed_drf_shows_up_as_reduced_coverage() {
        let drf = MemoryFault::data_retention_a(CellCoord::new(Address::new(5), 0));
        let mut memories = vec![memory_with(vec![drf])];
        let result = FastScheme::new(10.0)
            .with_drf_mode(bisd::DrfMode::None)
            .diagnose(&mut memories)
            .unwrap();
        let score = DiagnosisScore::evaluate(&memories, &result);
        assert_eq!(score.injected(), 1);
        assert_eq!(score.located(), 0);
        assert_eq!(score.location_coverage(), 0.0);
        assert_eq!(score.class_coverage(FaultClass::DataRetention), 0.0);
    }

    #[test]
    fn empty_population_scores_full_coverage() {
        let mut memories = vec![MemoryUnderDiagnosis::pristine(
            MemoryId::new(0),
            MemConfig::new(8, 2).unwrap(),
        )];
        let result = FastScheme::new(10.0).diagnose(&mut memories).unwrap();
        let score = DiagnosisScore::evaluate(&memories, &result);
        assert_eq!(score.injected(), 0);
        assert_eq!(score.location_coverage(), 1.0);
        assert_eq!(score.additional_sites, 0);
    }

    #[test]
    fn decoder_hit_counts_as_one_site_of_its_failing_word() {
        // A decoder fault that fails all four bits of its word: the hit
        // subtracts one site, so the word's other three stay additional.
        let fault = MemoryFault::decoder(DecoderFault::new(Address::new(6), DecoderFaultKind::NoAccess));
        let memory = MemoryUnderDiagnosis {
            injected: std::iter::once(fault).collect(),
            ..MemoryUnderDiagnosis::pristine(MemoryId::new(0), MemConfig::new(16, 4).unwrap())
        };
        let sites: LocatedSites = (0..4)
            .map(|bit| FaultSite::new(MemoryId::new(0), Address::new(6), bit))
            .collect();
        let result = DiagnosisResult {
            log: DiagnosisLog::new(sites, 1),
            cycles: 0,
            pause_ms: 0.0,
            iterations: 1,
            clock_period_ns: 10.0,
        };
        let score = DiagnosisScore::evaluate(&[memory], &result);
        assert_eq!(score.located(), 1);
        assert_eq!(score.class_coverage(FaultClass::AddressDecoder), 1.0);
        assert_eq!(score.additional_sites, 3);
    }
}
