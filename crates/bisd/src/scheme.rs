//! The diagnosis-scheme abstraction and the memory population it
//! operates on.

use crate::log::LocatedSites;
use crate::result::DiagnosisResult;
use fault_models::{DefectProfile, FaultInjector, FaultList};
use sram_model::{BackupMemory, MemConfig, MemError, MemoryId, RepairOutcome, Sram};
use std::fmt;

/// One e-SRAM instance under diagnosis, together with its identity, its
/// optional ground-truth fault list and its backup (spare) memory.
#[derive(Debug, Clone)]
pub struct MemoryUnderDiagnosis {
    /// Identity of the memory within the SoC population.
    pub id: MemoryId,
    /// The behavioural memory itself.
    pub sram: Sram,
    /// Ground truth: the faults injected into this memory (empty when
    /// the memory was constructed pristine). Used only for scoring
    /// diagnosis accuracy, never by the schemes themselves.
    pub injected: FaultList,
    /// Word-level spare storage used for post-diagnosis repair.
    pub backup: BackupMemory,
}

impl MemoryUnderDiagnosis {
    /// Creates a fault-free memory with the default number of spare
    /// words (4).
    pub fn pristine(id: MemoryId, config: MemConfig) -> Self {
        MemoryUnderDiagnosis {
            id,
            sram: Sram::new(config),
            injected: FaultList::new(),
            backup: BackupMemory::new(config, 4),
        }
    }

    /// Creates a memory with a random defect population drawn from
    /// `profile` using `injector`.
    ///
    /// # Errors
    ///
    /// Propagates injection errors from the memory model.
    pub fn with_defects(
        id: MemoryId,
        config: MemConfig,
        injector: &mut FaultInjector,
        profile: &DefectProfile,
    ) -> Result<Self, MemError> {
        let mut sram = Sram::new(config);
        let injected = injector.inject(&mut sram, profile)?;
        Ok(MemoryUnderDiagnosis {
            id,
            sram,
            injected,
            backup: BackupMemory::new(config, 4),
        })
    }

    /// Creates a memory with an explicit fault list.
    ///
    /// # Errors
    ///
    /// Propagates injection errors from the memory model.
    pub fn with_faults(id: MemoryId, config: MemConfig, faults: FaultList) -> Result<Self, MemError> {
        let mut sram = Sram::new(config);
        faults.inject_into(&mut sram)?;
        Ok(MemoryUnderDiagnosis {
            id,
            sram,
            injected: faults,
            backup: BackupMemory::new(config, 4),
        })
    }

    /// Replaces the backup memory with one holding `spare_words` spares.
    pub fn with_spares(mut self, spare_words: usize) -> Self {
        self.backup = BackupMemory::new(self.sram.config(), spare_words);
        self
    }

    /// Geometry of the memory.
    pub fn config(&self) -> MemConfig {
        self.sram.config()
    }

    /// Repairs every failing address a diagnosis located in this memory
    /// (see [`DiagnosisResult::located_sites`]), consuming spare words.
    pub fn repair_from(&mut self, located: &LocatedSites) -> RepairOutcome {
        self.backup.repair_all(located.failing_addresses(self.id))
    }
}

impl fmt::Display for MemoryUnderDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} injected faults)",
            self.id,
            self.config(),
            self.injected.len()
        )
    }
}

/// A complete diagnosis architecture: given a population of memories it
/// runs its programme and returns the located faults plus exact cycle
/// and pause-time accounting.
pub trait DiagnosisScheme {
    /// Human-readable name of the scheme (used in reports and benches).
    fn name(&self) -> &str;

    /// Diagnoses the whole population in parallel.
    ///
    /// # Errors
    ///
    /// Returns an error if the population is empty or a memory-model
    /// validation error occurs (which indicates a bug in the scheme).
    fn diagnose(&self, memories: &mut [MemoryUnderDiagnosis]) -> Result<DiagnosisResult, MemError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_models::MemoryFault;
    use sram_model::cell::CellCoord;
    use sram_model::Address;

    #[test]
    fn pristine_memory_has_no_injected_faults_and_default_spares() {
        let m = MemoryUnderDiagnosis::pristine(MemoryId::new(0), MemConfig::new(16, 4).unwrap());
        assert!(m.injected.is_empty());
        assert_eq!(m.backup.capacity(), 4);
        assert_eq!(m.config().words(), 16);
        assert!(m.to_string().contains("mem0"));
    }

    #[test]
    fn with_faults_injects_the_ground_truth() {
        let config = MemConfig::new(16, 4).unwrap();
        let faults: FaultList = vec![MemoryFault::stuck_at_1(CellCoord::new(Address::new(3), 1))]
            .into_iter()
            .collect();
        let m = MemoryUnderDiagnosis::with_faults(MemoryId::new(2), config, faults).unwrap();
        assert_eq!(m.injected.len(), 1);
        assert!(m.sram.is_faulty());
    }

    #[test]
    fn with_defects_uses_the_injector() {
        let config = MemConfig::new(64, 8).unwrap();
        let mut injector = FaultInjector::with_seed(1);
        let m = MemoryUnderDiagnosis::with_defects(
            MemoryId::new(1),
            config,
            &mut injector,
            &DefectProfile::date2005(0.02),
        )
        .unwrap();
        assert!(!m.injected.is_empty());
    }

    #[test]
    fn with_spares_resizes_the_backup() {
        let m =
            MemoryUnderDiagnosis::pristine(MemoryId::new(0), MemConfig::new(16, 4).unwrap()).with_spares(9);
        assert_eq!(m.backup.capacity(), 9);
    }
}
