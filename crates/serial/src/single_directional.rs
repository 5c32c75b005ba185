//! The single-directional serial interface of \[9,10\] and its serial
//! fault-masking problem.
//!
//! In the original serial-interfacing technique, test data enters the
//! word at one end and every bit's response is observed only after
//! travelling through the downstream cells of the chain. A defective
//! cell therefore corrupts everything that passes through it: faults
//! located *downstream* of the first defective cell cannot be attributed
//! reliably — they are **masked**. The bi-directional interface of
//! \[7,8\] (and, in the proposed scheme, the PSC whose shift path avoids
//! the cells entirely) removes this limitation. This module models the
//! masking behaviour so the benches can quantify what the later
//! interfaces fix.

use march::MarchRunner;
use march::{DataBackground, MarchTest};
use sram_model::cell::CellCoord;
use sram_model::{Address, MemError, Sram};

/// Outcome of diagnosing one memory through the single-directional
/// serial interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskingOutcome {
    /// Faulty cells that could be attributed reliably (everything at or
    /// before the first faulty chain position).
    pub identified: Vec<(Address, usize)>,
    /// Faulty cells whose observation was masked by an upstream fault.
    pub masked: Vec<(Address, usize)>,
}

impl MaskingOutcome {
    /// True if at least one faulty cell escaped identification.
    pub fn has_masking(&self) -> bool {
        !self.masked.is_empty()
    }

    /// Fraction of faulty cells identified (1.0 when nothing failed).
    pub fn identification_ratio(&self) -> f64 {
        let total = self.identified.len() + self.masked.len();
        if total == 0 {
            1.0
        } else {
            self.identified.len() as f64 / total as f64
        }
    }
}

/// Behavioural model of the single-directional serial interface \[9,10\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleDirectionalSerialInterface {
    width: usize,
}

impl SingleDirectionalSerialInterface {
    /// Creates an interface for a memory with `width` IO bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "interface width must be non-zero");
        SingleDirectionalSerialInterface { width }
    }

    /// IO width of the memory behind the interface.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Runs a March test through the interface and classifies each
    /// faulty cell as identified or masked.
    ///
    /// The chain order is bit 0 of the word first; within one word the
    /// first failing bit is attributable, and every failing cell whose
    /// chain position lies strictly after the *globally first* failing
    /// position of the run is considered masked (its response travelled
    /// through a cell already known to be defective).
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_march(
        &self,
        sram: &mut Sram,
        test: &MarchTest,
        background: DataBackground,
    ) -> Result<MaskingOutcome, MemError> {
        let outcome = MarchRunner::new().run_test(sram, test, background)?;
        let width = self.width as u64;
        let chain_position = |site: &CellCoord| site.address.index() * width + site.bit as u64;
        let mut failing = outcome.sites();
        failing.sort_by_key(chain_position);
        let first = failing.first().map(chain_position);
        let (identified, masked): (Vec<CellCoord>, Vec<CellCoord>) = failing
            .into_iter()
            .partition(|site| Some(chain_position(site)) <= first);
        let cells = |sites: Vec<CellCoord>| sites.into_iter().map(|site| (site.address, site.bit)).collect();
        Ok(MaskingOutcome {
            identified: cells(identified),
            masked: cells(masked),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_models::MemoryFault;
    use march::algorithms;
    use sram_model::cell::CellCoord;
    use sram_model::MemConfig;

    fn memory_with_faults(faults: &[MemoryFault]) -> Sram {
        let mut sram = Sram::new(MemConfig::new(8, 4).unwrap());
        for fault in faults {
            fault.inject_into(&mut sram).unwrap();
        }
        sram
    }

    #[test]
    fn fault_free_memory_has_nothing_to_identify_or_mask() {
        let mut sram = memory_with_faults(&[]);
        let interface = SingleDirectionalSerialInterface::new(4);
        let outcome = interface
            .run_march(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(outcome.identified.is_empty());
        assert!(!outcome.has_masking());
        assert_eq!(outcome.identification_ratio(), 1.0);
    }

    #[test]
    fn single_fault_is_identified() {
        let site = CellCoord::new(Address::new(3), 1);
        let mut sram = memory_with_faults(&[MemoryFault::stuck_at_1(site)]);
        let interface = SingleDirectionalSerialInterface::new(4);
        let outcome = interface
            .run_march(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert_eq!(outcome.identified, vec![(Address::new(3), 1)]);
        assert!(!outcome.has_masking());
    }

    #[test]
    fn downstream_fault_is_masked_by_an_upstream_fault() {
        // The fault early in the chain (address 1) masks the one at
        // address 6 — the problem the bi-directional interface solves.
        let upstream = CellCoord::new(Address::new(1), 0);
        let downstream = CellCoord::new(Address::new(6), 2);
        let mut sram = memory_with_faults(&[
            MemoryFault::stuck_at_1(upstream),
            MemoryFault::stuck_at_1(downstream),
        ]);
        let interface = SingleDirectionalSerialInterface::new(4);
        let outcome = interface
            .run_march(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert_eq!(outcome.identified, vec![(Address::new(1), 0)]);
        assert_eq!(outcome.masked, vec![(Address::new(6), 2)]);
        assert!(outcome.has_masking());
        assert_eq!(outcome.identification_ratio(), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_panics() {
        let _ = SingleDirectionalSerialInterface::new(0);
    }
}
