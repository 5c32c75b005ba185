//! Exhaustive fault universes for coverage analysis.
//!
//! Coverage of a diagnosis scheme is measured against a *target fault
//! universe*: the set of fault instances the scheme is supposed to
//! detect and locate. For small memories this universe can be
//! enumerated exhaustively; the March engine then simulates the scheme
//! against every instance in turn and reports the detected fraction per
//! class (reproducing the qualitative coverage comparison of Sec. 4.1).

use crate::fault::{FaultClass, MemoryFault};
use crate::list::FaultList;
use sram_model::cell::CellCoord;
use sram_model::{Address, CellFault, CellNode, CouplingKind, DecoderFault, DecoderFaultKind, MemConfig};

/// Generator of exhaustive single-fault universes for a memory geometry.
///
/// Coupling faults are enumerated against a bounded set of aggressor
/// neighbours (the adjacent cell in the same word and the same bit in
/// the adjacent word) to keep the universe size linear in the number of
/// cells, which matches how coupling coverage is normally assessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultUniverse {
    config: MemConfig,
}

impl FaultUniverse {
    /// Creates a universe generator for the given geometry.
    pub fn new(config: MemConfig) -> Self {
        FaultUniverse { config }
    }

    /// Geometry the universe is generated for.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Every stuck-at fault (SA0 and SA1 for every cell).
    pub fn stuck_at(&self) -> FaultList {
        let mut list = FaultList::new();
        for coord in self.cells() {
            list.push(MemoryFault::cell(coord, CellFault::StuckAt(false)));
            list.push(MemoryFault::cell(coord, CellFault::StuckAt(true)));
        }
        list
    }

    /// Every transition fault (TF↑ and TF↓ for every cell).
    pub fn transition(&self) -> FaultList {
        let mut list = FaultList::new();
        for coord in self.cells() {
            list.push(MemoryFault::cell(coord, CellFault::TransitionUp));
            list.push(MemoryFault::cell(coord, CellFault::TransitionDown));
        }
        list
    }

    /// Every data-retention fault (open pull-up on node A and node B for
    /// every cell).
    pub fn data_retention(&self) -> FaultList {
        let mut list = FaultList::new();
        for coord in self.cells() {
            list.push(MemoryFault::cell(
                coord,
                CellFault::DataRetention { node: CellNode::A },
            ));
            list.push(MemoryFault::cell(
                coord,
                CellFault::DataRetention { node: CellNode::B },
            ));
        }
        list
    }

    /// Read-disturb faults (RDF, DRDF, IRF for every cell).
    pub fn read_disturb(&self) -> FaultList {
        let mut list = FaultList::new();
        for coord in self.cells() {
            list.push(MemoryFault::cell(coord, CellFault::ReadDestructive));
            list.push(MemoryFault::cell(coord, CellFault::DeceptiveReadDestructive));
            list.push(MemoryFault::cell(coord, CellFault::IncorrectRead));
        }
        list
    }

    /// Stuck-open faults (one per cell).
    pub fn stuck_open(&self) -> FaultList {
        self.cells()
            .map(|c| MemoryFault::cell(c, CellFault::StuckOpen))
            .collect()
    }

    /// Coupling faults against neighbouring aggressors.
    ///
    /// For every victim cell two aggressors are considered (next bit in
    /// the same word and same bit in the next word, when they exist);
    /// for each aggressor the 2 CFid, 2 CFin and 4 CFst sensitisations
    /// are enumerated.
    pub fn coupling(&self) -> FaultList {
        let mut list = FaultList::new();
        for victim in self.cells() {
            for aggressor in self.neighbours(victim) {
                for rises in [false, true] {
                    for forced in [false, true] {
                        list.push(MemoryFault::cell(
                            victim,
                            CellFault::Coupling {
                                aggressor,
                                kind: CouplingKind::Idempotent {
                                    aggressor_rises: rises,
                                    forced_value: forced,
                                },
                            },
                        ));
                    }
                    list.push(MemoryFault::cell(
                        victim,
                        CellFault::Coupling {
                            aggressor,
                            kind: CouplingKind::Inversion {
                                aggressor_rises: rises,
                            },
                        },
                    ));
                }
                for aggressor_value in [false, true] {
                    for forced in [false, true] {
                        list.push(MemoryFault::cell(
                            victim,
                            CellFault::Coupling {
                                aggressor,
                                kind: CouplingKind::State {
                                    aggressor_value,
                                    forced_value: forced,
                                },
                            },
                        ));
                    }
                }
            }
        }
        list
    }

    /// Address-decoder faults: for every address, a no-access fault plus
    /// a wrong-access and a multi-access fault against the next address.
    pub fn address_decoder(&self) -> FaultList {
        let mut list = FaultList::new();
        let words = self.config.words();
        for address in self.config.addresses() {
            list.push(MemoryFault::decoder(DecoderFault::new(
                address,
                DecoderFaultKind::NoAccess,
            )));
            if words > 1 {
                let other = address.wrapping_next(words);
                list.push(MemoryFault::decoder(DecoderFault::new(
                    address,
                    DecoderFaultKind::MapsTo(other),
                )));
                list.push(MemoryFault::decoder(DecoderFault::new(
                    address,
                    DecoderFaultKind::AlsoAccesses(other),
                )));
            }
        }
        list
    }

    /// Universe of one class.
    pub fn of_class(&self, class: FaultClass) -> FaultList {
        match class {
            FaultClass::StuckAt => self.stuck_at(),
            FaultClass::Transition => self.transition(),
            FaultClass::Coupling => self.coupling(),
            FaultClass::AddressDecoder => self.address_decoder(),
            FaultClass::DataRetention => self.data_retention(),
            FaultClass::ReadDisturb => self.read_disturb(),
            FaultClass::StuckOpen => self.stuck_open(),
        }
    }

    /// The baseline universe of \[8\] (stuck-at, transition, coupling and
    /// address-decoder faults).
    pub fn date2005_baseline(&self) -> FaultList {
        let mut list = FaultList::new();
        for class in FaultClass::date2005_baseline_classes() {
            list.extend(self.of_class(class));
        }
        list
    }

    /// The full universe considered by the proposed scheme (baseline
    /// classes plus data-retention faults).
    pub fn date2005_full(&self) -> FaultList {
        let mut list = self.date2005_baseline();
        list.extend(self.data_retention());
        list
    }

    fn cells(&self) -> impl Iterator<Item = CellCoord> {
        let width = self.config.width();
        self.config
            .addresses()
            .flat_map(move |address| (0..width).map(move |bit| CellCoord::new(address, bit)))
    }

    fn neighbours(&self, victim: CellCoord) -> Vec<CellCoord> {
        let mut out = Vec::with_capacity(2);
        if victim.bit + 1 < self.config.width() {
            out.push(CellCoord::new(victim.address, victim.bit + 1));
        }
        if victim.address.index() + 1 < self.config.words() {
            out.push(CellCoord::new(
                Address::new(victim.address.index() + 1),
                victim.bit,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> FaultUniverse {
        FaultUniverse::new(MemConfig::new(4, 3).unwrap())
    }

    #[test]
    fn stuck_at_universe_has_two_faults_per_cell() {
        let list = universe().stuck_at();
        assert_eq!(list.len(), 4 * 3 * 2);
        assert!(list.iter().all(|f| f.class() == FaultClass::StuckAt));
    }

    #[test]
    fn transition_and_retention_universes_have_two_faults_per_cell() {
        assert_eq!(universe().transition().len(), 24);
        assert_eq!(universe().data_retention().len(), 24);
    }

    #[test]
    fn read_disturb_universe_has_three_faults_per_cell() {
        assert_eq!(universe().read_disturb().len(), 36);
        assert_eq!(universe().stuck_open().len(), 12);
    }

    #[test]
    fn coupling_universe_uses_bounded_neighbourhoods() {
        let list = universe().coupling();
        // Each victim has at most 2 aggressors, each contributing
        // 4 CFid + 2 CFin + 4 CFst = 10 instances.
        assert!(list.len() <= 4 * 3 * 2 * 10);
        assert!(!list.is_empty());
        assert!(list.iter().all(|f| f.class() == FaultClass::Coupling));
        // Corner cell (last word, last bit) has no neighbours to the
        // right or below, so the total is strictly below the bound.
        assert!(list.len() < 240);
    }

    #[test]
    fn address_decoder_universe_has_three_faults_per_address() {
        let list = universe().address_decoder();
        assert_eq!(list.len(), 4 * 3);
        assert!(list.iter().all(|f| f.class() == FaultClass::AddressDecoder));
    }

    #[test]
    fn single_word_memory_has_only_no_access_decoder_faults() {
        let u = FaultUniverse::new(MemConfig::new(1, 2).unwrap());
        assert_eq!(u.address_decoder().len(), 1);
    }

    #[test]
    fn baseline_universe_excludes_drf_and_full_universe_includes_it() {
        let u = universe();
        let baseline = u.date2005_baseline();
        let full = u.date2005_full();
        assert!(baseline.iter().all(|f| f.class() != FaultClass::DataRetention));
        assert_eq!(full.len(), baseline.len() + u.data_retention().len());
    }

    #[test]
    fn of_class_dispatches_to_every_class() {
        let u = universe();
        for class in FaultClass::all() {
            let list = u.of_class(class);
            assert!(!list.is_empty(), "class {class} generated an empty universe");
            assert!(list.iter().all(|f| f.class() == class));
        }
    }

    #[test]
    fn every_universe_fault_injects_cleanly() {
        let u = universe();
        for fault in u.date2005_full().iter() {
            let mut sram = sram_model::Sram::new(u.config());
            fault.inject_into(&mut sram).unwrap();
        }
    }
}
