//! Fault classes and the unified memory-fault type.

use sram_model::cell::CellCoord;
use sram_model::{CellFault, CellNode, CouplingKind, DecoderFault, FaultTarget, MemError};
use std::fmt;

/// High-level fault classes used in the paper's evaluation.
///
/// The baseline architecture of \[7,8\] considers four defect classes
/// (stuck-at, transition, coupling and address-decoder faults); the
/// DATE 2005 paper adds data-retention faults on top. The remaining
/// classes (read-disturb variants, stuck-open) are included because
/// March C- style algorithms partially cover them and they are useful
/// for extended coverage studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum FaultClass {
    /// Stuck-at faults (SA0 / SA1).
    StuckAt,
    /// Transition faults (TF↑ / TF↓).
    Transition,
    /// Coupling faults (CFid / CFin / CFst).
    Coupling,
    /// Address-decoder faults (no access / wrong access / multi access).
    AddressDecoder,
    /// Data-retention faults (open pull-up PMOS).
    DataRetention,
    /// Read-disturb faults (RDF / DRDF / IRF).
    ReadDisturb,
    /// Stuck-open faults.
    StuckOpen,
}

impl FaultClass {
    /// The four defect classes of the baseline evaluation in \[8\], used
    /// by the paper's case study with equal likelihood.
    pub fn date2005_baseline_classes() -> [FaultClass; 4] {
        [
            FaultClass::StuckAt,
            FaultClass::Transition,
            FaultClass::Coupling,
            FaultClass::AddressDecoder,
        ]
    }

    /// Every fault class modelled by this crate.
    pub fn all() -> [FaultClass; 7] {
        [
            FaultClass::StuckAt,
            FaultClass::Transition,
            FaultClass::Coupling,
            FaultClass::AddressDecoder,
            FaultClass::DataRetention,
            FaultClass::ReadDisturb,
            FaultClass::StuckOpen,
        ]
    }

    /// Stable lowercase identifier used by scenario specs and reports
    /// (`"stuck-at"`, `"transition"`, ...). Round-trips through
    /// [`FaultClass::parse`].
    pub fn slug(self) -> &'static str {
        match self {
            FaultClass::StuckAt => "stuck-at",
            FaultClass::Transition => "transition",
            FaultClass::Coupling => "coupling",
            FaultClass::AddressDecoder => "address-decoder",
            FaultClass::DataRetention => "data-retention",
            FaultClass::ReadDisturb => "read-disturb",
            FaultClass::StuckOpen => "stuck-open",
        }
    }

    /// Parses a fault-class name: the [`FaultClass::slug`] spelling or
    /// the short report abbreviation ([`FaultClass::name`]), case
    /// insensitively. Returns `None` for anything else.
    pub fn parse(raw: &str) -> Option<FaultClass> {
        let lowered = raw.to_ascii_lowercase();
        FaultClass::all()
            .into_iter()
            .find(|class| class.slug() == lowered || class.name().to_ascii_lowercase() == lowered)
    }

    /// Short name used in reports and benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::StuckAt => "SAF",
            FaultClass::Transition => "TF",
            FaultClass::Coupling => "CF",
            FaultClass::AddressDecoder => "AF",
            FaultClass::DataRetention => "DRF",
            FaultClass::ReadDisturb => "RDF",
            FaultClass::StuckOpen => "SOF",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A concrete fault instance: either a behavioural fault bound to a bit
/// cell, or an address-decoder fault bound to an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryFault {
    /// Fault attached to one bit cell.
    Cell {
        /// Coordinates of the affected cell.
        coord: CellCoord,
        /// Behavioural fault model.
        fault: CellFault,
    },
    /// Address-decoder fault.
    Decoder(DecoderFault),
}

impl MemoryFault {
    /// Creates a cell-level fault instance.
    pub fn cell(coord: CellCoord, fault: CellFault) -> Self {
        MemoryFault::Cell { coord, fault }
    }

    /// Creates a decoder-level fault instance.
    pub fn decoder(fault: DecoderFault) -> Self {
        MemoryFault::Decoder(fault)
    }

    /// The high-level class this fault belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            MemoryFault::Cell { fault, .. } => match fault {
                CellFault::StuckAt(_) => FaultClass::StuckAt,
                CellFault::TransitionUp | CellFault::TransitionDown => FaultClass::Transition,
                CellFault::Coupling { .. } => FaultClass::Coupling,
                CellFault::DataRetention { .. } => FaultClass::DataRetention,
                CellFault::ReadDestructive
                | CellFault::DeceptiveReadDestructive
                | CellFault::IncorrectRead => FaultClass::ReadDisturb,
                CellFault::StuckOpen => FaultClass::StuckOpen,
                _ => FaultClass::StuckAt,
            },
            MemoryFault::Decoder(_) => FaultClass::AddressDecoder,
        }
    }

    /// The primary cell coordinate affected by this fault, if it is a
    /// cell-level fault.
    pub fn coord(&self) -> Option<CellCoord> {
        match self {
            MemoryFault::Cell { coord, .. } => Some(*coord),
            MemoryFault::Decoder(_) => None,
        }
    }

    /// True for data-retention faults: these are only observable after a
    /// retention pause or under NWRTM, which is the crux of the paper.
    pub fn requires_retention_or_nwrtm(&self) -> bool {
        self.class() == FaultClass::DataRetention
    }

    /// Injects this fault into a memory (any [`FaultTarget`], i.e. the
    /// packed [`Sram`](sram_model::Sram) or the dense reference model).
    ///
    /// # Errors
    ///
    /// Propagates address/width validation errors from the memory model.
    pub fn inject_into<T: FaultTarget>(&self, target: &mut T) -> Result<(), MemError> {
        match self {
            MemoryFault::Cell { coord, fault } => target.inject_cell_fault(*coord, *fault),
            MemoryFault::Decoder(fault) => target.inject_decoder_fault(*fault),
        }
    }

    /// A short human-readable description used in diagnosis logs.
    pub fn describe(&self) -> String {
        match self {
            MemoryFault::Cell { coord, fault } => format!("{} at {}", fault.mnemonic(), coord),
            MemoryFault::Decoder(fault) => fault.to_string(),
        }
    }
}

impl fmt::Display for MemoryFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// Convenience constructors for the common single-cell faults.
impl MemoryFault {
    /// Stuck-at-0 fault at `coord`.
    pub fn stuck_at_0(coord: CellCoord) -> Self {
        MemoryFault::cell(coord, CellFault::StuckAt(false))
    }

    /// Stuck-at-1 fault at `coord`.
    pub fn stuck_at_1(coord: CellCoord) -> Self {
        MemoryFault::cell(coord, CellFault::StuckAt(true))
    }

    /// Up-transition fault at `coord`.
    pub fn transition_up(coord: CellCoord) -> Self {
        MemoryFault::cell(coord, CellFault::TransitionUp)
    }

    /// Down-transition fault at `coord`.
    pub fn transition_down(coord: CellCoord) -> Self {
        MemoryFault::cell(coord, CellFault::TransitionDown)
    }

    /// Data-retention fault (open pull-up on node A) at `coord`.
    pub fn data_retention_a(coord: CellCoord) -> Self {
        MemoryFault::cell(coord, CellFault::DataRetention { node: CellNode::A })
    }

    /// Data-retention fault (open pull-up on node B) at `coord`.
    pub fn data_retention_b(coord: CellCoord) -> Self {
        MemoryFault::cell(coord, CellFault::DataRetention { node: CellNode::B })
    }

    /// Idempotent coupling fault with `aggressor` forcing `victim`.
    pub fn coupling_idempotent(
        victim: CellCoord,
        aggressor: CellCoord,
        aggressor_rises: bool,
        forced_value: bool,
    ) -> Self {
        MemoryFault::cell(
            victim,
            CellFault::Coupling {
                aggressor,
                kind: CouplingKind::Idempotent {
                    aggressor_rises,
                    forced_value,
                },
            },
        )
    }

    /// Inversion coupling fault with `aggressor` inverting `victim`.
    pub fn coupling_inversion(victim: CellCoord, aggressor: CellCoord, aggressor_rises: bool) -> Self {
        MemoryFault::cell(
            victim,
            CellFault::Coupling {
                aggressor,
                kind: CouplingKind::Inversion { aggressor_rises },
            },
        )
    }

    /// State coupling fault with `aggressor` state forcing `victim`.
    pub fn coupling_state(
        victim: CellCoord,
        aggressor: CellCoord,
        aggressor_value: bool,
        forced_value: bool,
    ) -> Self {
        MemoryFault::cell(
            victim,
            CellFault::Coupling {
                aggressor,
                kind: CouplingKind::State {
                    aggressor_value,
                    forced_value,
                },
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_model::{Address, DataWord, MemConfig, Sram};

    fn coord(addr: u64, bit: usize) -> CellCoord {
        CellCoord::new(Address::new(addr), bit)
    }

    #[test]
    fn class_mapping_covers_all_cell_faults() {
        assert_eq!(MemoryFault::stuck_at_0(coord(0, 0)).class(), FaultClass::StuckAt);
        assert_eq!(MemoryFault::stuck_at_1(coord(0, 0)).class(), FaultClass::StuckAt);
        assert_eq!(
            MemoryFault::transition_up(coord(0, 0)).class(),
            FaultClass::Transition
        );
        assert_eq!(
            MemoryFault::transition_down(coord(0, 0)).class(),
            FaultClass::Transition
        );
        assert_eq!(
            MemoryFault::data_retention_a(coord(0, 0)).class(),
            FaultClass::DataRetention
        );
        assert_eq!(
            MemoryFault::coupling_inversion(coord(0, 0), coord(1, 0), true).class(),
            FaultClass::Coupling
        );
        assert_eq!(
            MemoryFault::cell(coord(0, 0), CellFault::ReadDestructive).class(),
            FaultClass::ReadDisturb
        );
        assert_eq!(
            MemoryFault::cell(coord(0, 0), CellFault::StuckOpen).class(),
            FaultClass::StuckOpen
        );
        let decoder = MemoryFault::decoder(DecoderFault::new(
            Address::new(1),
            sram_model::DecoderFaultKind::NoAccess,
        ));
        assert_eq!(decoder.class(), FaultClass::AddressDecoder);
        assert!(decoder.coord().is_none());
    }

    #[test]
    fn baseline_classes_match_paper_case_study() {
        let classes = FaultClass::date2005_baseline_classes();
        assert_eq!(classes.len(), 4);
        assert!(!classes.contains(&FaultClass::DataRetention));
        assert!(FaultClass::all().contains(&FaultClass::DataRetention));
    }

    #[test]
    fn only_drf_requires_retention_or_nwrtm() {
        assert!(MemoryFault::data_retention_a(coord(0, 0)).requires_retention_or_nwrtm());
        assert!(MemoryFault::data_retention_b(coord(0, 0)).requires_retention_or_nwrtm());
        assert!(!MemoryFault::stuck_at_0(coord(0, 0)).requires_retention_or_nwrtm());
    }

    #[test]
    fn inject_into_applies_the_fault_behaviour() {
        let mut sram = Sram::new(MemConfig::new(8, 4).unwrap());
        MemoryFault::stuck_at_1(coord(2, 1))
            .inject_into(&mut sram)
            .unwrap();
        sram.write(Address::new(2), &DataWord::zero(4)).unwrap();
        assert!(sram.read(Address::new(2)).unwrap().bit(1));
    }

    #[test]
    fn inject_into_rejects_out_of_range_sites() {
        let mut sram = Sram::new(MemConfig::new(8, 4).unwrap());
        assert!(MemoryFault::stuck_at_0(coord(100, 0))
            .inject_into(&mut sram)
            .is_err());
        assert!(MemoryFault::stuck_at_0(coord(0, 10))
            .inject_into(&mut sram)
            .is_err());
    }

    #[test]
    fn describe_and_display_are_informative() {
        let f = MemoryFault::stuck_at_0(coord(3, 2));
        assert_eq!(f.to_string(), "SA0 at @0x3[2]");
        assert_eq!(FaultClass::DataRetention.to_string(), "DRF");
        assert_eq!(FaultClass::StuckAt.name(), "SAF");
    }

    #[test]
    fn class_slugs_round_trip_through_parse() {
        for class in FaultClass::all() {
            assert_eq!(FaultClass::parse(class.slug()), Some(class));
            assert_eq!(FaultClass::parse(class.name()), Some(class));
            assert_eq!(FaultClass::parse(&class.slug().to_ascii_uppercase()), Some(class));
        }
        assert_eq!(FaultClass::parse("bit-rot"), None);
        assert_eq!(FaultClass::parse(""), None);
    }
}
