//! Single-bit SRAM cell behaviour, including electrical defect semantics.
//!
//! The DATE 2005 paper's key coverage improvement is the diagnosis of
//! Data Retention Faults (DRFs) caused by an open defect on a pull-up
//! PMOS of the 6T cell (its Fig. 6). This module models a cell at the
//! level of its two storage nodes `A` and `B` so that the three
//! observable behaviours the paper relies on hold:
//!
//! 1. a normal write succeeds on both good and DRF cells;
//! 2. after a retention pause, the DRF cell loses the value held by the
//!    defective node (classical `w/ delay /r` detection);
//! 3. under a *No Write Recovery Cycle* (NWRC), a good cell flips while a
//!    DRF cell fails to flip, making the fault observable without any
//!    retention pause.

use crate::config::Address;
use std::fmt;

/// One of the two storage nodes of a 6T SRAM cell.
///
/// By convention node `A` holds the logical value and node `B` its
/// complement, matching Fig. 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellNode {
    /// True storage node: high when the cell stores logical one.
    A,
    /// Complement storage node: high when the cell stores logical zero.
    B,
}

impl fmt::Display for CellNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellNode::A => write!(f, "A"),
            CellNode::B => write!(f, "B"),
        }
    }
}

/// Coordinates of one bit cell inside an e-SRAM: word address plus bit
/// position within the word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellCoord {
    /// Word address of the cell.
    pub address: Address,
    /// Bit position within the word (LSB = 0).
    pub bit: usize,
}

impl CellCoord {
    /// Creates a cell coordinate.
    pub fn new(address: Address, bit: usize) -> Self {
        CellCoord { address, bit }
    }
}

impl fmt::Display for CellCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.address, self.bit)
    }
}

/// Coupling-fault flavours between an aggressor cell and a victim cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CouplingKind {
    /// CFid: a rising (`aggressor_rises = true`) or falling transition of
    /// the aggressor forces the victim to `forced_value`.
    Idempotent {
        /// Whether the sensitising aggressor transition is 0 → 1.
        aggressor_rises: bool,
        /// Value forced onto the victim.
        forced_value: bool,
    },
    /// CFin: a rising or falling transition of the aggressor inverts the
    /// victim.
    Inversion {
        /// Whether the sensitising aggressor transition is 0 → 1.
        aggressor_rises: bool,
    },
    /// CFst: while the aggressor holds `aggressor_value`, the victim is
    /// forced to `forced_value`.
    State {
        /// Aggressor state that sensitises the fault.
        aggressor_value: bool,
        /// Value forced onto the victim.
        forced_value: bool,
    },
}

impl fmt::Display for CouplingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CouplingKind::Idempotent {
                aggressor_rises,
                forced_value,
            } => {
                write!(
                    f,
                    "CFid<{},{}>",
                    if *aggressor_rises { "↑" } else { "↓" },
                    u8::from(*forced_value)
                )
            }
            CouplingKind::Inversion { aggressor_rises } => {
                write!(f, "CFin<{}>", if *aggressor_rises { "↑" } else { "↓" })
            }
            CouplingKind::State {
                aggressor_value,
                forced_value,
            } => {
                write!(
                    f,
                    "CFst<{},{}>",
                    u8::from(*aggressor_value),
                    u8::from(*forced_value)
                )
            }
        }
    }
}

/// Behavioural fault attached to a single bit cell.
///
/// These are the reduced functional fault models of classical memory
/// testing literature; `fault-models` maps manufacturing defect classes
/// onto them and `march` evaluates which March algorithm detects which.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CellFault {
    /// SAF: cell permanently reads `0` or `1` and ignores writes.
    StuckAt(bool),
    /// TF↑: cell cannot make a 0 → 1 transition.
    TransitionUp,
    /// TF↓: cell cannot make a 1 → 0 transition.
    TransitionDown,
    /// RDF: a read flips the cell and returns the flipped (wrong) value.
    ReadDestructive,
    /// DRDF: a read flips the cell but still returns the original value.
    DeceptiveReadDestructive,
    /// IRF: a read returns the complement without changing the cell.
    IncorrectRead,
    /// SOF: the cell cannot be accessed; reads return the sense
    /// amplifier's previous value.
    StuckOpen,
    /// DRF: open pull-up PMOS on the given node. The cell writes and
    /// reads correctly at speed, but loses the value held by that node
    /// after a retention pause, and fails to flip under an NWRC write
    /// targeting that node.
    DataRetention {
        /// Node whose pull-up PMOS is open.
        node: CellNode,
    },
    /// Coupling fault: this cell is the victim; behaviour is driven by
    /// the aggressor cell at `aggressor`.
    Coupling {
        /// Coordinates of the aggressor cell.
        aggressor: CellCoord,
        /// Coupling flavour.
        kind: CouplingKind,
    },
}

impl CellFault {
    /// True if the fault is any coupling fault.
    pub fn is_coupling(&self) -> bool {
        matches!(self, CellFault::Coupling { .. })
    }

    /// The rows this fault, placed on the cell at `coord`, can make
    /// deviate: the first row and, for a two-row fault, the second
    /// (strictly greater) row. `None` means the whole memory.
    ///
    /// * Single-cell faults (stuck-at, transition, retention,
    ///   read-disturb) deviate only on `coord`'s row.
    /// * A coupling fault involves exactly its victim and aggressor. The
    ///   aggressor changes state only on writes to its own row, and the
    ///   victim's deviation shows only on its own row, so an
    ///   order-preserving sweep of the two rows replays the same relative
    ///   operation sequence on both cells as a full sweep. An intra-word
    ///   coupling fault is one row.
    /// * A stuck-open cell echoes the sense amplifier's last value, which
    ///   a read of any row updates, so it yields `None`.
    ///
    /// [`DecoderFault::deviation_rows`](crate::DecoderFault::deviation_rows)
    /// is the decoder-fault counterpart.
    pub fn deviation_rows(&self, coord: CellCoord) -> Option<(Address, Option<Address>)> {
        match self {
            CellFault::StuckOpen => None,
            CellFault::Coupling { aggressor, .. } if aggressor.address != coord.address => Some((
                coord.address.min(aggressor.address),
                Some(coord.address.max(aggressor.address)),
            )),
            _ => Some((coord.address, None)),
        }
    }

    /// Short mnemonic used in diagnosis logs (`SA0`, `TF↑`, `DRF(A)`, ...).
    pub fn mnemonic(&self) -> String {
        match self {
            CellFault::StuckAt(v) => format!("SA{}", u8::from(*v)),
            CellFault::TransitionUp => "TF↑".to_string(),
            CellFault::TransitionDown => "TF↓".to_string(),
            CellFault::ReadDestructive => "RDF".to_string(),
            CellFault::DeceptiveReadDestructive => "DRDF".to_string(),
            CellFault::IncorrectRead => "IRF".to_string(),
            CellFault::StuckOpen => "SOF".to_string(),
            CellFault::DataRetention { node } => format!("DRF({node})"),
            CellFault::Coupling { kind, .. } => kind.to_string(),
        }
    }
}

impl fmt::Display for CellFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// Result of a read access to a single cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellReadOutcome {
    /// Value observed at the memory port.
    pub observed: bool,
    /// Value stored in the cell after the read completes.
    pub stored_after: bool,
}

/// A single bit cell with an optional behavioural fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    value: bool,
    fault: Option<CellFault>,
    /// Set once a retention pause long enough to discharge a defective
    /// node has elapsed while the defective node was holding the value.
    decayed: bool,
}

impl Cell {
    /// Creates a fault-free cell storing `0`.
    pub fn new() -> Self {
        Cell {
            value: false,
            fault: None,
            decayed: false,
        }
    }

    /// Creates a cell with the given fault, storing `0` (or the stuck
    /// value for stuck-at faults).
    pub fn with_fault(fault: CellFault) -> Self {
        let value = match fault {
            CellFault::StuckAt(v) => v,
            _ => false,
        };
        Cell {
            value,
            fault: Some(fault),
            decayed: false,
        }
    }

    /// The fault attached to this cell, if any.
    pub fn fault(&self) -> Option<CellFault> {
        self.fault
    }

    /// Attaches a fault to the cell (replacing any previous fault).
    pub fn set_fault(&mut self, fault: CellFault) {
        if let CellFault::StuckAt(v) = fault {
            self.value = v;
        }
        self.fault = Some(fault);
    }

    /// Current stored value (as a fault-free observer would see it).
    pub fn stored(&self) -> bool {
        self.value
    }

    /// Forces the stored value without write-fault semantics.
    ///
    /// Used by the array to apply coupling effects onto victim cells.
    pub fn force(&mut self, value: bool) {
        match self.fault {
            Some(CellFault::StuckAt(v)) => self.value = v,
            _ => {
                if self.value != value {
                    self.decayed = false;
                }
                self.value = value;
            }
        }
    }

    /// Performs a normal write cycle.
    ///
    /// Returns `true` if the stored value changed (a transition
    /// occurred), which the array uses to evaluate coupling faults.
    pub fn write(&mut self, value: bool) -> bool {
        let before = self.value;
        match self.fault {
            Some(CellFault::StuckAt(v)) => self.value = v,
            Some(CellFault::TransitionUp) if !before && value => { /* transition fails */ }
            Some(CellFault::TransitionDown) if before && !value => { /* transition fails */ }
            Some(CellFault::StuckOpen) => { /* cell not accessible: write lost */ }
            _ => self.value = value,
        }
        if self.value != before {
            self.decayed = false;
        }
        self.value != before
    }

    /// Performs a *No Write Recovery Cycle* write (NWRTM, Fig. 6).
    ///
    /// A good cell flips exactly as in a normal write. A cell with a DRF
    /// on the node that must be pulled high fails to flip because the
    /// floating bitline provides no charge path.
    ///
    /// Returns `true` if the stored value changed.
    pub fn write_nwrc(&mut self, value: bool) -> bool {
        let before = self.value;
        match self.fault {
            // Writing 1 requires node A to rise through its pull-up PMOS.
            Some(CellFault::DataRetention { node: CellNode::A }) if value && !before => {
                // Faulty cell fails to flip: node A can never exceed node B.
            }
            // Writing 0 requires node B to rise through its pull-up PMOS.
            Some(CellFault::DataRetention { node: CellNode::B }) if !value && before => {
                // Faulty cell fails to flip.
            }
            _ => {
                // All other cells (including other fault classes) behave
                // as in a normal write cycle.
                return self.write(value);
            }
        }
        self.value != before
    }

    /// Performs a read cycle, applying read-fault semantics.
    pub fn read(&mut self) -> CellReadOutcome {
        match self.fault {
            Some(CellFault::ReadDestructive) => {
                self.value = !self.value;
                CellReadOutcome {
                    observed: self.value,
                    stored_after: self.value,
                }
            }
            Some(CellFault::DeceptiveReadDestructive) => {
                let original = self.value;
                self.value = !self.value;
                CellReadOutcome {
                    observed: original,
                    stored_after: self.value,
                }
            }
            Some(CellFault::IncorrectRead) => CellReadOutcome {
                observed: !self.value,
                stored_after: self.value,
            },
            _ => CellReadOutcome {
                observed: self.value,
                stored_after: self.value,
            },
        }
    }

    /// Applies a retention pause of `elapsed_ms` against a threshold of
    /// `threshold_ms`.
    ///
    /// If the cell has a DRF and the defective node is the one holding
    /// the current value, the value decays once the pause meets the
    /// threshold. Returns `true` if the stored value changed.
    pub fn elapse_retention(&mut self, elapsed_ms: f64, threshold_ms: f64) -> bool {
        if elapsed_ms < threshold_ms {
            return false;
        }
        match self.fault {
            Some(CellFault::DataRetention { node: CellNode::A }) if self.value => {
                self.value = false;
                self.decayed = true;
                true
            }
            Some(CellFault::DataRetention { node: CellNode::B }) if !self.value => {
                self.value = true;
                self.decayed = true;
                true
            }
            _ => false,
        }
    }
}

impl Default for Cell {
    fn default() -> Self {
        Cell::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_cell_reads_what_was_written() {
        let mut cell = Cell::new();
        assert!(!cell.read().observed);
        assert!(cell.write(true));
        assert!(cell.read().observed);
        assert!(cell.write(false));
        assert!(!cell.read().observed);
        // Writing the same value is not a transition.
        assert!(!cell.write(false));
    }

    #[test]
    fn stuck_at_ignores_writes() {
        let mut sa0 = Cell::with_fault(CellFault::StuckAt(false));
        sa0.write(true);
        assert!(!sa0.read().observed);
        let mut sa1 = Cell::with_fault(CellFault::StuckAt(true));
        assert!(sa1.read().observed);
        sa1.write(false);
        assert!(sa1.read().observed);
    }

    #[test]
    fn transition_faults_block_only_one_direction() {
        let mut tf_up = Cell::with_fault(CellFault::TransitionUp);
        assert!(!tf_up.write(true)); // 0 -> 1 fails
        assert!(!tf_up.read().observed);
        tf_up.force(true);
        assert!(tf_up.write(false)); // 1 -> 0 still works
        assert!(!tf_up.read().observed);

        let mut tf_down = Cell::with_fault(CellFault::TransitionDown);
        assert!(tf_down.write(true)); // 0 -> 1 works
        assert!(!tf_down.write(false)); // 1 -> 0 fails
        assert!(tf_down.read().observed);
    }

    #[test]
    fn read_destructive_flips_and_returns_flipped_value() {
        let mut rdf = Cell::with_fault(CellFault::ReadDestructive);
        rdf.write(true);
        let outcome = rdf.read();
        assert!(!outcome.observed);
        assert!(!outcome.stored_after);
    }

    #[test]
    fn deceptive_read_destructive_flips_but_reports_original() {
        let mut drdf = Cell::with_fault(CellFault::DeceptiveReadDestructive);
        drdf.write(true);
        let outcome = drdf.read();
        assert!(outcome.observed);
        assert!(!outcome.stored_after);
        // The corruption is visible on the *next* read.
        assert!(!drdf.read().observed);
    }

    #[test]
    fn incorrect_read_returns_complement_without_corruption() {
        let mut irf = Cell::with_fault(CellFault::IncorrectRead);
        irf.write(true);
        assert!(!irf.read().observed);
        assert!(irf.stored());
    }

    #[test]
    fn stuck_open_drops_writes() {
        let mut sof = Cell::with_fault(CellFault::StuckOpen);
        sof.write(true);
        assert!(!sof.read().observed);
    }

    #[test]
    fn drf_normal_write_succeeds_but_value_decays_after_retention_pause() {
        let mut drf = Cell::with_fault(CellFault::DataRetention { node: CellNode::A });
        assert!(drf.write(true)); // a normal write looks fine
        assert!(drf.read().observed);
        // Short pause: nothing happens.
        assert!(!drf.elapse_retention(10.0, 100.0));
        assert!(drf.read().observed);
        // Long pause: node A discharges, the 1 is lost.
        assert!(drf.elapse_retention(100.0, 100.0));
        assert!(!drf.read().observed);
        assert!(drf.decayed);
    }

    #[test]
    fn drf_on_node_b_loses_zero_after_retention_pause() {
        let mut drf = Cell::with_fault(CellFault::DataRetention { node: CellNode::B });
        drf.write(false);
        assert!(drf.elapse_retention(200.0, 100.0));
        assert!(drf.read().observed); // the stored 0 drifted to 1
    }

    #[test]
    fn good_cell_unaffected_by_retention_pause() {
        let mut cell = Cell::new();
        cell.write(true);
        assert!(!cell.elapse_retention(1000.0, 100.0));
        assert!(cell.read().observed);
    }

    #[test]
    fn nwrc_write_flips_good_cell_but_not_drf_cell() {
        // Paper, Sec. 3.4: writing ONE under NWRC flips a good cell but a
        // cell with an open pull-up on node A fails to flip.
        let mut good = Cell::new();
        assert!(good.write_nwrc(true));
        assert!(good.read().observed);

        let mut drf_a = Cell::with_fault(CellFault::DataRetention { node: CellNode::A });
        assert!(!drf_a.write_nwrc(true));
        assert!(!drf_a.read().observed); // detected immediately, no pause needed

        // The dual case: writing ZERO under NWRC fails on a node-B DRF.
        let mut drf_b = Cell::with_fault(CellFault::DataRetention { node: CellNode::B });
        drf_b.force(true);
        assert!(!drf_b.write_nwrc(false));
        assert!(drf_b.read().observed);
    }

    #[test]
    fn nwrc_write_behaves_like_normal_write_for_other_faults() {
        let mut sa0 = Cell::with_fault(CellFault::StuckAt(false));
        sa0.write_nwrc(true);
        assert!(!sa0.read().observed);
        let mut good = Cell::new();
        good.force(true);
        assert!(!good.write_nwrc(true)); // no transition when already 1
    }

    #[test]
    fn force_bypasses_transition_faults_but_not_stuck_at() {
        let mut tf = Cell::with_fault(CellFault::TransitionUp);
        tf.force(true);
        assert!(tf.stored());
        let mut sa0 = Cell::with_fault(CellFault::StuckAt(false));
        sa0.force(true);
        assert!(!sa0.stored());
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(CellFault::StuckAt(false).mnemonic(), "SA0");
        assert_eq!(CellFault::StuckAt(true).mnemonic(), "SA1");
        assert_eq!(CellFault::TransitionUp.mnemonic(), "TF↑");
        assert_eq!(
            CellFault::DataRetention { node: CellNode::A }.mnemonic(),
            "DRF(A)"
        );
        let cf = CellFault::Coupling {
            aggressor: CellCoord::new(Address::new(3), 1),
            kind: CouplingKind::Inversion {
                aggressor_rises: true,
            },
        };
        assert_eq!(cf.mnemonic(), "CFin<↑>");
        assert!(cf.is_coupling());
    }

    #[test]
    fn deviation_rows_per_fault_class() {
        let victim = CellCoord::new(Address::new(5), 2);
        let coupling = |aggressor| CellFault::Coupling {
            aggressor,
            kind: CouplingKind::Inversion {
                aggressor_rises: true,
            },
        };
        assert_eq!(
            CellFault::StuckAt(true).deviation_rows(victim),
            Some((Address::new(5), None))
        );
        // Intra-word coupling: aggressor in the victim's own row.
        assert_eq!(
            coupling(CellCoord::new(Address::new(5), 0)).deviation_rows(victim),
            Some((Address::new(5), None))
        );
        // Cross-row coupling with the aggressor below the victim: rows
        // come back ascending.
        assert_eq!(
            coupling(CellCoord::new(Address::new(1), 7)).deviation_rows(victim),
            Some((Address::new(1), Some(Address::new(5))))
        );
        assert_eq!(CellFault::StuckOpen.deviation_rows(victim), None);
    }

    #[test]
    fn set_fault_stuck_at_forces_the_stored_value() {
        let mut cell = Cell::new();
        cell.set_fault(CellFault::StuckAt(true));
        assert!(cell.stored());
        assert_eq!(cell.fault(), Some(CellFault::StuckAt(true)));
    }
}
