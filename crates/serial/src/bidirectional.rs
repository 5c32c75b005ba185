//! The bi-directional serial interface of the baseline architecture
//! (\[7,8\], Fig. 2 of the paper).
//!
//! In the baseline, test data is shifted *through the memory cells
//! themselves*: every read or write of a word is performed bit-serially
//! (one clock per bit), and the element can be walked in either shift
//! direction. Compared with the older single-directional interface this
//! removes serial fault masking — every faulty cell can eventually be
//! identified — but a March element can still pinpoint **at most one
//! faulty cell per shift direction**, because once a mismatch has been
//! observed the remaining serial stream of that element no longer
//! carries attributable information. The diagnosis must therefore
//! iterate the element until no new fault is found, which is what makes
//! the baseline's diagnosis time depend on the defect rate.

use march::{BackgroundPatterns, DataBackground, MarchElement, MarchOp};
use sram_model::{Address, MemError, Sram};
use std::collections::BTreeSet;
use std::fmt;

/// Shift direction of a bi-directional element execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftDirection {
    /// Shift towards the right neighbour (the RSMarch default).
    Right,
    /// Shift towards the left neighbour (the extra DiagRSMarch elements).
    Left,
}

impl fmt::Display for ShiftDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShiftDirection::Right => write!(f, "right"),
            ShiftDirection::Left => write!(f, "left"),
        }
    }
}

/// Result of executing one March element through the bi-directional
/// serial interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialElementOutcome {
    /// The single newly located faulty cell, if any.
    pub located: Option<(Address, usize)>,
    /// Number of mismatching bits observed during the element (including
    /// ones that could not be attributed to a new cell).
    pub mismatches: usize,
    /// Modelled bit-serial cost of the whole element: every non-pause
    /// operation at every word of the memory costs one clock per bit,
    /// `words × ops × width`, however many rows were actually stepped.
    pub cycles: u64,
}

/// Behavioural model of the bi-directional serial interface of \[7,8\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BidirectionalSerialInterface {
    width: usize,
}

impl BidirectionalSerialInterface {
    /// Creates an interface for a memory with `width` IO bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "interface width must be non-zero");
        BidirectionalSerialInterface { width }
    }

    /// IO width of the memory behind the interface.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Executes one March element bit-serially.
    ///
    /// `known_faults` is the set of cells already located in earlier
    /// iterations; the element reports at most one faulty cell that is
    /// not yet in that set (scanning bits in the shift direction).
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_element(
        &self,
        sram: &mut Sram,
        element: &MarchElement,
        background: DataBackground,
        direction: ShiftDirection,
        known_faults: &BTreeSet<(Address, usize)>,
    ) -> Result<SerialElementOutcome, MemError> {
        // Patterns depend only on (value, row parity): precompute once
        // so the bit-serial walk stays allocation-free per operation.
        let patterns = background.patterns(sram.config().width());
        let mut failing = Vec::new();
        let cycles = self.run_element_with(sram, element, &patterns, direction, None, &mut failing)?;
        Ok(SerialElementOutcome {
            located: first_unknown(&failing, known_faults).map(|index| failing[index]),
            mismatches: failing.len(),
            cycles,
        })
    }

    /// Executes one March element bit-serially with pattern words
    /// precomputed by the caller, over every row or only `rows`, and
    /// appends every failing `(address, bit)` to `failing` in the order
    /// the interface shifts it out: reads in sweep order, and the bits
    /// of a read from the low bit up for a right shift and from the high
    /// bit down for a left shift. Returns the modelled bit-serial cost of
    /// the whole element, `words × ops × width`.
    ///
    /// The patterns of a background depend only on the memory's IO
    /// width, so a diagnosis controller iterating an element group over
    /// a large population builds one [`BackgroundPatterns`] per distinct
    /// width and shares it across every memory of that width and every
    /// iteration — instead of reassembling four pattern words per
    /// element per memory per iteration.
    ///
    /// `rows: None` sweeps every address of the memory. `Some(rows)`
    /// (ascending, distinct) steps only those rows, in the element's
    /// address order, so each one sees the operation sequence of the
    /// full sweep. That gives the full sweep's failing sites when no
    /// other row can mismatch and no access to another row changes these
    /// rows, which holds for the fault rows of [`Sram::row_classes`] (its
    /// lane and stepped rows) of a memory whose every read of a
    /// fault-free row follows a write of it in the same test. The cost
    /// is the full sweep's either way. Retention pauses apply once,
    /// before the sweep.
    ///
    /// The operations applied to the memory do not depend on which sites
    /// are already known; [`first_unknown`] picks the located site from
    /// the failing sites afterwards.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_element_with(
        &self,
        sram: &mut Sram,
        element: &MarchElement,
        patterns: &BackgroundPatterns,
        direction: ShiftDirection,
        rows: Option<&[Address]>,
        failing: &mut Vec<(Address, usize)>,
    ) -> Result<u64, MemError> {
        let config = sram.config();
        let width = config.width();
        debug_assert_eq!(width, self.width);

        // Pauses apply once per element, before its address sweep, as in
        // `march::MarchRunner` and the classical `del` notation.
        for op in &element.ops {
            if let MarchOp::Pause(ms) = op {
                sram.elapse_retention(f64::from(*ms));
            }
        }

        element.order.sweep(config.words(), rows, |address| {
            let row = address.index();
            for op in &element.ops {
                match op {
                    MarchOp::Write(value) => sram.write(address, patterns.word(*value, row))?,
                    MarchOp::NwrcWrite(value) => sram.write_nwrc(address, patterns.word(*value, row))?,
                    MarchOp::Read(value) => {
                        let expected = patterns.word(*value, row);
                        let Some(observed) = sram.read_expect(address, expected)? else {
                            continue;
                        };
                        let mut bits = expected.mismatches(&observed);
                        if direction == ShiftDirection::Left {
                            bits.reverse();
                        }
                        failing.extend(bits.iter().map(|&bit| (address, bit)));
                    }
                    // Pauses ran before the sweep. `MarchOp` is
                    // non-exhaustive; unknown future operations consume
                    // a serial slot but do nothing.
                    _ => {}
                }
            }
            Ok(())
        })?;

        Ok(config.words() * element.ops_per_address() as u64 * width as u64)
    }
}

/// The position in `failing` of the site an element locates: the first
/// failing site not in `known`. Once a mismatch of an unknown cell has
/// been shifted out, the rest of the element's serial stream carries no
/// attributable information, so every later failing site is dropped.
pub fn first_unknown(failing: &[(Address, usize)], known: &BTreeSet<(Address, usize)>) -> Option<usize> {
    failing.iter().position(|site| !known.contains(site))
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

    fn detecting_element() -> MarchElement {
        // ⇑(r0,w1) from March C- detects SA1 cells on the r0.
        algorithms::march_c_minus().elements()[1].clone()
    }

    #[test]
    fn every_operation_costs_one_cycle_per_bit() {
        let mut sram = memory_with_faults(&[]);
        let interface = BidirectionalSerialInterface::new(4);
        let outcome = interface
            .run_element(
                &mut sram,
                &detecting_element(),
                DataBackground::Solid,
                ShiftDirection::Right,
                &BTreeSet::new(),
            )
            .unwrap();
        // 2 ops per address, 8 addresses, 4 bits per op.
        assert_eq!(outcome.cycles, 2 * 8 * 4);
        assert!(outcome.located.is_none());
        assert_eq!(outcome.mismatches, 0);
    }

    #[test]
    fn a_row_restricted_sweep_reports_the_full_sweep_outcome_and_cost() {
        let faults = [
            MemoryFault::stuck_at_1(CellCoord::new(Address::new(5), 2)),
            MemoryFault::stuck_at_1(CellCoord::new(Address::new(2), 0)),
        ];
        let interface = BidirectionalSerialInterface::new(4);
        let patterns = DataBackground::Solid.patterns(4);
        let element = detecting_element();
        let run = |rows: Option<&[Address]>| {
            let mut sram = memory_with_faults(&faults);
            let mut failing = Vec::new();
            let cycles = interface
                .run_element_with(
                    &mut sram,
                    &element,
                    &patterns,
                    ShiftDirection::Right,
                    rows,
                    &mut failing,
                )
                .unwrap();
            (failing, cycles)
        };
        let full = run(None);
        assert_eq!(full.0, [(Address::new(2), 0), (Address::new(5), 2)]);
        assert_eq!(run(Some(&[Address::new(2), Address::new(5)])), full);
        // Stepping one row still costs the whole element: 2 ops per
        // address, 8 addresses, 4 bits per op.
        let one_row = run(Some(&[Address::new(5)]));
        assert_eq!(one_row, (vec![(Address::new(5), 2)], 2 * 8 * 4));
    }

    #[test]
    fn a_single_element_locates_at_most_one_new_fault() {
        let a = CellCoord::new(Address::new(1), 0);
        let b = CellCoord::new(Address::new(5), 2);
        let mut sram = memory_with_faults(&[MemoryFault::stuck_at_1(a), MemoryFault::stuck_at_1(b)]);
        let interface = BidirectionalSerialInterface::new(4);
        let outcome = interface
            .run_element(
                &mut sram,
                &detecting_element(),
                DataBackground::Solid,
                ShiftDirection::Right,
                &BTreeSet::new(),
            )
            .unwrap();
        assert_eq!(outcome.located, Some((Address::new(1), 0)));
        assert_eq!(
            outcome.mismatches, 2,
            "both faults raise mismatches but only one is attributed"
        );
    }

    #[test]
    fn iterating_with_known_faults_reaches_the_second_fault() {
        let a = CellCoord::new(Address::new(1), 0);
        let b = CellCoord::new(Address::new(5), 2);
        let faults = [MemoryFault::stuck_at_1(a), MemoryFault::stuck_at_1(b)];
        let interface = BidirectionalSerialInterface::new(4);

        let mut known = BTreeSet::new();
        for _ in 0..2 {
            let mut sram = memory_with_faults(&faults);
            let outcome = interface
                .run_element(
                    &mut sram,
                    &detecting_element(),
                    DataBackground::Solid,
                    ShiftDirection::Right,
                    &known,
                )
                .unwrap();
            if let Some(site) = outcome.located {
                known.insert(site);
            }
        }
        assert!(known.contains(&(Address::new(1), 0)));
        assert!(known.contains(&(Address::new(5), 2)));
    }

    #[test]
    fn left_shift_direction_scans_bits_in_reverse_order() {
        // Two faulty bits in the same word: right shift attributes the
        // low bit, left shift the high bit.
        let low = CellCoord::new(Address::new(3), 0);
        let high = CellCoord::new(Address::new(3), 3);
        let faults = [MemoryFault::stuck_at_1(low), MemoryFault::stuck_at_1(high)];
        let interface = BidirectionalSerialInterface::new(4);

        let mut right_mem = memory_with_faults(&faults);
        let right = interface
            .run_element(
                &mut right_mem,
                &detecting_element(),
                DataBackground::Solid,
                ShiftDirection::Right,
                &BTreeSet::new(),
            )
            .unwrap();
        assert_eq!(right.located, Some((Address::new(3), 0)));

        let mut left_mem = memory_with_faults(&faults);
        let left = interface
            .run_element(
                &mut left_mem,
                &detecting_element(),
                DataBackground::Solid,
                ShiftDirection::Left,
                &BTreeSet::new(),
            )
            .unwrap();
        assert_eq!(left.located, Some((Address::new(3), 3)));
    }

    #[test]
    fn no_serial_fault_masking_every_fault_is_eventually_identified() {
        // Unlike the single-directional interface, repeated iterations
        // identify every faulty cell, regardless of position.
        let sites = [
            CellCoord::new(Address::new(0), 0),
            CellCoord::new(Address::new(2), 1),
            CellCoord::new(Address::new(7), 3),
        ];
        let faults: Vec<MemoryFault> = sites.iter().map(|s| MemoryFault::stuck_at_1(*s)).collect();
        let interface = BidirectionalSerialInterface::new(4);
        let mut known = BTreeSet::new();
        for _ in 0..sites.len() {
            let mut sram = memory_with_faults(&faults);
            let outcome = interface
                .run_element(
                    &mut sram,
                    &detecting_element(),
                    DataBackground::Solid,
                    ShiftDirection::Right,
                    &known,
                )
                .unwrap();
            if let Some(site) = outcome.located {
                known.insert(site);
            }
        }
        assert_eq!(known.len(), sites.len());
    }

    #[test]
    fn a_pause_applies_once_before_the_address_sweep() {
        // A node-A retention fault loses a stored 1 on any pause that
        // reaches the decay threshold. Were the pause applied at every
        // visited address, the addresses after row 3 would decay the 1
        // the sweep had just written there, wherever the pause sits in
        // the element's operation list.
        let site = CellCoord::new(Address::new(3), 2);
        let interface = BidirectionalSerialInterface::new(4);
        for ops in [
            vec![MarchOp::Pause(100), MarchOp::Write(true)],
            vec![MarchOp::Write(true), MarchOp::Pause(100)],
        ] {
            let mut sram = memory_with_faults(&[MemoryFault::data_retention_a(site)]);
            let element = MarchElement::new(march::AddressOrder::Ascending, ops);
            interface
                .run_element(
                    &mut sram,
                    &element,
                    DataBackground::Solid,
                    ShiftDirection::Right,
                    &BTreeSet::new(),
                )
                .unwrap();
            assert_eq!(sram.peek_cell(site), Ok(true), "{element}");
        }
    }

    #[test]
    fn display_and_accessors() {
        assert_eq!(ShiftDirection::Right.to_string(), "right");
        assert_eq!(ShiftDirection::Left.to_string(), "left");
        assert_eq!(BidirectionalSerialInterface::new(7).width(), 7);
    }
}
