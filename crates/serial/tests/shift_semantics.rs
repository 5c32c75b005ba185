//! Shift-order and masking semantics of the serial fabrics: MSB-first
//! delivery must preserve low-order bits for every narrower memory
//! (Sec. 3.2), the PSC must serialise responses losslessly outside the
//! cell array (Sec. 3.3), and the two baseline interfaces must exhibit
//! exactly the limitations the paper attributes to them.

use fault_models::MemoryFault;
use march::{algorithms, AddressOrder, DataBackground, MarchElement, MarchOp};
use serial::{
    BidirectionalSerialInterface, ParallelToSerialConverter, PatternDeliveryBus, SerialToParallelConverter,
    ShiftDirection, ShiftOrder, SingleDirectionalSerialInterface,
};
use sram_model::cell::CellCoord;
use sram_model::{Address, DataWord, MemConfig, Sram};
use std::collections::BTreeSet;

/// Every (wide, narrow) width pair: MSB-first delivery leaves the narrow
/// SPC holding exactly the low-order bits of the wide pattern.
#[test]
fn msb_first_delivery_preserves_low_order_bits_for_every_width_pair() {
    let widths = [1usize, 3, 4, 5, 8, 16, 20, 100];
    for &wide in &widths {
        // A pattern with ones in the low half and zeros above, so any
        // shift misalignment is visible.
        let mut pattern = DataWord::zero(wide);
        for bit in 0..wide.div_ceil(2) {
            pattern.set(bit, true);
        }
        for &narrow in widths.iter().filter(|&&w| w <= wide) {
            let mut spc = SerialToParallelConverter::new(narrow);
            let cycles = spc.deliver(&pattern, ShiftOrder::MsbFirst);
            assert_eq!(cycles, wide as u64, "delivery costs one cycle per pattern bit");
            assert_eq!(
                spc.parallel_out(),
                pattern.truncated_lsb(narrow),
                "wide {wide} -> narrow {narrow}"
            );
        }
    }
}

/// The ablation direction: LSB-first delivery corrupts every strictly
/// narrower memory whenever the dropped high bits differ from the kept
/// low bits.
#[test]
fn lsb_first_delivery_corrupts_every_strictly_narrower_memory() {
    for (wide, narrow) in [(4usize, 3usize), (8, 4), (16, 5), (20, 8), (100, 33)] {
        // Low `narrow` bits all ones, everything above zero: the naive
        // order shifts the ones out of the narrow register.
        let mut pattern = DataWord::zero(wide);
        for bit in 0..narrow {
            pattern.set(bit, true);
        }
        let mut spc = SerialToParallelConverter::new(narrow);
        spc.deliver(&pattern, ShiftOrder::LsbFirst);
        assert_ne!(
            spc.parallel_out(),
            pattern.truncated_lsb(narrow),
            "LSB-first must corrupt {wide} -> {narrow}"
        );
    }
}

/// One broadcast serves a whole heterogeneous population in `c_max`
/// cycles, and every memory ends up with its own correct background.
#[test]
fn one_broadcast_serves_a_heterogeneous_population() {
    let widths = [20usize, 8, 5, 1];
    let mut bus = PatternDeliveryBus::new(&widths);
    let pattern = DataWord::checkerboard(20, 0, false);
    let cycles = bus.broadcast(&pattern);
    assert_eq!(cycles, 20, "broadcast costs c_max cycles");
    for (index, &width) in widths.iter().enumerate() {
        assert_eq!(
            bus.pattern_at(index),
            pattern.truncated_lsb(width),
            "memory {index}"
        );
    }
}

/// PSC round trip: capture + shift costs `width + 1` cycles and loses
/// nothing, for any width and pattern shape.
#[test]
fn psc_serialisation_round_trips_for_every_width() {
    for width in [1usize, 3, 4, 8, 16, 33, 100] {
        for pattern in [
            DataWord::zero(width),
            DataWord::splat(true, width),
            DataWord::checkerboard(width, 0, false),
            DataWord::column_stripe(width, true),
        ] {
            let mut psc = ParallelToSerialConverter::new(width);
            let (bits, cycles) = psc.serialize(&pattern);
            assert_eq!(cycles, width as u64 + 1, "capture + width shifts");
            assert_eq!(bits.len(), width);
            assert_eq!(ParallelToSerialConverter::word_from_serial(&bits), pattern);
        }
    }
}

/// The bi-directional interface pays one cycle per bit for every
/// operation and locates at most one *new* fault per element — the two
/// properties behind Eq. (1)'s `k` iterations.
#[test]
fn bidirectional_interface_is_bit_serial_and_locates_one_new_fault_per_element() {
    let config = MemConfig::new(16, 4).unwrap();
    let mut sram = Sram::new(config);
    let sites = [
        CellCoord::new(Address::new(2), 1),
        CellCoord::new(Address::new(9), 3),
    ];
    for site in sites {
        MemoryFault::stuck_at_1(site).inject_into(&mut sram).unwrap();
    }
    // Prepare all-zero contents, then a read-0 sweep observes both
    // stuck-at-1 cells.
    let interface = BidirectionalSerialInterface::new(4);
    let write_element = MarchElement::new(AddressOrder::Ascending, vec![MarchOp::Write(false)]);
    let read_element = MarchElement::new(AddressOrder::Ascending, vec![MarchOp::Read(false)]);

    let mut known = BTreeSet::new();
    let prep = interface
        .run_element(
            &mut sram,
            &write_element,
            DataBackground::Solid,
            ShiftDirection::Right,
            &known,
        )
        .unwrap();
    assert_eq!(prep.cycles, 16 * 4, "one cycle per bit per write");

    let first = interface
        .run_element(
            &mut sram,
            &read_element,
            DataBackground::Solid,
            ShiftDirection::Right,
            &known,
        )
        .unwrap();
    assert_eq!(first.cycles, 16 * 4, "one cycle per bit per read");
    assert_eq!(
        first.located,
        Some((sites[0].address, sites[0].bit)),
        "first new fault only"
    );
    assert_eq!(first.mismatches, 2, "both faulty cells respond");

    // With the first site known, a repeat element locates the second.
    known.insert((sites[0].address, sites[0].bit));
    let second = interface
        .run_element(
            &mut sram,
            &read_element,
            DataBackground::Solid,
            ShiftDirection::Right,
            &known,
        )
        .unwrap();
    assert_eq!(second.located, Some((sites[1].address, sites[1].bit)));
}

/// Left shifts scan the word from the opposite end, so the two
/// directions disagree on which of two same-word faults is "first" —
/// which is why DiagRSMarch alternates directions.
#[test]
fn shift_direction_selects_which_fault_in_a_word_is_located_first() {
    let config = MemConfig::new(8, 4).unwrap();
    let site_low = CellCoord::new(Address::new(3), 0);
    let site_high = CellCoord::new(Address::new(3), 3);

    let build = || {
        let mut sram = Sram::new(config);
        MemoryFault::stuck_at_1(site_low).inject_into(&mut sram).unwrap();
        MemoryFault::stuck_at_1(site_high).inject_into(&mut sram).unwrap();
        for address in config.addresses() {
            sram.force_word(address, &DataWord::zero(4)).unwrap();
        }
        sram
    };
    let interface = BidirectionalSerialInterface::new(4);
    let read_element = MarchElement::new(AddressOrder::Ascending, vec![MarchOp::Read(false)]);
    let known = BTreeSet::new();

    let right = interface
        .run_element(
            &mut build(),
            &read_element,
            DataBackground::Solid,
            ShiftDirection::Right,
            &known,
        )
        .unwrap();
    assert_eq!(right.located, Some((site_low.address, site_low.bit)));

    let left = interface
        .run_element(
            &mut build(),
            &read_element,
            DataBackground::Solid,
            ShiftDirection::Left,
            &known,
        )
        .unwrap();
    assert_eq!(left.located, Some((site_high.address, site_high.bit)));
}

/// One M1 pass through the bi-directional interface costs exactly the
/// per-iteration term of Eq. (1): `complexity_per_address() · n · c`,
/// the `17·n·c` the baseline scheme charges for each of its `k`
/// iterations. Pristine memories, so no element stops early.
#[test]
fn m1_pass_through_the_baseline_interface_costs_the_eq1_iteration_term() {
    let m1 = algorithms::diag_rs_march_m1();
    assert_eq!(m1.complexity_per_address(), 17);
    for (words, width) in [(1u64, 1usize), (8, 1), (16, 4), (33, 65), (512, 100)] {
        let config = MemConfig::new(words, width).unwrap();
        let interface = BidirectionalSerialInterface::new(width);
        for direction in [ShiftDirection::Right, ShiftDirection::Left] {
            let mut sram = Sram::new(config);
            let known = BTreeSet::new();
            let cycles: u64 = m1
                .elements()
                .iter()
                .map(|element| {
                    interface
                        .run_element(&mut sram, element, DataBackground::Solid, direction, &known)
                        .unwrap()
                        .cycles
                })
                .sum();
            assert_eq!(
                cycles,
                m1.complexity_per_address() as u64 * words * width as u64,
                "{words}x{width}, shift {direction}"
            );
        }
    }
}

/// The single-directional interface masks every fault downstream of the
/// first faulty chain position — the failure mode that motivated the
/// bi-directional baseline in the first place.
#[test]
fn single_directional_interface_masks_downstream_faults() {
    let config = MemConfig::new(16, 4).unwrap();
    let mut sram = Sram::new(config);
    let upstream = CellCoord::new(Address::new(1), 2);
    let downstream = CellCoord::new(Address::new(10), 0);
    MemoryFault::stuck_at_1(upstream).inject_into(&mut sram).unwrap();
    MemoryFault::stuck_at_1(downstream)
        .inject_into(&mut sram)
        .unwrap();

    let interface = SingleDirectionalSerialInterface::new(4);
    let outcome = interface
        .run_march(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
        .unwrap();
    assert!(outcome.has_masking(), "a downstream fault must be masked");
    assert!(outcome.identified.contains(&(upstream.address, upstream.bit)));
    assert!(outcome.masked.contains(&(downstream.address, downstream.bit)));
    assert!((outcome.identification_ratio() - 0.5).abs() < 1e-12);

    // A fault-free memory reports nothing masked and a perfect ratio.
    let mut clean = Sram::new(config);
    let clean_outcome = interface
        .run_march(&mut clean, &algorithms::march_c_minus(), DataBackground::Solid)
        .unwrap();
    assert!(!clean_outcome.has_masking());
    assert_eq!(clean_outcome.identification_ratio(), 1.0);
}
