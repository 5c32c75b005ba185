//! `Sram::row_classes` checked against a per-row restatement of its
//! three rules, written here from the memory's public surface
//! (`cell_faults`, `decoder_faults`, `peek`), on random memories that
//! mix every cell fault class, decoder faults, stuck-open cells, rows
//! holding two faults and rows written with non-zero contents.

use proptest::prelude::*;
use sram_model::cell::CellCoord;
use sram_model::{
    Address, CellFault, CellNode, CouplingKind, DataWord, DecoderFault, DecoderFaultKind, MemConfig,
    RowClasses, Sram,
};
use std::collections::BTreeSet;

/// SplitMix64, so a failing case rebuilds from its printed seed alone.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// One random cell fault of any class; stuck-open only when allowed.
/// Coupling aggressors may sit in the victim's row or any other.
fn random_cell_fault(stream: &mut Stream, config: MemConfig, stuck_open: bool) -> CellFault {
    let aggressor = CellCoord::new(
        Address::new(stream.below(config.words())),
        stream.below(config.width() as u64) as usize,
    );
    match stream.below(if stuck_open { 13 } else { 12 }) {
        0 => CellFault::StuckAt(false),
        1 => CellFault::StuckAt(true),
        2 => CellFault::TransitionUp,
        3 => CellFault::TransitionDown,
        4 => CellFault::ReadDestructive,
        5 => CellFault::DeceptiveReadDestructive,
        6 => CellFault::IncorrectRead,
        7 => CellFault::DataRetention { node: CellNode::A },
        8 => CellFault::DataRetention { node: CellNode::B },
        9 => CellFault::Coupling {
            aggressor,
            kind: CouplingKind::Idempotent {
                aggressor_rises: stream.coin(),
                forced_value: stream.coin(),
            },
        },
        10 => CellFault::Coupling {
            aggressor,
            kind: CouplingKind::Inversion {
                aggressor_rises: stream.coin(),
            },
        },
        11 => CellFault::Coupling {
            aggressor,
            kind: CouplingKind::State {
                aggressor_value: stream.coin(),
                forced_value: stream.coin(),
            },
        },
        _ => CellFault::StuckOpen,
    }
}

/// A random memory: up to eight cell faults (at most one per cell, a
/// second one in the row of the previous fault about a third of the
/// time, stuck-open in about one memory in eight), up to two decoder
/// faults, and a few rows written with random words before and after
/// injection (a write can leave a row at zero again).
fn random_sram(seed: u64) -> Sram {
    let mut stream = Stream(seed);
    let words = [8u64, 16, 24][stream.below(3) as usize];
    let width = [4usize, 8, 65][stream.below(3) as usize];
    let config = MemConfig::new(words, width).expect("valid geometry");
    let mut sram = Sram::new(config);
    let stuck_open = stream.below(8) == 0;
    let write_some = |sram: &mut Sram, stream: &mut Stream| {
        for _ in 0..stream.below(4) {
            let mut word = DataWord::zero(width);
            for bit in 0..width {
                word.set(bit, stream.below(4) == 0);
            }
            let address = Address::new(stream.below(words));
            sram.write(address, &word).expect("in range");
        }
    };
    write_some(&mut sram, &mut stream);
    let mut used = BTreeSet::new();
    let mut previous_row = None;
    for _ in 0..stream.below(9) {
        let row = match previous_row {
            Some(row) if stream.below(3) == 0 => row,
            _ => stream.below(words),
        };
        let bit = stream.below(width as u64) as usize;
        if !used.insert((row, bit)) {
            continue;
        }
        let fault = random_cell_fault(&mut stream, config, stuck_open);
        sram.inject_cell_fault(CellCoord::new(Address::new(row), bit), fault)
            .expect("fault fits the geometry");
        previous_row = Some(row);
    }
    for _ in 0..stream.below(3) {
        let address = Address::new(stream.below(words));
        let target = Address::new(stream.below(words));
        let kind = match stream.below(3) {
            0 => DecoderFaultKind::NoAccess,
            1 => DecoderFaultKind::MapsTo(target),
            _ => DecoderFaultKind::AlsoAccesses(target),
        };
        sram.inject_decoder_fault(DecoderFault::new(address, kind))
            .expect("fault fits the geometry");
    }
    write_some(&mut sram, &mut stream);
    sram
}

/// The classification restated row by row:
///
/// * a stuck-open cell anywhere declines every row;
/// * a fault row holds a faulty cell, is a coupling aggressor's row or
///   is a row a decoder fault touches. It is a lane row when it is
///   neither of the last two, holds no coupling victim, and stores the
///   lane reset word (stuck-at-1 cells at 1, every other bit 0);
///   otherwise it is stepped;
/// * any other row whose stored word is not zero is non-reset.
fn restated(sram: &Sram) -> Option<RowClasses> {
    let cells = sram.cell_faults();
    if cells.iter().any(|&(_, fault)| fault == CellFault::StuckOpen) {
        return None;
    }
    let decoders = sram.decoder_faults();
    let width = sram.config().width();
    let mut classes = RowClasses {
        retention: sram.retention(),
        lane: Vec::new(),
        stepped: Vec::new(),
        non_reset: Vec::new(),
    };
    for row in 0..sram.config().words() {
        let address = Address::new(row);
        let own: Vec<(usize, CellFault)> = cells
            .iter()
            .filter(|(coord, _)| coord.address == address)
            .map(|&(coord, fault)| (coord.bit, fault))
            .collect();
        let decoder_row = decoders.iter().any(|fault| {
            let (first, second) = fault.deviation_rows();
            first == address || second == Some(address)
        });
        let aggressor_row = cells.iter().any(|(_, fault)| {
            matches!(fault, CellFault::Coupling { aggressor, .. } if aggressor.address == address)
        });
        let stored = sram.peek(address).expect("in range");
        if own.is_empty() && !decoder_row && !aggressor_row {
            if stored != DataWord::zero(width) {
                classes.non_reset.push(address);
            }
            continue;
        }
        let mut reset = DataWord::zero(width);
        for &(bit, fault) in &own {
            reset.set(bit, fault == CellFault::StuckAt(true));
        }
        let single_cell = own.iter().all(|(_, fault)| !fault.is_coupling());
        if !decoder_row && !aggressor_row && single_cell && stored == reset {
            classes.lane.push((address, own));
        } else {
            classes.stepped.push(address);
        }
    }
    Some(classes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Property: the one-walk classification equals the per-row
    /// restatement.
    #[test]
    fn row_classes_match_the_per_row_rules(seed in any::<u64>()) {
        let sram = random_sram(seed);
        prop_assert_eq!(sram.row_classes(), restated(&sram), "seed {:#x}", seed);
    }
}

/// The generator reaches every outcome the property distinguishes, so
/// the property cannot pass on degenerate memories alone.
#[test]
fn random_memories_reach_every_class() {
    let mut declined = 0;
    let mut counts = [0usize; 3];
    let mut two_fault_lane_rows = 0;
    for seed in 0..256 {
        match random_sram(seed).row_classes() {
            None => declined += 1,
            Some(classes) => {
                counts[0] += classes.lane.len();
                counts[1] += classes.stepped.len();
                counts[2] += classes.non_reset.len();
                two_fault_lane_rows += classes.lane.iter().filter(|(_, faults)| faults.len() > 1).count();
            }
        }
    }
    assert!(declined > 0, "no memory with a stuck-open cell");
    assert!(
        counts.iter().all(|&count| count > 0),
        "a class is never reached: {counts:?}"
    );
    assert!(two_fault_lane_rows > 0, "no lane row holds two faults");
}
