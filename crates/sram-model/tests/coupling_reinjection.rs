//! Re-injecting a coupling victim replaces its fault: the victim is
//! then driven by its current aggressor only, and exactly once per
//! sensitising transition. Checked on the packed `Sram` and on the
//! dense `ReferenceSram`, which must agree.

use sram_model::cell::CellCoord;
use sram_model::{
    Address, CellFault, CouplingKind, DataWord, FaultTarget, MemConfig, MemoryPort, ReferenceSram, Sram,
};

const WIDTH: usize = 4;

/// Aggressors in rows 1 and 2, bit 0; the victim in row 6, bit 2.
fn aggressor_a() -> CellCoord {
    CellCoord::new(Address::new(1), 0)
}

fn aggressor_b() -> CellCoord {
    CellCoord::new(Address::new(2), 0)
}

fn victim() -> CellCoord {
    CellCoord::new(Address::new(6), 2)
}

fn config() -> MemConfig {
    MemConfig::new(8, WIDTH).unwrap()
}

/// Raises bit 0 of the aggressor's row (from the all-zero reset state).
fn raise<M: MemoryPort>(memory: &mut M, aggressor: CellCoord) {
    memory
        .write(aggressor.address, &DataWord::from_u64(1 << aggressor.bit, WIDTH))
        .unwrap();
}

fn victim_bit<M: MemoryPort>(memory: &mut M) -> bool {
    memory.read(victim().address).unwrap().bit(victim().bit)
}

fn recoupled_victim_follows_only_its_current_aggressor<M: MemoryPort + FaultTarget>(mut memory: M) {
    let forced_high = |aggressor| CellFault::Coupling {
        aggressor,
        kind: CouplingKind::Idempotent {
            aggressor_rises: true,
            forced_value: true,
        },
    };
    memory
        .inject_cell_fault(victim(), forced_high(aggressor_a()))
        .unwrap();
    memory
        .inject_cell_fault(victim(), forced_high(aggressor_b()))
        .unwrap();
    raise(&mut memory, aggressor_a());
    assert!(
        !victim_bit(&mut memory),
        "the former aggressor still drives the victim"
    );
    raise(&mut memory, aggressor_b());
    assert!(
        victim_bit(&mut memory),
        "the current aggressor must drive the victim"
    );
}

fn twice_injected_inversion_inverts_once<M: MemoryPort + FaultTarget>(mut memory: M) {
    let inversion = CellFault::Coupling {
        aggressor: aggressor_a(),
        kind: CouplingKind::Inversion {
            aggressor_rises: true,
        },
    };
    memory.inject_cell_fault(victim(), inversion).unwrap();
    memory.inject_cell_fault(victim(), inversion).unwrap();
    raise(&mut memory, aggressor_a());
    assert!(
        victim_bit(&mut memory),
        "one rising transition must invert the victim once"
    );
}

#[test]
fn packed_recoupled_victim_follows_only_its_current_aggressor() {
    recoupled_victim_follows_only_its_current_aggressor(Sram::new(config()));
}

#[test]
fn reference_recoupled_victim_follows_only_its_current_aggressor() {
    recoupled_victim_follows_only_its_current_aggressor(ReferenceSram::new(config()));
}

#[test]
fn packed_twice_injected_inversion_inverts_once() {
    twice_injected_inversion_inverts_once(Sram::new(config()));
}

#[test]
fn reference_twice_injected_inversion_inverts_once() {
    twice_injected_inversion_inverts_once(ReferenceSram::new(config()));
}

#[test]
fn recoupling_moves_the_aggressor_row_out_of_the_row_classes() {
    // The former aggressor's row no longer reaches the victim, so it is
    // no longer a fault row.
    let mut sram = Sram::new(config());
    let coupled = |aggressor| CellFault::Coupling {
        aggressor,
        kind: CouplingKind::Inversion {
            aggressor_rises: true,
        },
    };
    sram.inject_cell_fault(victim(), coupled(aggressor_a())).unwrap();
    sram.inject_cell_fault(victim(), coupled(aggressor_b())).unwrap();
    let classes = sram.row_classes().expect("the packed array classifies its rows");
    let stepped: Vec<u64> = classes.stepped.iter().map(|address| address.index()).collect();
    assert_eq!(stepped, [2, 6]);
}
