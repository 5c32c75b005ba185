//! Dense per-cell reference memory model.
//!
//! [`ReferenceSram`] is the pre-refactor implementation of the
//! behavioural e-SRAM: every bit cell is its own [`Cell`] object in a
//! dense `Vec`, and every port operation walks the word bit by bit.
//! It is kept for two purposes:
//!
//! 1. **differential testing** — property tests drive the packed
//!    [`Sram`](crate::array::Sram) and this model with identical fault
//!    injections and March programmes and assert the observed read
//!    sequences are identical;
//! 2. **benchmarking** — the `fault_sim_throughput` bench target uses it
//!    as the "before" baseline when measuring the speedup of the packed
//!    bit-plane array.
//!
//! Its semantics must never diverge from the packed array; when fixing a
//! behaviour, fix both (the equivalence property test will catch a
//! one-sided change).

use crate::array::relist_victim;
use crate::cell::{Cell, CellCoord, CellFault, CouplingKind};
use crate::config::{Address, MemConfig};
use crate::decoder::{AddressDecoder, DecoderFault};
use crate::error::MemError;
use crate::retention::RetentionModel;
use crate::word::DataWord;
use std::collections::BTreeMap;

/// The dense per-cell behavioural e-SRAM (reference oracle).
#[derive(Debug, Clone)]
pub struct ReferenceSram {
    config: MemConfig,
    cells: Vec<Cell>,
    decoder: AddressDecoder,
    retention: RetentionModel,
    last_sense: DataWord,
    coupling_index: BTreeMap<(u64, usize), Vec<CellCoord>>,
}

impl ReferenceSram {
    /// Creates a fault-free memory of the given geometry, using the
    /// paper's default retention model.
    pub fn new(config: MemConfig) -> Self {
        ReferenceSram::with_retention(config, RetentionModel::default())
    }

    /// Creates a fault-free memory with an explicit retention model.
    pub fn with_retention(config: MemConfig, retention: RetentionModel) -> Self {
        let cells = vec![Cell::new(); config.cells() as usize];
        ReferenceSram {
            config,
            cells,
            decoder: AddressDecoder::new(config),
            retention,
            last_sense: DataWord::zero(config.width()),
            coupling_index: BTreeMap::new(),
        }
    }

    /// Geometry of the memory.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    fn cell_index(&self, coord: CellCoord) -> usize {
        coord.address.index() as usize * self.config.width() + coord.bit
    }

    fn check_coord(&self, coord: CellCoord) -> Result<(), MemError> {
        self.config.check_address(coord.address)?;
        if coord.bit >= self.config.width() {
            return Err(MemError::BitOutOfRange {
                bit: coord.bit,
                width: self.config.width(),
            });
        }
        Ok(())
    }

    /// Injects a behavioural fault into one bit cell.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate (or, for coupling faults, the
    /// aggressor coordinate) is outside the memory.
    pub fn inject_cell_fault(&mut self, coord: CellCoord, fault: CellFault) -> Result<(), MemError> {
        self.check_coord(coord)?;
        if let CellFault::Coupling { aggressor, .. } = fault {
            self.check_coord(aggressor)?;
        }
        let index = self.cell_index(coord);
        relist_victim(&mut self.coupling_index, coord, self.cells[index].fault(), fault);
        self.cells[index].set_fault(fault);
        Ok(())
    }

    /// Injects an address-decoder fault.
    ///
    /// # Errors
    ///
    /// Returns an error if the fault references an address outside the
    /// memory.
    pub fn inject_decoder_fault(&mut self, fault: DecoderFault) -> Result<(), MemError> {
        self.decoder.inject(fault)
    }

    /// Normal write cycle.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the data width
    /// does not match the memory IO width.
    pub fn write(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        self.config.check_address(address)?;
        self.config.check_width(data.width())?;
        self.apply_write(address, data, false);
        Ok(())
    }

    /// No Write Recovery Cycle write.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the data width
    /// does not match the memory IO width.
    pub fn write_nwrc(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        self.config.check_address(address)?;
        self.config.check_width(data.width())?;
        self.apply_write(address, data, true);
        Ok(())
    }

    fn apply_write(&mut self, address: Address, data: &DataWord, nwrc: bool) {
        let rows = self.decoder.activated_rows(address);
        for row in rows {
            for bit in 0..self.config.width() {
                let coord = CellCoord::new(row, bit);
                let index = self.cell_index(coord);
                let before = self.cells[index].stored();
                let changed = if nwrc {
                    self.cells[index].write_nwrc(data.bit(bit))
                } else {
                    self.cells[index].write(data.bit(bit))
                };
                if changed {
                    let rose = !before;
                    self.apply_coupling_from(coord, rose);
                }
            }
        }
    }

    fn apply_coupling_from(&mut self, coord: CellCoord, aggressor_rose: bool) {
        let victims = match self.coupling_index.get(&(coord.address.index(), coord.bit)) {
            Some(v) => v.clone(),
            None => return,
        };
        for victim in victims {
            let index = self.cell_index(victim);
            let fault = self.cells[index].fault();
            if let Some(CellFault::Coupling { kind, .. }) = fault {
                match kind {
                    CouplingKind::Idempotent {
                        aggressor_rises,
                        forced_value,
                    } => {
                        if aggressor_rises == aggressor_rose {
                            self.cells[index].force(forced_value);
                        }
                    }
                    CouplingKind::Inversion { aggressor_rises } => {
                        if aggressor_rises == aggressor_rose {
                            let current = self.cells[index].stored();
                            self.cells[index].force(!current);
                        }
                    }
                    CouplingKind::State { .. } => {}
                }
            }
        }
    }

    fn apply_state_coupling(&mut self, coord: CellCoord) {
        let index = self.cell_index(coord);
        if let Some(CellFault::Coupling {
            aggressor,
            kind:
                CouplingKind::State {
                    aggressor_value,
                    forced_value,
                },
        }) = self.cells[index].fault()
        {
            let aggressor_index = self.cell_index(aggressor);
            if self.cells[aggressor_index].stored() == aggressor_value {
                self.cells[index].force(forced_value);
            }
        }
    }

    /// Normal read cycle; returns the word observed at the port.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range.
    pub fn read(&mut self, address: Address) -> Result<DataWord, MemError> {
        self.config.check_address(address)?;
        Ok(self.observe(address))
    }

    fn observe(&mut self, address: Address) -> DataWord {
        let rows = self.decoder.activated_rows(address);
        let width = self.config.width();
        let observed = if rows.is_empty() {
            DataWord::splat(true, width)
        } else {
            let mut word = DataWord::splat(true, width);
            for row in &rows {
                for bit in 0..width {
                    let coord = CellCoord::new(*row, bit);
                    self.apply_state_coupling(coord);
                    let index = self.cell_index(coord);
                    let fault = self.cells[index].fault();
                    let outcome = if matches!(fault, Some(CellFault::StuckOpen)) {
                        crate::cell::CellReadOutcome {
                            observed: self.last_sense.bit(bit),
                            stored_after: self.cells[index].stored(),
                        }
                    } else {
                        self.cells[index].read()
                    };
                    word.set(bit, word.bit(bit) && outcome.observed);
                }
            }
            word
        };
        self.last_sense = observed.clone();
        observed
    }

    /// Retention pause of `pause_ms` milliseconds (walks every cell).
    pub fn elapse_retention(&mut self, pause_ms: f64) {
        let threshold = self.retention.decay_threshold_ms;
        for cell in &mut self.cells {
            cell.elapse_retention(pause_ms, threshold);
        }
    }

    /// Returns the stored word at `address` without a port read.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range.
    pub fn peek(&self, address: Address) -> Result<DataWord, MemError> {
        self.config.check_address(address)?;
        let width = self.config.width();
        let mut word = DataWord::zero(width);
        for bit in 0..width {
            let index = self.cell_index(CellCoord::new(address, bit));
            word.set(bit, self.cells[index].stored());
        }
        Ok(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::DecoderFaultKind;

    #[test]
    fn reference_model_reproduces_basic_fault_behaviour() {
        let mut sram = ReferenceSram::new(MemConfig::new(8, 4).unwrap());
        sram.inject_cell_fault(CellCoord::new(Address::new(2), 3), CellFault::StuckAt(true))
            .unwrap();
        sram.write(Address::new(2), &DataWord::zero(4)).unwrap();
        let observed = sram.read(Address::new(2)).unwrap();
        assert_eq!(observed.mismatches(&DataWord::zero(4)), vec![3]);
        assert_eq!(sram.config().words(), 8);
    }

    #[test]
    fn reference_model_no_access_decoder_fault_reads_ones() {
        let mut sram = ReferenceSram::new(MemConfig::new(8, 4).unwrap());
        sram.inject_decoder_fault(DecoderFault::new(Address::new(1), DecoderFaultKind::NoAccess))
            .unwrap();
        sram.write(Address::new(1), &DataWord::zero(4)).unwrap();
        assert_eq!(sram.read(Address::new(1)).unwrap(), DataWord::splat(true, 4));
        assert_eq!(sram.peek(Address::new(1)).unwrap(), DataWord::zero(4));
    }
}
