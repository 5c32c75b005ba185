//! Abstractions over memory implementations.
//!
//! The March engine and the fault-injection layer only need a small
//! behavioural surface; abstracting it lets the same programmes drive
//! both the packed [`Sram`] and the dense [`ReferenceSram`], which is
//! how the dense-vs-overlay equivalence property tests and the
//! before/after throughput benches are built.

use crate::array::Sram;
use crate::cell::{CellCoord, CellFault};
use crate::config::{Address, MemConfig};
use crate::decoder::DecoderFault;
use crate::error::MemError;
use crate::reference::ReferenceSram;
use crate::retention::RetentionModel;
use crate::word::DataWord;

/// A memory's row classification for batched controllers (see
/// [`MemoryPort::row_classes`]): every row an ideal model expecting the
/// power-on contents could mispredict, each in exactly one class, all
/// lists ascending. A row in no list behaves ideally, and no access to
/// it influences a listed row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowClasses {
    /// The memory's retention model: lanes replayed together must
    /// decay alike.
    pub retention: RetentionModel,
    /// Rows a lane-parallel controller may replay apart from the
    /// memory, one row per lane of a [`crate::LanePlanes`], each with
    /// its faulty cells as `(bit, fault)` in ascending bit order. Such a
    /// row behaves, under any sequence of operations addressed to it,
    /// exactly as a one-row lane memory holding the listed faults and
    /// starting from the lane reset state (all zero, stuck-at-1 cells
    /// at 1); no access to any other row influences it or is influenced
    /// by it.
    pub lane: Vec<(Address, Vec<(usize, CellFault)>)>,
    /// The other rows a fault can make deviate, which a controller must
    /// step: coupling victims and aggressors (an aggressor's write
    /// transitions drive its victims), the rows a decoder fault touches,
    /// and rows whose faults no lane expresses or whose contents are not
    /// at the lane reset state.
    pub stepped: Vec<Address>,
    /// Fault-free rows whose contents are not all zero: an ideal model
    /// expecting the power-on contents would mispredict a read there
    /// until the row is written.
    pub non_reset: Vec<Address>,
}

/// The port surface a March programme needs from a memory.
pub trait MemoryPort {
    /// Geometry of the memory.
    fn config(&self) -> MemConfig;

    /// Normal write cycle.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the data width
    /// does not match the memory IO width.
    fn write(&mut self, address: Address, data: &DataWord) -> Result<(), MemError>;

    /// No Write Recovery Cycle write.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range or the data width
    /// does not match the memory IO width.
    fn write_nwrc(&mut self, address: Address, data: &DataWord) -> Result<(), MemError>;

    /// Normal read cycle; returns the word observed at the port.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range.
    fn read(&mut self, address: Address) -> Result<DataWord, MemError>;

    /// Fused read-and-compare: a normal read whose result is checked
    /// against `expected`, returning the observed word only on a
    /// mismatch. Implementations may avoid materialising the observed
    /// word when it matches (the packed array compares limbs in place).
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of range.
    fn read_expect(&mut self, address: Address, expected: &DataWord) -> Result<Option<DataWord>, MemError> {
        let observed = self.read(address)?;
        Ok(if &observed == expected {
            None
        } else {
            Some(observed)
        })
    }

    /// Retention pause of `pause_ms` milliseconds.
    fn elapse_retention(&mut self, pause_ms: f64);

    /// Which rows a batched controller must replay to observe every
    /// behavioural deviation from an ideal model (see [`RowClasses`]),
    /// or `None` to have it step every row.
    ///
    /// A controller that replays a lane row must leave the row as the
    /// replay left it, through one normal [`MemoryPort::write`] of the
    /// lane's final word. The row is not addressed meanwhile, so its
    /// cells hold their reset values, bar retention cells a pause
    /// decayed, and that write stores exactly the word: retention and
    /// read-disturb cells write normally, stuck-at bits already hold
    /// their pinned value in it, a TF↑ cell never leaves 0 and a TF↓
    /// cell only rises.
    ///
    /// The default is `None`, always sound, never fast: a port that
    /// does not classify itself is stepped whole. The packed [`Sram`]
    /// classifies its fault overlay and bit planes.
    fn row_classes(&self) -> Option<RowClasses> {
        None
    }
}

/// The injection surface faults need from a memory.
pub trait FaultTarget {
    /// Injects a behavioural fault into one bit cell.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate (or an aggressor coordinate)
    /// is outside the memory.
    fn inject_cell_fault(&mut self, coord: CellCoord, fault: CellFault) -> Result<(), MemError>;

    /// Injects an address-decoder fault.
    ///
    /// # Errors
    ///
    /// Returns an error if the fault references an address outside the
    /// memory.
    fn inject_decoder_fault(&mut self, fault: DecoderFault) -> Result<(), MemError>;
}

/// Forwarding impl so populations can be assembled from borrowed
/// memories (e.g. `bisd` diagnosing `(MemoryId, &mut Sram)` pairs built
/// from a population it does not own).
impl<M: MemoryPort + ?Sized> MemoryPort for &mut M {
    fn config(&self) -> MemConfig {
        (**self).config()
    }

    fn write(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        (**self).write(address, data)
    }

    fn write_nwrc(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        (**self).write_nwrc(address, data)
    }

    fn read(&mut self, address: Address) -> Result<DataWord, MemError> {
        (**self).read(address)
    }

    #[inline]
    fn read_expect(&mut self, address: Address, expected: &DataWord) -> Result<Option<DataWord>, MemError> {
        (**self).read_expect(address, expected)
    }

    fn elapse_retention(&mut self, pause_ms: f64) {
        (**self).elapse_retention(pause_ms);
    }

    // Forwarded explicitly: populations are routinely assembled from
    // `&mut Sram` borrows, and falling back to the stepping default here
    // would silently disable the fast path for exactly those callers.
    fn row_classes(&self) -> Option<RowClasses> {
        (**self).row_classes()
    }
}

impl MemoryPort for Sram {
    fn config(&self) -> MemConfig {
        Sram::config(self)
    }

    fn write(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        Sram::write(self, address, data)
    }

    fn write_nwrc(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        Sram::write_nwrc(self, address, data)
    }

    fn read(&mut self, address: Address) -> Result<DataWord, MemError> {
        Sram::read(self, address)
    }

    #[inline]
    fn read_expect(&mut self, address: Address, expected: &DataWord) -> Result<Option<DataWord>, MemError> {
        Sram::read_expect(self, address, expected)
    }

    fn elapse_retention(&mut self, pause_ms: f64) {
        Sram::elapse_retention(self, pause_ms);
    }

    fn row_classes(&self) -> Option<RowClasses> {
        Sram::row_classes(self)
    }
}

impl FaultTarget for Sram {
    fn inject_cell_fault(&mut self, coord: CellCoord, fault: CellFault) -> Result<(), MemError> {
        Sram::inject_cell_fault(self, coord, fault)
    }

    fn inject_decoder_fault(&mut self, fault: DecoderFault) -> Result<(), MemError> {
        Sram::inject_decoder_fault(self, fault)
    }
}

impl MemoryPort for ReferenceSram {
    fn config(&self) -> MemConfig {
        ReferenceSram::config(self)
    }

    fn write(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        ReferenceSram::write(self, address, data)
    }

    fn write_nwrc(&mut self, address: Address, data: &DataWord) -> Result<(), MemError> {
        ReferenceSram::write_nwrc(self, address, data)
    }

    fn read(&mut self, address: Address) -> Result<DataWord, MemError> {
        ReferenceSram::read(self, address)
    }

    fn elapse_retention(&mut self, pause_ms: f64) {
        ReferenceSram::elapse_retention(self, pause_ms);
    }
}

impl FaultTarget for ReferenceSram {
    fn inject_cell_fault(&mut self, coord: CellCoord, fault: CellFault) -> Result<(), MemError> {
        ReferenceSram::inject_cell_fault(self, coord, fault)
    }

    fn inject_decoder_fault(&mut self, fault: DecoderFault) -> Result<(), MemError> {
        ReferenceSram::inject_decoder_fault(self, fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: MemoryPort>(mem: &mut M) -> DataWord {
        let width = mem.config().width();
        mem.write(Address::new(0), &DataWord::splat(true, width)).unwrap();
        mem.elapse_retention(1.0);
        mem.read(Address::new(0)).unwrap()
    }

    #[test]
    fn both_models_serve_the_port_trait() {
        let config = MemConfig::new(4, 9).unwrap();
        let mut packed = Sram::new(config);
        let mut dense = ReferenceSram::new(config);
        assert_eq!(roundtrip(&mut packed), roundtrip(&mut dense));
        assert_eq!(MemoryPort::config(&packed), MemoryPort::config(&dense));
    }

    #[test]
    fn row_classes_default_to_stepping_and_forward_through_borrows() {
        let config = MemConfig::new(4, 9).unwrap();
        // The dense reference model does not classify itself.
        let dense = ReferenceSram::new(config);
        assert_eq!(MemoryPort::row_classes(&dense), None);
        // The packed model does, and the `&mut M` forwarding impl must
        // hand through the real classification, not the default.
        let mut packed = Sram::new(config);
        let classes = |lane| RowClasses {
            retention: RetentionModel::default(),
            lane,
            stepped: Vec::new(),
            non_reset: Vec::new(),
        };
        {
            let borrowed: &mut Sram = &mut packed;
            assert_eq!(MemoryPort::row_classes(&borrowed), Some(classes(Vec::new())));
        }
        packed
            .inject_cell_fault(CellCoord::new(Address::new(2), 1), CellFault::StuckAt(true))
            .unwrap();
        let borrowed: &mut Sram = &mut packed;
        assert_eq!(
            MemoryPort::row_classes(&borrowed),
            Some(classes(vec![(
                Address::new(2),
                vec![(1, CellFault::StuckAt(true))]
            )]))
        );
    }

    #[test]
    fn both_models_serve_the_fault_target_trait() {
        fn inject<T: FaultTarget>(target: &mut T) {
            target
                .inject_cell_fault(CellCoord::new(Address::new(1), 0), CellFault::StuckAt(true))
                .unwrap();
        }
        let config = MemConfig::new(4, 2).unwrap();
        let mut packed = Sram::new(config);
        let mut dense = ReferenceSram::new(config);
        inject(&mut packed);
        inject(&mut dense);
        assert_eq!(
            MemoryPort::read(&mut packed, Address::new(1)).unwrap(),
            MemoryPort::read(&mut dense, Address::new(1)).unwrap()
        );
    }
}
