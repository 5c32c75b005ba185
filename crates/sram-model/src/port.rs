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
use crate::word::DataWord;

/// A memory's declaration of how much of it a batched controller must
/// actually step to observe every behavioural deviation.
///
/// The bit-parallel diagnosis kernel asks each memory for its profile
/// once per run and then skips the operations the profile proves are
/// unobservable: an ideal (pristine, fault-free) memory behaves exactly
/// as the controller's golden model predicts, so stepping it cannot
/// produce a mismatch record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessProfile {
    /// No installed faults and every cell holds its power-on zero: all
    /// operations behave ideally (writes store exactly, reads return
    /// the stored word) and have no side effects a later operation
    /// could observe. A controller whose expectations track the write
    /// stream may skip this memory entirely.
    PristineUniform,
    /// Fault behaviour is confined to the given local rows (sorted
    /// ascending, deduplicated): accesses to any *other* row behave
    /// ideally and neither influence nor depend on the listed rows.
    /// A controller may skip operations addressed outside the listed
    /// rows, provided it still performs every access *to* them (the
    /// listed rows include coupling aggressors, whose write transitions
    /// drive victim cells elsewhere).
    RowLocal(Vec<u64>),
    /// No structural guarantee — e.g. address-decoder faults (one
    /// access can touch several rows) or stuck-open cells (reads echo
    /// the sense amplifier's previous value, whatever row it served).
    /// Every operation must be performed. This is the conservative
    /// default for implementations that do not classify themselves.
    Opaque,
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

    /// How much of this memory a batched controller must step to
    /// observe every behavioural deviation (see [`AccessProfile`]).
    ///
    /// The default is [`AccessProfile::Opaque`] — always sound, never
    /// fast. Implementations that can prove row locality (the packed
    /// [`Sram`] inspects its fault overlay and bit planes) override
    /// this to unlock the bit-parallel diagnosis fast path.
    fn access_profile(&self) -> AccessProfile {
        AccessProfile::Opaque
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
    // `&mut Sram` borrows, and falling back to the Opaque default here
    // would silently disable the fast path for exactly those callers.
    fn access_profile(&self) -> AccessProfile {
        (**self).access_profile()
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

    fn access_profile(&self) -> AccessProfile {
        Sram::access_profile(self)
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
    fn access_profiles_default_to_opaque_and_forward_through_borrows() {
        let config = MemConfig::new(4, 9).unwrap();
        // The dense reference model does not classify itself.
        let dense = ReferenceSram::new(config);
        assert_eq!(MemoryPort::access_profile(&dense), AccessProfile::Opaque);
        // The packed model does, and the `&mut M` forwarding impl must
        // hand through the real classification, not the default.
        let mut packed = Sram::new(config);
        {
            let borrowed: &mut Sram = &mut packed;
            assert_eq!(
                MemoryPort::access_profile(&borrowed),
                AccessProfile::PristineUniform
            );
        }
        packed
            .inject_cell_fault(CellCoord::new(Address::new(2), 1), CellFault::StuckAt(true))
            .unwrap();
        let borrowed: &mut Sram = &mut packed;
        assert_eq!(
            MemoryPort::access_profile(&borrowed),
            AccessProfile::RowLocal(vec![2])
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
